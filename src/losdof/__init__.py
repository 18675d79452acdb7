"""Spatial bandwidth and achievable degrees of freedom of LOS array links.

Numerical toolkit for line-of-sight channels between linear antenna arrays
in 3D: local spatial bandwidth closed forms, the K number (achievable
spatial degrees of freedom), spatial-multiplexing-region boundaries,
discretised channel singular spectra, and ground-coverage maps with
orientation control.  All lengths are in wavelengths, all angles in radians.
"""

__version__ = "0.1.0"

from .bandwidth import (
    BandwidthSummary,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    direction_cosine,
    effective_interval,
    extrema,
    extrema_x,
    extrema_y,
    extrema_z,
)
from .channel import (
    ChannelSpec,
    SingularSpectrum,
    antenna_positions,
    build_channel,
    channel_matrix,
    channel_to_csv,
    normalized_spectrum,
    nyquist_spacing,
    singular_spectrum,
    usable_count,
)
from .dof import FarFieldWarning, KNumberReport, k_bounds, k_linear, k_number, k_parallel
from .geometry import (
    AssemblyParams,
    LocalFrame,
    ReceiveDirection,
    ScenePlacement,
    arctan_star,
    horizontal_scene_to_local,
    vertical_scene_to_local,
)
from .regions import (
    R0Threshold,
    RegionCurve,
    boundary_curve,
    fraunhofer,
    ncsmr_boundary,
    r0_threshold,
    rz_boresight,
    smr_boundary,
    smr_boundary_y,
)
from .scenarios import GroundGrid, KMap, k_map

__all__ = [
    "__version__",
    "AssemblyParams",
    "BandwidthSummary",
    "ChannelSpec",
    "FarFieldWarning",
    "GroundGrid",
    "KMap",
    "KNumberReport",
    "LocalFrame",
    "R0Threshold",
    "ReceiveDirection",
    "RegionCurve",
    "ScenePlacement",
    "SingularSpectrum",
    "antenna_positions",
    "arctan_star",
    "bandwidth_generic",
    "bandwidth_x",
    "bandwidth_y",
    "bandwidth_z",
    "boundary_curve",
    "build_channel",
    "channel_matrix",
    "channel_to_csv",
    "direction_cosine",
    "effective_interval",
    "extrema",
    "extrema_x",
    "extrema_y",
    "extrema_z",
    "fraunhofer",
    "horizontal_scene_to_local",
    "k_bounds",
    "k_linear",
    "k_map",
    "k_number",
    "k_parallel",
    "ncsmr_boundary",
    "normalized_spectrum",
    "nyquist_spacing",
    "r0_threshold",
    "rz_boresight",
    "singular_spectrum",
    "smr_boundary",
    "smr_boundary_y",
    "usable_count",
    "vertical_scene_to_local",
]
