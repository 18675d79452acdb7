"""Coverage maps of the K number for elevated-source scenarios.

For a scene placement (vertical or horizontal source above the ground) the
K number is mapped over a grid of receive positions on the ground, under a
fixed receive-array orientation or one of two location-dependent orientation
policies:

``"gamma"``
    Point the array along the azimuth of its own position (radial on the
    ground).  Best suited to the vertical placement, where it makes the K
    number invariant on circles around the ground origin.
``"hcontrol"``
    The closed-form orientation for the horizontal placement that balances
    the e_z and e_x contributions of the local bandwidth at the array
    centre; near-optimal wherever the bandwidth is effectively constant over
    the array and both frequency extremes come from the same source ends
    (``r |cos(theta)| > L/2``).

The policies, the local frames and the exact K numbers are array functions
of the ground position.  ``geometry.scene_to_local`` reads each point's
distance ``d`` from the source axis and axial offset ``c`` straight off the
ground coordinates, and ``dof.k_exact`` (the generic-direction closed form,
so tilted orientations pick up every direction's contribution) takes them
as they are.  Each map point carries a status: ``"ok"``,
``"excluded"`` (closer than ``EXCLUSION_RADIUS`` to the source centre) or
``"failed"`` (the policy's angle or the K number is undefined there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bandwidth_x/z, k_number and the scalar transforms are unused here;
# bench/tracing.py patches them on this module.
from .bandwidth import axis_bandwidth, bandwidth_x, bandwidth_z  # noqa: F401
from .dof import k_exact, k_number  # noqa: F401
from .geometry import (  # noqa: F401
    ScenePlacement,
    _check_phi,
    gamma,
    horizontal_scene_to_local,
    scene_to_local,
    vertical_scene_to_local,
)

__all__ = [
    "GroundGrid",
    "KMap",
    "STATUSES",
    "gamma",
    "hcontrol",
    "k_map",
]

#: receive positions closer than this to the source centre are masked out.
EXCLUSION_RADIUS = 1.0

#: per-point status values of a ``KMap``.
STATUSES = ("ok", "excluded", "failed")


@dataclass(frozen=True)
class GroundGrid:
    """Rectangular evaluation grid on the ground plane (y'' >= 0 half)."""

    x_range: tuple[float, float, int]
    y_range: tuple[float, float, int]

    def __post_init__(self):
        for name, (lo, hi, steps) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
                raise ValueError(f"{name} must be a finite (min, max, steps) with max >= min")
            if int(steps) < 2:
                raise ValueError(f"{name} needs at least 2 steps")
        if self.y_range[0] < 0:
            raise ValueError("grid must stay in the y'' >= 0 half-plane")
        object.__setattr__(self, "x_range", (float(self.x_range[0]), float(self.x_range[1]), int(self.x_range[2])))
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1]), int(self.y_range[2])))

    @property
    def xs(self) -> np.ndarray:
        lo, hi, steps = self.x_range
        return np.linspace(lo, hi, steps)

    @property
    def ys(self) -> np.ndarray:
        lo, hi, steps = self.y_range
        return np.linspace(lo, hi, steps)


@dataclass(frozen=True)
class KMap:
    """K numbers over a ground grid; NaN marks excluded or failed points.

    ``policy`` is the label of the orientation policy the map was computed
    under (``"gamma"``, ``"hcontrol"`` or ``"fixed(<phi>)"``).  ``status``
    gives each point's ``STATUSES`` entry.
    """

    grid: GroundGrid
    values: np.ndarray
    policy: str
    status: np.ndarray

    def __post_init__(self):
        expected = (self.grid.x_range[2], self.grid.y_range[2])
        if self.values.shape != expected or self.status.shape != expected:
            raise ValueError(f"values shape {self.values.shape} and status shape "
                             f"{self.status.shape} must match grid {expected}")
        finite = self.values[np.isfinite(self.values)]
        if finite.size and finite.min() < 0:
            raise ValueError("K numbers cannot be negative")

    @property
    def status_counts(self) -> dict[str, int]:
        """Number of points per status, every status listed."""
        return {name: int(np.count_nonzero(self.status == name)) for name in STATUSES}


def hcontrol(x, y, scene: ScenePlacement):
    """Closed-form orientation for the horizontal placement, elementwise.

    Balances the centre-point bandwidths of the e_z and e_x directions:
    ``arctan_star(sign(-x'') * cos(psi) * w_x(0) / w_z(0))``.  The
    result exceeds pi/2 for ``x'' > 0``, stays below it for ``x'' < 0`` and
    is 0 on the boresight plane ``x'' = 0``.  NaN where the ratio is
    undefined (a vanishing ``w_z(0)``).
    """
    if scene.mode != "horizontal":
        raise ValueError("the hcontrol orientation applies to horizontal-mode scenes")
    x = np.asarray(x, dtype=float)
    d, c, _, psi = scene_to_local("horizontal", scene.source_height, x, y, 0.0)
    w_z0 = axis_bandwidth("z", 0.0, d, c, scene.source_length)
    w_x0 = axis_bandwidth("x", 0.0, d, c, scene.source_length)
    with np.errstate(all="ignore"):
        t = np.sign(-x) * np.cos(psi) * w_x0 / w_z0
        phi = np.where(t < 0.0, math.pi, 0.0) + np.arctan(t)
    return np.where((w_z0 > 0.0) & np.isfinite(t), phi, math.nan)


def _policy_label(policy) -> str:
    if isinstance(policy, str):
        if policy not in ("gamma", "hcontrol"):
            raise ValueError(f"unknown policy {policy!r}")
        return policy
    return f"fixed({_check_phi(policy):g})"


def _evaluate(scene: ScenePlacement, policy, x, y):
    """``(K, status)`` at ground points ``x``, ``y``: policy, frames, kernel, mask."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if policy == "hcontrol" and scene.mode != "horizontal":
        return np.full(x.shape, math.nan), np.full(x.shape, "failed")
    if policy == "gamma":
        phi = gamma(x, y)
    elif policy == "hcontrol":
        phi = hcontrol(x, y, scene)
    else:
        phi = float(policy)
    d, c, v_hat, _ = scene_to_local(scene.mode, scene.source_height, x, y, phi)
    rho = 0.5 * scene.receive_length
    k = k_exact(d, c, scene.source_length, v_hat, -rho, rho)
    excluded = np.hypot(d, c) < EXCLUSION_RADIUS
    ok = ~excluded & np.isfinite(k)
    status = np.where(excluded, "excluded", np.where(ok, "ok", "failed"))
    return np.where(ok, k, math.nan), status


def k_map_point(scene: ScenePlacement, policy, x: float, y: float) -> float:
    """K number at one ground position; NaN if excluded or failed."""
    _policy_label(policy)
    return float(_evaluate(scene, policy, x, y)[0])


def k_map(scene: ScenePlacement, policy, grid: GroundGrid) -> KMap:
    """K-number map over a ground grid under an orientation policy.

    ``policy`` is a fixed orientation angle (float, radians, in ``[0, pi]``),
    ``"gamma"``, or ``"hcontrol"`` (horizontal scenes only; every point of
    another scene fails).  Each point's K number is exact (closed form).
    """
    label = _policy_label(policy)
    # One point at a time for now; ROADMAP.md ("Maps") has the one-call version.
    xs, ys = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    points = [_evaluate(scene, policy, x, y) for x, y in zip(xs.flat, ys.flat)]
    values = np.reshape([k for k, _ in points], xs.shape)
    status = np.reshape([s for _, s in points], xs.shape)
    return KMap(grid, values, label, status)
