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

Maps use the generic-direction closed form of the K number (not the
per-axis closed forms), so tilted orientations pick up every direction's
contribution.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import FarFieldWarning, bandwidth_x, bandwidth_z
from .dof import k_number
from .geometry import (
    ReceiveDirection,
    ScenePlacement,
    arctan_star,
    horizontal_scene_to_local,
    sign_star,
    vertical_scene_to_local,
)

__all__ = [
    "GroundGrid",
    "KMap",
    "phi_policy_gamma",
    "phi_policy_h",
    "k_map",
    "kmap_rows",
]

#: receive positions closer than this to the source centre are masked out.
EXCLUSION_RADIUS = 1.0


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
    """K numbers over a ground grid; NaN marks masked or failed points.

    ``policy`` is the label of the orientation policy the map was computed
    under (``"gamma"``, ``"hcontrol"`` or ``"fixed(<phi>)"``).
    """

    grid: GroundGrid
    values: np.ndarray
    policy: str

    def __post_init__(self):
        expected = (self.grid.x_range[2], self.grid.y_range[2])
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not match grid {expected}")
        finite = self.values[np.isfinite(self.values)]
        if finite.size and finite.min() < 0:
            raise ValueError("K numbers cannot be negative")


def phi_policy_gamma(point) -> float:
    """Radial orientation: the azimuth ``gamma`` of the ground point.

    At the origin the azimuth is undefined and 0 is returned; every
    orientation is equivalent there by symmetry.
    """
    x, y = (float(c) for c in point)
    r1 = math.hypot(x, y)
    if r1 == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, x / r1)))


def phi_policy_h(point, scene: ScenePlacement) -> float:
    """Closed-form orientation for the horizontal placement.

    Balances the centre-point bandwidths of the e_z and e_x directions:
    ``arctan_star(sign_star(-x'') * cos(psi) * w_x(0) / w_z(0))``.  The
    result exceeds pi/2 for ``x'' > 0``, stays below it for ``x'' < 0`` and
    is 0 on the boresight plane ``x'' = 0``.
    """
    if scene.mode != "horizontal":
        raise ValueError("phi_policy_h applies to horizontal-mode scenes")
    x, y = (float(c) for c in point)
    frame = horizontal_scene_to_local(
        ScenePlacement("horizontal", scene.source_length, scene.source_height,
                       (x, y), scene.receive_length),
        0.0,
    )
    params = frame.params
    w_z0 = float(bandwidth_z(0.0, params))
    if w_z0 <= 0.0:
        raise ValueError("centre bandwidth along e_z vanished; orientation ratio undefined")
    w_x0 = float(bandwidth_x(0.0, params))
    ratio = math.cos(frame.angle) * w_x0 / w_z0
    return arctan_star(sign_star(-x) * ratio)


def _resolve_phi(policy, point, scene: ScenePlacement) -> float:
    if policy == "gamma":
        return phi_policy_gamma(point)
    if policy == "hcontrol":
        return phi_policy_h(point, scene)
    return float(policy)


def _policy_label(policy) -> str:
    if isinstance(policy, str):
        if policy not in ("gamma", "hcontrol"):
            raise ValueError(f"unknown policy {policy!r}")
        return policy
    return f"fixed({float(policy):g})"


def k_map_point(scene: ScenePlacement, policy, x: float, y: float) -> float:
    """K number at one ground position; NaN if masked or degenerate."""
    try:
        phi = _resolve_phi(policy, (x, y), scene)
        if scene.mode == "vertical":
            frame = vertical_scene_to_local(
                ScenePlacement("vertical", scene.source_length, scene.source_height,
                               (x, y), scene.receive_length),
                phi,
            )
        else:
            frame = horizontal_scene_to_local(
                ScenePlacement("horizontal", scene.source_length, scene.source_height,
                               (x, y), scene.receive_length),
                phi,
            )
        if frame.params.r < EXCLUSION_RADIUS:
            return math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FarFieldWarning)
            direction = ReceiveDirection.generic(frame.params.v_hat)
            return k_number(frame.params, direction).k_exact
    except ValueError:
        return math.nan


def k_map(
    scene: ScenePlacement,
    policy,
    grid: GroundGrid,
    workers: int = 1,
) -> KMap:
    """K-number map over a ground grid under an orientation policy.

    ``policy`` is a fixed orientation angle (float, radians), ``"gamma"``,
    or ``"hcontrol"`` (horizontal scenes only).  Each point's K number is
    exact (closed form).  Values are assembled in grid order regardless of
    ``workers``; each point is an independent pure computation.
    """
    label = _policy_label(policy)
    xs, ys = grid.xs, grid.ys
    points = [(float(x), float(y)) for x in xs for y in ys]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_point_star, [(scene, policy, x, y) for x, y in points],
                                 chunksize=max(1, len(points) // (8 * workers))))
    else:
        flat = [k_map_point(scene, policy, x, y) for x, y in points]
    values = np.array(flat, dtype=float).reshape(len(xs), len(ys))
    return KMap(grid, values, label)


def _point_star(args) -> float:
    return k_map_point(*args)


def kmap_rows(kmap: KMap):
    """Yield ``(x, y, k)`` rows in row-major grid order."""
    xs, ys = kmap.grid.xs, kmap.grid.ys
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            yield float(x), float(y), float(kmap.values[i, j])
