"""Spatial-multiplexing-region boundaries as distance thresholds per polar angle.

A receive array placed inside the spatial multiplexing region attains at
least ``K0`` degrees of freedom; inside the non-constant-bandwidth subregion
the constant-bandwidth approximation additionally overestimates the K number
by more than ``delta_k``.  The boundary solvers work on the closed-form
bandwidth extrema with the full-array interval convention, i.e. they solve

    w_max(r) = K0 / (2 rho)          (multiplexing boundary, e_z / e_x)
    w_range(r) = delta_k / rho       (non-constant-bandwidth boundary)
    w_max(r) = 2 K0 / rho            (e_y boundary; that whole region is
                                      non-constant-bandwidth by nature)

treating the distance ``r`` as the unknown at fixed polar angle.  Each
scan grid of distances is evaluated in one array call of the closed-form
extrema kernel, and each bracket is refined by Brent's method on the same
kernel.  The solvers set no warning filter: the kernel never warns, so
probes below ten wavelengths raise no ``FarFieldWarning`` and the module is
safe to call from several threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .bandwidth import _axis_extrema
# Unused here; kept because bench/tracing.py wraps these names.
from .bandwidth import extrema_x, extrema_y, extrema_z  # noqa: F401
from .geometry import ReceiveDirection

__all__ = [
    "RegionCurve",
    "R0Threshold",
    "r0_threshold",
    "rz_boresight",
    "smr_boundary",
    "ncsmr_boundary",
    "smr_boundary_y",
    "boundary_curve",
    "fraunhofer",
]

#: residual bound a solved radius must satisfy in its defining equation;
#: it also rejects the pseudo-roots a sign change finds at a jump of the
#: extrema (exact endfire geometries).
RESIDUAL_TOL = 1e-9

#: radii on the log-spaced scan grid of ``ncsmr_boundary``.
_SCAN_POINTS = 2048


class R0Threshold(NamedTuple):
    """Boresight distance threshold for one unit of spatial freedom.

    ``exact`` is None when the receive array is too short
    (``rho <= 1/4`` wavelength) for the exact form to exist.
    """

    exact: float | None
    approx: float


def r0_threshold(L: float, rho: float) -> R0Threshold:
    """Maximum multiplexing-region distance threshold over all placements.

    Attained at boresight with parallel arrays and a target of one degree of
    freedom.  Returns the exact closed form ``L*sqrt(4 rho^2 - 1/4)`` and
    the short-array approximation ``2 rho L`` (which also follows from the
    parallel-array formula).
    """
    _check_positive(L=L, rho=rho)
    approx = 2.0 * rho * L
    radicand = 4.0 * rho * rho - 0.25
    exact = L * math.sqrt(radicand) if radicand > 0 else None
    return R0Threshold(exact, approx)


def rz_boresight(L: float, rho: float, K0: float) -> float | None:
    """Boresight distance threshold for ``K0`` degrees of freedom (e_z direction).

    Closed form ``L * sqrt(4 rho^2 / K0^2 - 1/4)``.  Returns None when
    ``K0`` is unreachable at any positive distance (radicand <= 0).
    """
    _check_positive(L=L, rho=rho, K0=K0)
    radicand = 4.0 * rho * rho / (K0 * K0) - 0.25
    if radicand <= 0:
        return None
    return L * math.sqrt(radicand)


def fraunhofer(L: float) -> float:
    """Conventional near/far-field divider ``L**2`` (in wavelength units).

    Coincides with the multiplexing threshold only for equal-sized parallel
    arrays at boresight; in general it does not imply multiplexing
    capability.
    """
    _check_positive(L=L)
    return L * L


def _check_positive(**values: float):
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")


def _excess(tag: str, theta: float, L: float, rho: float, target: float, spread: bool):
    """``w(r) - target`` at scalar or array ``r``; ``w`` is w_max, or w_range if ``spread``."""
    def g(r):
        w_max, w_min, _ = _axis_extrema(tag, theta, L, rho, r)
        return (w_max - w_min if spread else w_max) - target

    return g


def _scan_hi(L: float, rho: float) -> float:
    # The thresholds of interest sit below the boresight maximum; start the
    # search comfortably beyond it.
    return 4.0 * r0_threshold(L, rho).approx


def _largest_root(g, r_hi: float, r_floor: float = 1e-6) -> float | None:
    """Outermost zero of ``g``: geometric grid downward, then Brent refinement."""
    hi = r_hi
    g_hi = g(hi)
    # If the target is still exceeded out here, push the start further out.
    while g_hi > 0 and hi < 1e12:
        hi *= 4.0
        g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    # hi, hi/step, (hi/step)/step, ... down to r_floor, by repeated division.
    step = 2.0 ** 0.25
    count = math.ceil(math.log(hi / r_floor) / math.log(step)) + 2
    grid = np.divide.accumulate(np.r_[hi, np.full(count, step)])
    grid = grid[grid > r_floor]
    values = np.r_[g_hi, g(grid[1:])]
    # First zero or sign change from the top.
    hits = np.flatnonzero((values[1:] == 0.0) | (values[1:] * values[:-1] < 0))
    if not hits.size:
        return None
    i = hits[0] + 1
    if values[i] == 0.0:
        return float(grid[i])
    return float(brentq(g, grid[i], grid[i - 1], xtol=1e-12, rtol=1e-12))


def smr_boundary(
    direction: str, theta: float, L: float, rho: float, K0: float
) -> float | None:
    """Distance threshold of the multiplexing region at polar angle ``theta``.

    Largest ``r`` with ``w_max(r) = K0 / (2 rho)`` for the e_z or e_x
    orientation (the bandwidth maximum eventually decreases with distance).
    Returns None when no distance attains the target.
    """
    g = _excess(_check_zx(direction), theta, L, rho, K0 / (2.0 * rho), spread=False)
    root = _largest_root(g, _scan_hi(L, rho))
    if root is None or abs(g(root)) > RESIDUAL_TOL:
        return None
    return root


def smr_boundary_y(theta: float, L: float, rho: float, K0: float) -> float | None:
    """Distance threshold of the e_y multiplexing region at polar angle ``theta``.

    Solves ``w_max(r) = 2 K0 / rho``.  The bandwidth profile along e_y
    always ranges from zero to its maximum, so the whole region is
    non-constant-bandwidth and the equation comes from the linear K
    approximation rather than a constant one.
    """
    _check_positive(K0=K0)
    g = _excess("y", theta, L, rho, 2.0 * K0 / rho, spread=False)
    root = _largest_root(g, _scan_hi(L, rho))
    if root is None or abs(g(root)) > RESIDUAL_TOL:
        return None
    return root


def ncsmr_boundary(
    direction: str, theta: float, L: float, rho: float, delta_k: float
) -> list[float]:
    """All non-constant-bandwidth boundary radii at polar angle ``theta``.

    Solves ``w_range(r) = delta_k / rho`` on a log-spaced grid of
    ``_SCAN_POINTS`` (2,048) radii over ``[1, 4*R0]``; several crossings can
    exist for one angle (the array may enter and leave the region as the
    distance shrinks).  Roots are returned in increasing order; a crossing
    whose residual exceeds ``RESIDUAL_TOL`` is a jump of ``w_range``, not a
    root, and is dropped.
    """
    direction = _check_zx(direction)
    _check_positive(delta_k=delta_k)
    g = _excess(direction, theta, L, rho, delta_k / rho, spread=True)
    grid = np.geomspace(1.0, _scan_hi(L, rho), _SCAN_POINTS)
    values = g(grid)
    brackets = np.flatnonzero(values[:-1] * values[1:] < 0)
    roots = np.sort(np.r_[
        grid[values == 0.0],
        [brentq(g, grid[i], grid[i + 1], xtol=1e-12, rtol=1e-12) for i in brackets],
    ])
    return [float(root) for root in roots[np.abs(g(roots)) <= RESIDUAL_TOL]]


def _check_zx(direction: str) -> str:
    tag = direction.tag if isinstance(direction, ReceiveDirection) else str(direction)
    if tag not in ("z", "x"):
        raise ValueError(f"direction must be 'z' or 'x', got {direction!r}")
    return tag


@dataclass(frozen=True)
class RegionCurve:
    """Boundary radii per polar angle for one direction and region kind.

    ``samples`` is an ordered list of ``(theta, radii)`` pairs; multiplexing
    boundaries carry zero or one radius per angle, non-constant-bandwidth
    boundaries may carry several.
    """

    direction: str
    kind: str
    threshold: float
    samples: list[tuple[float, tuple[float, ...]]]

    def __post_init__(self):
        thetas = [t for t, _ in self.samples]
        if any(t2 <= t1 for t1, t2 in zip(thetas, thetas[1:])):
            raise ValueError("theta samples must be strictly increasing")
        if thetas and not (0.0 <= thetas[0] and thetas[-1] <= math.pi):
            raise ValueError("theta samples must lie within [0, pi]")
        if self.kind == "smr" and any(len(radii) > 1 for _, radii in self.samples):
            raise ValueError("multiplexing boundaries carry at most one radius per angle")


def boundary_curve(
    direction: str,
    kind: str,
    theta_grid,
    L: float,
    rho: float,
    threshold: float,
) -> RegionCurve:
    """Map the per-angle boundary solver over a sorted polar-angle grid.

    ``kind`` is ``"smr"`` (multiplexing boundary, threshold ``K0``) or
    ``"ncsmr"`` (non-constant-bandwidth boundary, threshold ``delta_k``).
    The e_y direction supports only ``"smr"``; its region is inherently
    non-constant-bandwidth.
    """
    tag = direction.tag if isinstance(direction, ReceiveDirection) else str(direction)
    if kind not in ("smr", "ncsmr"):
        raise ValueError(f"kind must be 'smr' or 'ncsmr', got {kind!r}")
    if tag == "y" and kind != "smr":
        raise ValueError("the e_y region is wholly non-constant-bandwidth; use kind='smr'")
    samples: list[tuple[float, tuple[float, ...]]] = []
    for theta in theta_grid:
        theta = float(theta)
        if kind == "ncsmr":
            radii = tuple(ncsmr_boundary(tag, theta, L, rho, threshold))
        elif tag == "y":
            root = smr_boundary_y(theta, L, rho, threshold)
            radii = () if root is None else (root,)
        else:
            root = smr_boundary(tag, theta, L, rho, threshold)
            radii = () if root is None else (root,)
        samples.append((theta, radii))
    return RegionCurve(tag, kind, float(threshold), samples)
