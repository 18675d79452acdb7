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

treating the distance ``r`` as the unknown at fixed polar angle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .bandwidth import FarFieldWarning, extrema_x, extrema_y, extrema_z
from .geometry import AssemblyParams, ReceiveDirection

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


def _extrema_quiet(direction: str, theta: float, L: float, rho: float, r: float):
    # Root scans probe arbitrarily small distances; the far-field caveat is
    # about user-requested geometries, not solver probes.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FarFieldWarning)
        params = AssemblyParams(L, rho, r, theta)
        if direction == "y":
            return extrema_y(params)
        return extrema_z(params) if direction == "z" else extrema_x(params)


def _w_max(direction: str, theta: float, L: float, rho: float, r: float) -> float:
    return _extrema_quiet(direction, theta, L, rho, r).w_max


def _w_range(direction: str, theta: float, L: float, rho: float, r: float) -> float:
    return _extrema_quiet(direction, theta, L, rho, r).w_range


def _scan_hi(L: float, rho: float) -> float:
    # The thresholds of interest sit below the boresight maximum; start the
    # search comfortably beyond it.
    return 4.0 * r0_threshold(L, rho).approx


def _largest_root(g, r_hi: float, r_floor: float = 1e-6) -> float | None:
    """Outermost zero of ``g``: geometric scan downward, then Brent refinement."""
    hi = r_hi
    g_hi = g(hi)
    # If the target is still exceeded out here, push the start further out.
    while g_hi > 0 and hi < 1e12:
        hi *= 4.0
        g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    step = 2.0 ** 0.25
    lo = hi / step
    while lo > r_floor:
        g_lo = g(lo)
        if g_lo == 0.0:
            return lo
        if g_lo * g_hi < 0:
            root = brentq(g, lo, hi, xtol=1e-12, rtol=1e-12)
            return float(root)
        hi, g_hi = lo, g_lo
        lo /= step
    return None


def smr_boundary(
    direction: str, theta: float, L: float, rho: float, K0: float
) -> float | None:
    """Distance threshold of the multiplexing region at polar angle ``theta``.

    Largest ``r`` with ``w_max(r) = K0 / (2 rho)`` for the e_z or e_x
    orientation (the bandwidth maximum eventually decreases with distance).
    Returns None when no distance attains the target.
    """
    direction = _check_zx(direction)
    target = K0 / (2.0 * rho)
    g = lambda r: _w_max(direction, theta, L, rho, r) - target
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
    target = 2.0 * K0 / rho
    g = lambda r: _w_max("y", theta, L, rho, r) - target
    root = _largest_root(g, _scan_hi(L, rho))
    if root is None or abs(g(root)) > RESIDUAL_TOL:
        return None
    return root


def ncsmr_boundary(
    direction: str,
    theta: float,
    L: float,
    rho: float,
    delta_k: float,
    scan_points: int = 2048,
) -> list[float]:
    """All non-constant-bandwidth boundary radii at polar angle ``theta``.

    Solves ``w_range(r) = delta_k / rho`` on a log-spaced scan grid over
    ``[1, 4*R0]``; several crossings can exist for one angle (the array may
    enter and leave the region as the distance shrinks).  Roots are returned
    in increasing order; a crossing whose residual exceeds ``RESIDUAL_TOL``
    is a jump of ``w_range``, not a root, and is dropped.
    """
    direction = _check_zx(direction)
    _check_positive(delta_k=delta_k)
    target = delta_k / rho
    grid = np.geomspace(1.0, _scan_hi(L, rho), scan_points)
    values = np.array([_w_range(direction, theta, L, rho, r) - target for r in grid])
    g = lambda r: _w_range(direction, theta, L, rho, r) - target
    roots: list[float] = []
    for lo, hi, g_lo, g_hi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if g_lo == 0.0:
            roots.append(float(lo))
        elif g_lo * g_hi < 0:
            roots.append(float(brentq(g, lo, hi, xtol=1e-12, rtol=1e-12)))
    if len(values) and values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(root for root in roots if abs(g(root)) <= RESIDUAL_TOL)


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
