"""Shared brute-force oracles for the test suite.

These deliberately avoid the closed forms under test: extrema and the
generic bandwidth come from ``losdof._oracle`` (dense grid scans with
zooming-grid refinement, shared with ``losdof verify``), integrals from the
trapezoid rule, and the world-frame K number from a direct two-dimensional
scan over source and receive positions in world coordinates.  The region
boundary reference checks the root solver, not the closed forms: it scans
each angle on its own and refines each bracket by ``scipy.optimize.brentq``
on the same extrema kernel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from losdof.bandwidth import _axis_extrema
from losdof.regions import RESIDUAL_TOL, _SCAN_POINTS, r0_threshold

from losdof._oracle import (  # noqa: F401
    axis_draw_errors,
    random_params,
    scan_extrema,
    scan_spread,
)


def trapezoid_k(fn, lo: float, hi: float, panels: int = 1_000_000) -> float:
    """Trapezoid-rule K number, independent of the adaptive quadrature."""
    xs = np.linspace(lo, hi, panels + 1)
    return float(np.trapezoid(np.asarray(fn(xs), dtype=float), xs))


def world_k_number(
    source_center,
    source_axis,
    source_length: float,
    rx_center,
    v_world,
    rho: float,
    n_l: int = 801,
    n_t: int = 4001,
) -> float:
    """K number computed entirely in world coordinates.

    Brute force on the definition: the spatial-frequency spread is scanned
    over the source segment at every receive position, then integrated by
    the trapezoid rule over the receive array.  Never touches the receiving
    coordinate frame, so it independently checks the whole geometry
    pipeline.
    """
    sc = np.asarray(source_center, dtype=float)
    sa = np.asarray(source_axis, dtype=float)
    sa = sa / np.linalg.norm(sa)
    rc = np.asarray(rx_center, dtype=float)
    v = np.asarray(v_world, dtype=float)
    v = v / np.linalg.norm(v)
    ts = np.linspace(-0.5 * source_length, 0.5 * source_length, n_t)
    src = sc[None, :] + ts[:, None] * sa[None, :]
    ls = np.linspace(-rho, rho, n_l)
    pts = rc[None, :] + ls[:, None] * v[None, :]
    diff = pts[:, None, :] - src[None, :, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    g = (diff @ v) / dist
    w = g.max(axis=1) - g.min(axis=1)
    return float(np.trapezoid(w, ls))


def _excess(tag: str, theta: float, L: float, rho: float, target: float, spread: bool):
    """``w(r) - target`` at scalar or array ``r``; ``w`` is w_max, or w_range if ``spread``."""
    def g(r):
        w_max, w_min, _ = _axis_extrema(tag, theta, L, rho, r)
        return (w_max - w_min if spread else w_max) - target

    return g


def _largest_root(g, r_hi: float, r_floor: float = 1e-6) -> float | None:
    """Outermost zero of ``g``: geometric grid downward, then Brent refinement."""
    hi = r_hi
    g_hi = g(hi)
    while g_hi > 0 and hi < 1e12:
        hi *= 4.0
        g_hi = g(hi)
    if g_hi == 0.0:
        return hi
    step = 2.0 ** 0.25
    count = math.ceil(math.log(hi / r_floor) / math.log(step)) + 2
    grid = np.divide.accumulate(np.r_[hi, np.full(count, step)])
    grid = grid[grid > r_floor]
    values = np.r_[g_hi, g(grid[1:])]
    hits = np.flatnonzero((values[1:] == 0.0) | (values[1:] * values[:-1] < 0))
    if not hits.size:
        return None
    i = hits[0] + 1
    if values[i] == 0.0:
        return float(grid[i])
    return float(brentq(g, grid[i], grid[i - 1], xtol=1e-12, rtol=1e-12))


def reference_excess(tag: str, kind: str, theta: float, L: float, rho: float, threshold: float):
    """The function whose zeros are the boundary radii, at one polar angle."""
    if kind == "ncsmr":
        return _excess(tag, theta, L, rho, threshold / rho, spread=True)
    target = 2.0 * threshold / rho if tag == "y" else threshold / (2.0 * rho)
    return _excess(tag, theta, L, rho, target, spread=False)


def reference_radii(tag: str, kind: str, theta: float, L: float, rho: float,
                    threshold: float) -> tuple[float, ...]:
    """Boundary radii at one polar angle, one scalar ``brentq`` per bracket.

    The per-angle solver ``losdof.regions`` used before its array pass:
    kind and tag as in ``boundary_curve``, the same scan grids and residual
    check.
    """
    g = reference_excess(tag, kind, theta, L, rho, threshold)
    r_hi = 4.0 * r0_threshold(L, rho).approx
    if kind == "ncsmr":
        grid = np.geomspace(1.0, r_hi, _SCAN_POINTS)
        values = g(grid)
        brackets = np.flatnonzero(values[:-1] * values[1:] < 0)
        roots = np.sort(np.r_[
            grid[values == 0.0],
            [brentq(g, grid[i], grid[i + 1], xtol=1e-12, rtol=1e-12) for i in brackets],
        ])
        return tuple(float(root) for root in roots[np.abs(g(roots)) <= RESIDUAL_TOL])
    root = _largest_root(g, r_hi)
    if root is None or abs(g(root)) > RESIDUAL_TOL:
        return ()
    return (root,)
