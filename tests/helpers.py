"""Shared brute-force oracles for the test suite.

These deliberately avoid the closed forms under test: extrema and the
generic bandwidth come from ``losdof._oracle`` (dense grid scans with
zooming-grid refinement, shared with ``losdof verify``), integrals from the
trapezoid rule, and the world-frame K number from a direct two-dimensional
scan over source and receive positions in world coordinates.
"""

from __future__ import annotations

import numpy as np

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
