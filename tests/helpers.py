"""Shared brute-force oracles for the test suite.

These deliberately avoid the closed forms under test: extrema and the
generic bandwidth come from ``losdof._oracle`` (dense grid scans with
zooming-grid refinement, shared with ``losdof verify``), integrals from the
trapezoid rule, and the world-frame K number from a direct two-dimensional
scan over source and receive positions in world coordinates.  The region
boundary reference checks the root solver, not the closed forms: it scans
each angle on its own and refines each bracket by ``scipy.optimize.brentq``
on the same extrema kernel.  The ``verify`` reference runs that command's
checks one assembly at a time, through the one-assembly closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from losdof import AssemblyParams, ReceiveDirection
from losdof.bandwidth import (
    _axis_extrema,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    extrema,
)
from losdof.dof import k_number
from losdof.regions import RESIDUAL_TOL, _SCAN_POINTS, r0_threshold

from losdof._oracle import (  # noqa: F401
    axis_draw_errors,
    random_params,
    scan_extrema,
    scan_spread,
    worst_error,
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
        w_max, w_min, _ = _axis_extrema(tag, r * np.sin(theta), r * np.cos(theta), L, rho)
        return (w_max - w_min if spread else w_max) - target

    return g


def _brentq(g, a: float, b: float) -> float:
    """``brentq`` on the bracket ``[a, b]``; NaN where ``g`` turns NaN inside it.

    Such a bracket gives no root, as in ``losdof.regions._bracketed_roots``:
    at ``r = L/2 - rho`` on the endfire axis an end of the receive array
    meets a source end, and the extrema there are NaN.
    """
    try:
        return brentq(g, a, b, xtol=1e-12, rtol=1e-12)
    except ValueError as exc:
        if "NaN" not in str(exc):
            raise
        return math.nan


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
    return float(_brentq(g, grid[i], grid[i - 1]))


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
            [_brentq(g, grid[i], grid[i + 1]) for i in brackets],
        ])
        return tuple(float(root) for root in roots[np.abs(g(roots)) <= RESIDUAL_TOL])
    root = _largest_root(g, r_hi)
    if root is None or not abs(g(root)) <= RESIDUAL_TOL:
        return ()
    return (root,)


def _reference_axis_errors(params: AssemblyParams, samples: int, points: int):
    """``verify``'s axis checks on one assembly: extrema gap, sandwich excess, symmetry error."""
    pointwise = {"z": bandwidth_z, "x": bandwidth_x, "y": bandwidth_y}
    gaps, excesses = [], []
    for tag in ("z", "x", "y"):
        direction = ReceiveDirection(tag)
        summary = extrema(params, direction)
        lo, hi = summary.effective_interval
        s_lo, s_hi = scan_extrema(lambda l: pointwise[tag](l, params), lo, hi, samples)
        gaps += [s_hi - summary.w_max, s_lo - summary.w_min]
        report = k_number(params, direction)
        excesses += [
            report.k_lower - report.k_exact - 1e-9,
            report.k_exact - report.k_upper - 1e-9,
        ]

    mirrored = AssemblyParams(params.L, params.rho, params.r, math.pi - params.theta)
    zs = np.linspace(-params.rho, params.rho, points)
    xs = np.linspace(-min(params.d, params.rho), params.rho, points)
    ys = np.linspace(0.0, params.rho, points)
    wy = bandwidth_y(ys, params)
    errors = []
    for w1, w2 in (
        (bandwidth_z(zs, params), bandwidth_z(-zs, mirrored)),
        (bandwidth_x(xs, params), bandwidth_x(xs, mirrored)),
        (wy, bandwidth_y(-ys, params)),
        (wy, bandwidth_y(ys, mirrored)),
    ):
        errors.append(np.abs(w1 - w2) / np.maximum(np.abs(w1), 1.0))
    return worst_error(np.abs(gaps)), worst_error(excesses), worst_error(np.concatenate(errors))


def reference_verify(draws: int, seed: int) -> str:
    """The output of ``losdof verify --draws draws --seed seed``, one assembly at a time.

    The loop the command ran before it checked all draws together: per
    assembly, ``extrema``, ``k_number`` and the pointwise forms
    ``bandwidth_z/x/y`` and ``bandwidth_generic``, with one-row
    ``scan_extrema`` and ``scan_spread`` calls.
    """
    rng = np.random.default_rng(seed)
    pointwise = {"x": bandwidth_x, "y": bandwidth_y, "z": bandwidth_z}
    worst_extrema = 0.0
    sandwich_errors = [-math.inf]
    worst_symmetry = 0.0
    generic_errors = [0.0]
    for _ in range(draws):
        params = random_params(rng)
        extrema_err, sandwich_err, symmetry_err = _reference_axis_errors(params, 4001, 11)
        worst_extrema = max(worst_extrema, extrema_err)
        sandwich_errors.append(sandwich_err)
        worst_symmetry = max(worst_symmetry, symmetry_err)
        l_probe = float(rng.uniform(0.1, 1.0)) * params.rho
        for tag, v in (("z", (0, 0, 1)), ("x", (1, 0, 0)), ("y", (0, 1, 0))):
            closed = float(pointwise[tag](l_probe, params))
            brute = bandwidth_generic(l_probe, v, params)
            generic_errors.append(abs(brute - closed))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        closed = bandwidth_generic(l_probe, v, params)
        brute = scan_spread(l_probe, v, params, samples=4001)
        generic_errors.append(abs(brute - closed))
    checks = [
        ("closed-form extrema vs dense-scan oracle", worst_extrema, 1e-8),
        ("k_lower <= k_exact <= k_upper sandwich", worst_error(sandwich_errors), 0.0),
        ("bandwidth symmetry identities (relative)", worst_symmetry, 1e-12),
        ("generic-direction evaluator vs axis closed forms and scan",
         worst_error(generic_errors), 1e-9),
    ]
    return "".join(
        f"{'PASS' if worst <= bound else 'FAIL'}  {name}: worst {worst:.3e} (bound {bound:.0e})\n"
        for name, worst, bound in checks
    )
