"""Brute-force oracles shared by ``losdof verify`` and the test suite.

They work from the definitions, not from the closed forms they check:
extrema come from a dense scan plus zooming-grid refinement, and the
generic bandwidth from a scan of the spatial frequency over the source
segment.  ``axis_draw_errors`` is the per-assembly check of the axis
closed forms that ``verify`` and acceptance criterion 8 share; it takes
the closed forms as arguments, so this module never imports them.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import AssemblyParams, ReceiveDirection

#: points per bracket and zoom; the bracket shrinks ~32-fold per zoom
ZOOM_POINTS = 65
#: bracket width at which refinement stops
XATOL = 1e-12
#: zoom cap, for brackets that stop shrinking above XATOL
MAX_ZOOMS = 60

_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)
_SIGNS = np.repeat([1.0, -1.0], ZOOM_POINTS)
_FIRST = np.array([0, ZOOM_POINTS])
_LAST = _FIRST + ZOOM_POINTS - 1


def scan_extrema(fn, lo: float, hi: float, samples: int = 10001) -> tuple[float, float]:
    """(min, max) of ``fn`` on ``[lo, hi]``: dense scan plus zooming-grid refinement.

    ``fn`` maps a 1-D array of abscissae to values.  The scan's argmin and
    argmax are each bracketed by their neighbouring samples; every zoom
    evaluates ``ZOOM_POINTS`` points per bracket, both brackets in one
    ``fn`` call, and shrinks each bracket to the neighbours of its best
    point.  Zooming stops once every bracket is at most ``XATOL`` wide or
    no longer shrinks at float resolution, or after ``MAX_ZOOMS`` zooms.
    The result is the best value seen.  A NaN among the zoom points is
    never taken as best, so the result then falls back to the scan; a NaN
    at the scan's argmin or argmax is returned as is.
    """
    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(fn(xs), dtype=float)
    k = np.array([vals.argmin(), vals.argmax()])
    best = vals[k] * (1.0, -1.0)  # the rows minimise fn and -fn
    a = xs[np.maximum(k - 1, 0)]
    b = xs[np.minimum(k + 1, samples - 1)]
    for _ in range(MAX_ZOOMS):
        width = b - a
        grid = (np.outer(width, _STEPS) + a[:, None]).ravel()
        grid[_LAST] = b
        g = np.asarray(fn(grid), dtype=float) * _SIGNS
        g[np.isnan(g)] = np.inf
        k = g.reshape(2, ZOOM_POINTS).argmin(axis=1) + _FIRST
        best = np.minimum(best, g[k])
        a = grid[np.maximum(k - 1, _FIRST)]
        b = grid[np.minimum(k + 1, _LAST)]
        if np.all((b - a <= XATOL) | (b - a >= width)):
            break
    return float(best[0]), float(-best[1])


def scan_spread(l: float, v, params: AssemblyParams, samples: int = 10001) -> float:
    """Spread of ``<r_hat, v>`` over the source segment, seen from ``l * v``.

    ``r_hat`` points from each source point to the receive point; the spread
    is taken by ``scan_extrema`` over the source parameter.
    """
    v = np.asarray(v, dtype=float)
    offset = float(l) * v - np.array([-params.d, 0.0, -params.r * math.cos(params.theta)])

    def g(t):
        diff = offset - np.multiply.outer(t, (0.0, 0.0, 1.0))
        return diff @ v / np.linalg.norm(diff, axis=-1)

    w_lo, w_hi = scan_extrema(g, -0.5 * params.L, 0.5 * params.L, samples)
    return w_hi - w_lo


def axis_draw_errors(
    params: AssemblyParams, pointwise, extrema, k_number, samples: int, points: int
) -> tuple[float, float, float]:
    """Worst errors of the axis closed forms on one assembly.

    ``pointwise`` maps each axis tag to its bandwidth ``w(l, params)``;
    ``extrema(params, direction)`` and ``k_number(params, direction)`` are
    the closed-form extrema and K report under test.  Returns, over e_z,
    e_x and e_y:

    * the largest gap between ``w_max``/``w_min`` and ``scan_extrema`` of
      the pointwise form over the effective interval (``samples`` points);
    * the largest excess of ``k_lower`` over ``k_exact`` or of ``k_exact``
      over ``k_upper`` beyond the report's ``quadrature_abs_err`` + 1e-9,
      which is <= 0 when the sandwich holds;
    * the largest error of the identities ``w_z(z; θ) = w_z(-z; π-θ)``,
      ``w_x(x; θ) = w_x(x; π-θ)``, ``w_y(y) = w_y(-y)`` and
      ``w_y(y; θ) = w_y(y; π-θ)`` on grids of ``points`` positions.  The
      compared values are differences of unit-bounded direction cosines
      and ``π - θ`` is itself rounded, so the error is relative to
      ``max(|w|, 1)``.

    An error that is NaN (a non-finite value under test) is returned as
    inf, so it fails any bound.
    """
    gaps, excesses = [], []
    for tag in ("z", "x", "y"):
        direction = ReceiveDirection(tag)
        summary = extrema(params, direction)
        lo, hi = summary.effective_interval
        s_lo, s_hi = scan_extrema(lambda l: pointwise[tag](l, params), lo, hi, samples)
        gaps += [s_hi - summary.w_max, s_lo - summary.w_min]
        report = k_number(params, direction)
        slack = report.quadrature_abs_err + 1e-9
        excesses += [
            report.k_lower - report.k_exact - slack,
            report.k_exact - report.k_upper - slack,
        ]

    mirrored = AssemblyParams(params.L, params.rho, params.r, math.pi - params.theta)
    w_z, w_x, w_y = pointwise["z"], pointwise["x"], pointwise["y"]
    zs = np.linspace(-params.rho, params.rho, points)
    xs = np.linspace(-min(params.d, params.rho), params.rho, points)
    ys = np.linspace(0.0, params.rho, points)
    wy = np.asarray(w_y(ys, params))
    errors = []
    for w1, w2 in (
        (w_z(zs, params), w_z(-zs, mirrored)),
        (w_x(xs, params), w_x(xs, mirrored)),
        (wy, w_y(-ys, params)),
        (wy, w_y(ys, mirrored)),
    ):
        w1 = np.asarray(w1)
        errors.append(np.abs(w1 - np.asarray(w2)) / np.maximum(np.abs(w1), 1.0))
    return worst_error(np.abs(gaps)), worst_error(excesses), worst_error(np.concatenate(errors))


def worst_error(errors) -> float:
    """Largest of ``errors``; NaN, which ``max`` would pass over, reads as inf."""
    worst = float(np.max(errors))
    return math.inf if math.isnan(worst) else worst


def random_params(rng, v_hat=None) -> AssemblyParams:
    """One random assembly from the sweep ranges (log-uniform lengths)."""
    L = float(np.exp(rng.uniform(np.log(10.0), np.log(1e3))))
    rho = float(np.exp(rng.uniform(np.log(1.0), np.log(1e2))))
    r = float(np.exp(rng.uniform(np.log(10.0), np.log(1e5))))
    theta = float(rng.uniform(0.0, math.pi))
    if v_hat is None:
        return AssemblyParams(L, rho, r, theta)
    return AssemblyParams(L, rho, r, theta, v_hat)
