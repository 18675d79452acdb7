"""Brute-force oracles shared by ``losdof verify`` and the test suite.

They work from the definitions, not from the closed forms they check:
extrema come from a dense scan plus zooming-grid refinement, the generic
bandwidth from a scan of the spatial frequency over the source segment, and
reference integrals from ``adaptive_gauss``, an adaptive Gauss-Legendre
quadrature.  ``axis_draw_errors`` is the per-assembly check of the axis
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


class QuadratureError(RuntimeError):
    """Adaptive refinement hit its depth limit before reaching tolerance."""

    def __init__(self, message: str, partial: float, abs_err: float):
        super().__init__(message)
        self.partial = partial
        self.abs_err = abs_err


# Fixed-order Gauss-Legendre rule applied per panel.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gauss_panel(fn, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * sum(w * fn(mid + half * x) for x, w in zip(_NODES, _WEIGHTS))


def adaptive_gauss(
    fn,
    lo: float,
    hi: float,
    tol: float = 1e-8,
    max_depth: int = 30,
    breakpoints: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Integrate ``fn`` over ``[lo, hi]`` to absolute tolerance ``tol``.

    Panels are bisected adaptively with a fixed-order Gauss rule; known
    interior breakpoints seed the initial panel edges so sharp features do
    not straddle a panel.  Returns ``(value, error_estimate)``.

    Raises
    ------
    QuadratureError
        If a panel still fails its budget after ``max_depth`` bisection
        levels; the exception carries the partial estimate.
    """
    if hi <= lo:
        return 0.0, 0.0
    edges = [lo] + sorted(p for p in set(breakpoints) if lo < p < hi) + [hi]
    span = hi - lo
    # (lo, hi, coarse estimate, tolerance budget, depth)
    stack = [
        (a, b, _gauss_panel(fn, a, b), tol * (b - a) / span, 0)
        for a, b in zip(edges, edges[1:])
    ]
    total = 0.0
    err_total = 0.0
    while stack:
        a, b, coarse, budget, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _gauss_panel(fn, a, mid)
        right = _gauss_panel(fn, mid, b)
        refined = left + right
        err = abs(refined - coarse)
        if err <= budget or err <= 1e-16 * abs(refined):
            total += refined
            err_total += err
            continue
        if depth >= max_depth:
            partial = total + refined + sum(p[2] for p in stack)
            raise QuadratureError(
                f"quadrature failed to converge within {max_depth} refinement levels",
                partial=partial,
                abs_err=err_total + err,
            )
        stack.append((a, mid, left, 0.5 * budget, depth + 1))
        stack.append((mid, b, right, 0.5 * budget, depth + 1))
    return total, err_total


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
      over ``k_upper`` beyond a slack of 1e-9, which is <= 0 when the
      sandwich holds;
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
        excesses += [
            report.k_lower - report.k_exact - 1e-9,
            report.k_exact - report.k_upper - 1e-9,
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


def random_params(rng) -> AssemblyParams:
    """One random assembly from the sweep ranges (log-uniform lengths)."""
    L = float(np.exp(rng.uniform(np.log(10.0), np.log(1e3))))
    rho = float(np.exp(rng.uniform(np.log(1.0), np.log(1e2))))
    r = float(np.exp(rng.uniform(np.log(10.0), np.log(1e5))))
    theta = float(rng.uniform(0.0, math.pi))
    return AssemblyParams(L, rho, r, theta)
