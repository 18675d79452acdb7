"""Brute-force oracles shared by ``losdof verify`` and the test suite.

They work from the definitions, not from the closed forms they check:
extrema come from a dense scan plus zooming-grid refinement, the generic
bandwidth from a scan of the spatial frequency over the source segment, and
reference integrals from ``adaptive_gauss``, an adaptive Gauss-Legendre
quadrature.  ``axis_draw_errors`` checks the axis closed forms and
``generic_draw_errors`` the generic one, on all assemblies of a batch
together (``verify`` and acceptance criterion 8 share them); they take the
closed forms as arguments, so this module never imports them.  The axis
sandwich checks the bounds the library reports, from the same array pass
that gives ``k_number``.  Every scan runs over all rows of a batch at once:
the dense scan in blocks of whole rows capped at ``SCAN_BLOCK`` points per
call, then one call per zoom for every bracket still open.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import AssemblyParams

#: points per bracket and zoom; the bracket shrinks ~32-fold per zoom
ZOOM_POINTS = 65
#: bracket width at which refinement stops
XATOL = 1e-12
#: zoom cap, for brackets that stop shrinking above XATOL
MAX_ZOOMS = 60

#: points per ``fn`` call of the dense scan, which takes whole rows; it bounds
#: the size of the scan's temporaries
SCAN_BLOCK = 2 ** 14

_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)
_SIGNS = np.array([[1.0], [-1.0]])  # the argmin bracket minimises fn, the argmax one -fn
#: e_z, e_x and e_y as unit vectors
_UNIT = {"z": (0.0, 0.0, 1.0), "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}
_AXIS = np.array(_UNIT["z"])


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


def scan_extrema(fn, lo, hi, samples: int = 10001, args=()):
    """Per-row (min, max) of ``fn`` on ``[lo, hi]``: dense scan plus zooming-grid refinement.

    ``lo`` and ``hi`` are scalars, for one row and a pair of floats back, or
    1-D arrays of rows, for a pair of arrays back.  ``fn(x, *a)`` maps a
    ``(rows, points)`` block of abscissae to values; each ``a`` holds the
    block's entries of one ``args`` array (indexed by row), with an axis
    inserted after the first so that it broadcasts against ``x``.

    The dense scan takes ``samples >= 2`` points per row, as
    ``np.linspace``, in blocks of whole rows of at most ``SCAN_BLOCK``
    points per ``fn`` call (a longer row goes alone).  Each row's argmin
    and argmax are bracketed by their neighbouring samples; every zoom
    evaluates ``ZOOM_POINTS`` points per bracket, all brackets of all open
    rows in one ``fn`` call, and shrinks each bracket to the neighbours of
    its best point.  A row stops once both its brackets are at most
    ``XATOL`` wide or no longer shrink at float resolution, or after
    ``MAX_ZOOMS`` zooms.  The result is the best value seen.  A NaN among
    the zoom points is never taken as best, so the result then falls back
    to the scan; a NaN at the scan's argmin or argmax is returned as is.
    """
    lo_rows, hi_rows = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                           np.atleast_1d(np.asarray(hi, dtype=float)))
    args = [np.asarray(arg) for arg in args]
    rows = lo_rows.size
    best, a, b = np.empty((3, rows, 2))
    per_call = max(1, SCAN_BLOCK // samples)
    for start in range(0, rows, per_call):
        block = slice(start, start + per_call)
        xs = _linspace(lo_rows[block], hi_rows[block], samples)
        vals = np.asarray(fn(xs, *_take(args, block)), dtype=float)
        k = np.stack([vals.argmin(axis=1), vals.argmax(axis=1)], axis=1)
        best[block] = np.take_along_axis(vals, k, 1) * (1.0, -1.0)  # minimise fn and -fn
        a[block] = np.take_along_axis(xs, np.maximum(k - 1, 0), 1)
        b[block] = np.take_along_axis(xs, np.minimum(k + 1, samples - 1), 1)
    open_rows = np.arange(rows)
    for _ in range(MAX_ZOOMS):
        if not open_rows.size:
            break
        a_open, b_open = a[open_rows], b[open_rows]
        width = b_open - a_open
        grid = width[..., None] * _STEPS + a_open[..., None]
        grid[..., -1] = b_open
        g = fn(grid.reshape(open_rows.size, 2 * ZOOM_POINTS), *_take(args, open_rows))
        g = np.asarray(g, dtype=float).reshape(grid.shape) * _SIGNS
        g[np.isnan(g)] = np.inf
        k = g.argmin(axis=2)[..., None]
        best[open_rows] = np.minimum(best[open_rows], np.take_along_axis(g, k, 2)[..., 0])
        a_open = np.take_along_axis(grid, np.maximum(k - 1, 0), 2)[..., 0]
        b_open = np.take_along_axis(grid, np.minimum(k + 1, ZOOM_POINTS - 1), 2)[..., 0]
        a[open_rows], b[open_rows] = a_open, b_open
        stopped = (b_open - a_open <= XATOL) | (b_open - a_open >= width)
        open_rows = open_rows[~stopped.all(axis=1)]
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        return float(best[0, 0]), float(-best[0, 1])
    return best[:, 0], -best[:, 1]


def _linspace(lo, hi, n: int):
    """``np.linspace(lo[i], hi[i], n)`` in row ``i``, bit for bit.

    ``np.linspace`` over array ends changes its arithmetic for every row
    when one row's step underflows to zero; here only that row does.
    """
    delta = (hi - lo)[:, None]
    steps = np.arange(n, dtype=float)
    step = delta / (n - 1)
    grid = steps * step + lo[:, None]
    tiny = step[:, 0] == 0.0
    grid[tiny] = steps / (n - 1) * delta[tiny] + lo[tiny, None]
    grid[:, -1] = hi
    return grid


def _take(args, rows):
    """The entries ``rows`` of each array in ``args``, as columns against a block."""
    return [arg[rows, None] for arg in args]


def _links(draws):
    """``(d, c, L)`` arrays of a sequence of assemblies, ``c = r cos(theta)``.

    Per assembly from ``AssemblyParams.d`` and ``.c``, as the one-assembly
    closed forms take them.
    """
    return (np.array([p.d for p in draws]), np.array([p.c for p in draws]),
            np.array([p.L for p in draws]))


def scan_spread(l, v, params, samples: int = 10001):
    """Spread of ``<r_hat, v>`` over the source segment, seen from ``l * v``.

    ``r_hat`` points from each source point to the receive point; the spread
    is taken by ``scan_extrema`` over the source parameter.  ``params`` is
    one ``AssemblyParams``, with a scalar ``l``, a ``(3,)`` ``v`` and a float
    back, or a sequence of them, with ``l`` and ``v`` one row per assembly
    (or broadcast) and an array back.
    """
    one = isinstance(params, AssemblyParams)
    draws = [params] if one else params
    d, c, L = _links(draws)
    v = np.broadcast_to(np.asarray(v, dtype=float), (len(draws), 3))
    l = np.broadcast_to(np.asarray(l, dtype=float), (len(draws),))
    offset = l[:, None] * v - np.stack([-d, np.zeros_like(d), -c], axis=1)

    def g(t, offset, v):
        diff = offset - t[..., None] * _AXIS
        return (diff @ np.swapaxes(v, -1, -2))[..., 0] / np.linalg.norm(diff, axis=-1)

    w_lo, w_hi = scan_extrema(g, -0.5 * L, 0.5 * L, samples, args=(offset, v))
    spread = w_hi - w_lo
    return float(spread[0]) if one else spread


def axis_draw_errors(draws, pointwise, axis_extrema, reports, samples: int, points: int):
    """Worst errors of the axis closed forms on each of a sequence of assemblies.

    The closed forms under test are arguments: ``pointwise[tag](l, d, c, L)``
    is the bandwidth of axis ``tag`` at ``l`` on links ``(d, c = r cos θ,
    L)``, broadcasting; ``axis_extrema(tag, theta, L, rho, r)`` gives
    ``(w_max, w_min, argmax)`` over arrays of assemblies; and
    ``reports(tag, L, rho, r, theta, v)`` the ``(k_exact, k_lower, k_upper,
    k_linear)`` that a batch of links reports, as ``dof._reports``.
    Returns three arrays, one entry per assembly, each the worst over e_z,
    e_x and e_y of:

    * the gap between ``w_max``/``w_min`` and ``scan_extrema`` of the
      pointwise form over the effective interval (``samples`` points);
    * the excess of the reported ``k_lower`` over ``k_exact`` or of
      ``k_exact`` over ``k_upper`` beyond a slack of 1e-9, which is <= 0
      when the sandwich holds;
    * the error of the identities ``w_z(z; θ) = w_z(-z; π-θ)``,
      ``w_x(x; θ) = w_x(x; π-θ)``, ``w_y(y) = w_y(-y)`` and
      ``w_y(y; θ) = w_y(y; π-θ)`` on grids of ``points`` positions.  The
      compared values are differences of unit-bounded direction cosines
      and ``π - θ`` is itself rounded, so the error is relative to
      ``max(|w|, 1)``.

    An error that is NaN (a non-finite value under test) is returned as
    inf, so it fails any bound.
    """
    links = d, _, L = _links(draws)
    rho, r, theta = (np.array([getattr(p, name) for p in draws]) for name in ("rho", "r", "theta"))
    # The effective intervals: the whole array, [-min(d, rho), rho] and the half [0, rho].
    intervals = {"z": (-rho, rho), "x": (-np.minimum(d, rho), rho), "y": (np.zeros_like(rho), rho)}
    gaps, excesses = [], []
    for tag, (lo, hi) in intervals.items():
        w_max, w_min, _ = axis_extrema(tag, theta, L, rho, r)
        s_lo, s_hi = scan_extrema(pointwise[tag], lo, hi, samples, args=links)
        gaps += [s_hi - w_max, s_lo - w_min]
        v = np.broadcast_to(_UNIT[tag], (len(draws), 3))
        k, k_lower, k_upper, _ = reports(tag, L, rho, r, theta, v)
        excesses += [k_lower - k - 1e-9, k - k_upper - 1e-9]

    mirrored = [AssemblyParams(p.L, p.rho, p.r, math.pi - p.theta) for p in draws]
    mirrored = [x[:, None] for x in _links(mirrored)]
    links = [x[:, None] for x in links]
    w_z, w_x, w_y = pointwise["z"], pointwise["x"], pointwise["y"]
    zs = _linspace(-rho, rho, points)
    xs = _linspace(-np.minimum(d, rho), rho, points)
    ys = _linspace(np.zeros_like(rho), rho, points)
    wy = w_y(ys, *links)
    errors = []
    for w1, w2 in (
        (w_z(zs, *links), w_z(-zs, *mirrored)),
        (w_x(xs, *links), w_x(xs, *mirrored)),
        (wy, w_y(-ys, *links)),
        (wy, w_y(ys, *mirrored)),
    ):
        errors.append(np.abs(w1 - w2) / np.maximum(np.abs(w1), 1.0))
    return (worst_error(np.abs(gaps), axis=0), worst_error(excesses, axis=0),
            worst_error(np.concatenate(errors, axis=1), axis=1))


def generic_draw_errors(draws, l, v, pointwise, spread, samples: int):
    """Worst error of the generic bandwidth on each of a sequence of assemblies.

    ``spread(l, v, d, c, L)`` is the generic closed form under test (``v``
    by components; it returns the spread first), and ``pointwise`` the axis
    forms as for ``axis_draw_errors``.  Assembly ``i`` is probed at
    ``l[i]``: along each axis, against the axis form, and along ``v[i]``,
    against ``scan_spread`` (``samples`` points).  NaN reads as inf.
    """
    links = _links(draws)
    l = np.asarray(l, dtype=float)
    errors = [np.abs(spread(l, _UNIT[tag], *links)[0] - pointwise[tag](l, *links))
              for tag in ("z", "x", "y")]
    v = np.asarray(v, dtype=float)
    errors.append(np.abs(scan_spread(l, v, draws, samples) - spread(l, v.T, *links)[0]))
    return worst_error(errors, axis=0)


def worst_error(errors, axis=None):
    """Largest of ``errors`` (along ``axis``); NaN, which ``max`` would pass over, reads as inf."""
    worst = np.max(errors, axis=axis)
    if axis is None:
        worst = float(worst)
        return math.inf if math.isnan(worst) else worst
    return np.where(np.isnan(worst), np.inf, worst)


def random_params(rng) -> AssemblyParams:
    """One random assembly from the sweep ranges (log-uniform lengths)."""
    L = float(np.exp(rng.uniform(np.log(10.0), np.log(1e3))))
    rho = float(np.exp(rng.uniform(np.log(1.0), np.log(1e2))))
    r = float(np.exp(rng.uniform(np.log(10.0), np.log(1e5))))
    theta = float(rng.uniform(0.0, math.pi))
    return AssemblyParams(L, rho, r, theta)
