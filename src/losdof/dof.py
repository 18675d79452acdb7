"""Achievable spatial degrees of freedom (the K number) of a LOS link.

The K number is the integral of the local spatial bandwidth over the
direction's effective interval, exact in closed form from path-length
differences (see ``k_number``).  Alongside it this module provides the
constant-bandwidth upper/lower bounds, the linear mid-point approximation,
the classic parallel-array formula, and ``adaptive_gauss``, a reference
quadrature for checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipeinc, ellipk, ellipkinc

from .bandwidth import (  # bandwidth_x/y/z unused; bench/tracing.py patches them here
    FarFieldWarning,
    _frequencies,
    _warn_near_field,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    effective_interval,
    extrema,
)
from .geometry import AssemblyParams, ReceiveDirection

__all__ = [
    "KNumberReport",
    "QuadratureError",
    "k_number",
    "k_bounds",
    "k_linear",
    "k_parallel",
    "adaptive_gauss",
]


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


def _source_ends(params: AssemblyParams, v):
    # Axial offsets u0 of the source ends and k = d*v_x + v_z*u0: the distance
    # from l*v to an end is D(l) = sqrt(l**2 + 2*k*l + d**2 + u0**2).
    c = params.r * math.cos(params.theta)
    u0 = np.array([c - 0.5 * params.L, c + 0.5 * params.L])
    return u0, params.d * v[0] + v[2] * u0


def _piece_edges(params: AssemblyParams, v, lo: float, hi: float) -> np.ndarray:
    """Edges of the pieces of ``[lo, hi]`` on which the spread keeps its candidates.

    The maximum and minimum of ``g_lo``, ``g_hi`` and ``g*`` switch only where
    ``u*`` crosses a source end, where ``g_lo = g_hi``, or where an end lies
    on the array (``l = -k``).  Roots that squaring adds only split a piece.
    """
    vx, vy, vz = v
    d = params.d
    u0, k = _source_ends(params, v)
    # u* crosses the end u0: l*(v_z*d*v_x - s*u0) + d*(v_z*d - v_x*u0) = 0.
    with np.errstate(all="ignore"):
        crossings = -d * (vz * d - vx * u0) / (vz * d * vx - (vx * vx + vy * vy) * u0)
    # g_lo**2 = g_hi**2: (l + k_lo)**2 D_hi**2 = (l + k_hi)**2 D_lo**2.
    square = [np.array([1.0, 2.0 * ki, ki * ki]) for ki in k]
    dist2 = [np.array([1.0, 2.0 * ki, d * d + ui * ui]) for ki, ui in zip(k, u0)]
    roots = np.roots(np.convolve(square[0], dist2[1]) - np.convolve(square[1], dist2[0]))
    points = np.concatenate([crossings, roots[np.isreal(roots)].real, -k])
    return np.unique(np.concatenate([[lo], points[(points > lo) & (points < hi)], [hi]]))


def _stationary_integral(params: AssemblyParams, v, a, b):
    # g* = sign(alpha)*sqrt((alpha**2 + q**2 v_z**2)/(alpha**2 + q**2)), alpha = s*l + d*v_x,
    # q = d*|v_y|.  Its antiderivative in |alpha| is q*F(|alpha|/q), F(x) the integral of
    # sqrt((t**2 + v_z**2)/(t**2 + 1)) over [0, x]: Legendre's forms, m = 1 - v_z**2.
    vx, vy, vz = v
    s = vx * vx + vy * vy
    d = params.d
    q = d * abs(vy)
    alpha = np.abs(s * np.stack([a, b]) + d * vx)
    m = 1.0 - vz * vz
    if q == 0.0:
        G = alpha
    elif m == 1.0:
        G = alpha * alpha / (np.hypot(alpha, q) + q)
    else:
        psi = np.arctan2(q, alpha)
        tail = vz * vz * (ellipk(m) - ellipkinc(psi, m)) - (ellipe(m) - ellipeinc(psi, m))
        G = q * tail + alpha * np.hypot(alpha, vz * q) / np.hypot(alpha, q)
    return (G[1] - G[0]) / s


def _exact_k(params: AssemblyParams, v, edges: np.ndarray) -> float:
    """Integral of the spread: max minus min candidate, read at each piece's midpoint."""
    a, b = edges[:-1], edges[1:]
    u0, k = _source_ends(params, v)
    k, c2 = k[:, None], (params.d ** 2 + u0 * u0)[:, None]
    # g_end = dD/dl integrates to D(b) - D(a), written without cancellation.
    terms = (b - a) * (a + b + 2.0 * k) / (np.sqrt(a * a + 2.0 * k * a + c2)
                                           + np.sqrt(b * b + 2.0 * k * b + c2))
    # argmax/argmin take the first of equal candidates, so a tie picks an end.
    candidates = np.stack(_frequencies(0.5 * (a + b), v, params)[0])
    top, bottom = candidates.argmax(axis=0), candidates.argmin(axis=0)
    if 2 in top or 2 in bottom:
        terms = np.vstack([terms, _stationary_integral(params, v, a, b)])
    pieces = np.arange(a.size)
    return float(np.sum(terms[top, pieces] - terms[bottom, pieces]))


@dataclass(frozen=True)
class KNumberReport:
    """Exact K number with its constant-bandwidth bounds and linear approximation.

    ``k_lower <= k_exact <= k_upper`` holds (generic bounds are observed
    extremes), and ``k_linear`` is the midpoint of the two bounds when all
    three use the same interval.  ``quadrature_abs_err`` is always ``0.0``
    (``k_exact`` is a closed form); it stays for readers of the JSON report.
    """

    k_exact: float
    k_upper: float
    k_lower: float
    k_linear: float
    direction: ReceiveDirection
    quadrature_abs_err: float


def k_number(params: AssemblyParams, direction: ReceiveDirection) -> KNumberReport:
    """K number in closed form from path-length differences.

    Integrates the local spatial bandwidth over the direction's effective
    interval (for e_y the half interval already counts only the
    non-redundant freedom), piece by piece.  The frequency toward a source
    end is the derivative of the distance to it, so it integrates to a
    path-length difference (Miller, Appl. Opt. 2000); the stationary one to
    elliptic integrals.  Axis directions fill the bounds and the linear
    approximation from the exact-interval closed forms; generic directions
    use the bandwidth extremes at fixed Gauss-Legendre nodes of each piece.
    """
    lo, hi = effective_interval(params, direction)
    v = tuple(float(c) for c in direction.unit_vector)
    edges = _piece_edges(params, v, lo, hi)
    value = _exact_k(params, v, edges)
    if direction.is_axis:
        lower, upper = k_bounds(params, direction)
        linear = k_linear(params, direction)
    else:
        _warn_near_field(params)
        half = 0.5 * np.diff(edges)[:, None]
        w = bandwidth_generic((edges[:-1, None] + half * (1.0 + _NODES)).ravel(), v, params)
        lower, upper = float(w.min()) * (hi - lo), float(w.max()) * (hi - lo)
        linear = 0.5 * (lower + upper)
    return KNumberReport(value, upper, lower, linear, direction, 0.0)


def k_bounds(
    params: AssemblyParams,
    direction: ReceiveDirection,
    interval: str = "exact",
) -> tuple[float, float]:
    """Constant-bandwidth (lower, upper) bounds on the K number.

    ``interval="exact"`` uses the direction's effective interval length, so
    the sandwich ``k_lower <= k_exact <= k_upper`` is guaranteed.
    ``interval="simplified"`` applies the full-array length ``2*rho`` for
    the e_x direction as well (the convention the region-boundary equations
    adopt); it keeps the upper bound valid but can overshoot the lower one
    when ``d < rho``.
    """
    summary = extrema(params, direction)
    length = _interval_length(params, direction, interval, summary)
    return summary.w_min * length, summary.w_max * length


def k_linear(
    params: AssemblyParams,
    direction: ReceiveDirection,
    interval: str = "exact",
) -> float:
    """Linear (midpoint) approximation of the K number.

    The bandwidth profile is approximated by a linear ramp between its
    extrema over the effective interval, which integrates to the midpoint
    formula ``(w_min + w_max)/2 * |I|``.  See ``k_bounds`` for the
    ``interval`` convention.
    """
    summary = extrema(params, direction)
    length = _interval_length(params, direction, interval, summary)
    return 0.5 * (summary.w_min + summary.w_max) * length


def _interval_length(params, direction, interval, summary) -> float:
    if interval not in ("exact", "simplified"):
        raise ValueError(f"interval must be 'exact' or 'simplified', got {interval!r}")
    if interval == "simplified" and direction.tag == "x":
        return 2.0 * params.rho
    lo, hi = summary.effective_interval
    return hi - lo


def k_parallel(source_length: float, receive_length: float, distance: float) -> float:
    """Classic K number of two parallel arrays facing each other at distance ``D``.

    ``L_s * L_r / D`` in wavelength units.  The formula presumes the
    distance dominates both array lengths; a validity warning is emitted
    below ten times the larger length.
    """
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    if distance < 10.0 * max(source_length, receive_length):
        warnings.warn(
            "parallel-array formula applied outside its validity regime "
            f"(D = {distance:g} < 10 * max array length)",
            FarFieldWarning,
            stacklevel=2,
        )
    return source_length * receive_length / distance
