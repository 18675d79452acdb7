"""Achievable spatial degrees of freedom (the K number) of a LOS link.

The K number is the integral of the local spatial bandwidth over the
direction's effective interval, exact in closed form from path-length
differences (see ``k_number``; ``k_exact`` evaluates it for a whole batch of
links in one array pass).  Alongside it this module provides the
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
    "k_exact",
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


def _stationary_integral(d, v, a, b):
    # g* = sign(alpha)*sqrt((alpha**2 + q**2 v_z**2)/(alpha**2 + q**2)), alpha = s*l + d*v_x,
    # q = d*|v_y|.  Its antiderivative in |alpha| is q*F(|alpha|/q), F(x) the integral of
    # sqrt((t**2 + v_z**2)/(t**2 + 1)) over [0, x]: Legendre's forms, m = 1 - v_z**2.
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    s = vx * vx + vy * vy
    q = d * np.abs(vy)
    alpha = np.abs(s * np.stack([a, b]) + d * vx)
    m = 1.0 - vz * vz
    psi = np.arctan2(q, alpha)
    tail = vz * vz * (ellipk(m) - ellipkinc(psi, m)) - (ellipe(m) - ellipeinc(psi, m))
    G = np.where(q == 0.0, alpha, np.where(
        m == 1.0, alpha * alpha / (np.hypot(alpha, q) + q),
        q * tail + alpha * np.hypot(alpha, vz * q) / np.hypot(alpha, q)))
    return (G[1] - G[0]) / s


def _kernel(d, c, L, v, lo, hi):
    """``(K, piece edges)`` of a batch of links; see ``k_exact``.

    Each link's ``[lo, hi]`` is cut into pieces on which the maximum and
    minimum of ``g_lo``, ``g_hi`` and ``g*`` keep their candidates.  They
    switch only where ``u*`` crosses a source end, where ``g_lo = g_hi``, or
    where an end lies on the array (``l = -k``); roots that squaring adds
    only split a piece.  Points outside ``(lo, hi)`` become ``hi``, so every
    link has 8 edges and some zero-length pieces, which add 0.
    """
    v = np.asarray(v, dtype=float)
    shape = v.shape[:-1]
    # One link's arguments become numpy scalars, whose arithmetic is cheaper than 0-d arrays'.
    d, c, lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), shape) if shape else np.float64(x)
                    for x in (d, c, lo, hi))
    L = float(L)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    # Leading axis: the two source ends, at axial offsets u0.  With
    # k = d*v_x + v_z*u0 and c2 = d**2 + u0**2 the distance from l*v to an end
    # is D(l) = sqrt(l**2 + 2*k*l + c2).
    u0 = np.array([c - 0.5 * L, c + 0.5 * L])
    k = d * vx + vz * u0
    c2 = d * d + u0 * u0
    (k0, k1), (c0, c1) = k, c2
    with np.errstate(all="ignore"):
        # u* crosses the end u0: l*(v_z*d*v_x - s*u0) + d*(v_z*d - v_x*u0) = 0.
        crossings = -d * (vz * d - vx * u0) / (vz * d * vx - (vx * vx + vy * vy) * u0)
        # g_lo**2 = g_hi**2: (l + k0)**2 D1**2 = (l + k1)**2 D0**2, whose quartic
        # and cubic terms cancel; all three coefficients vanish at broadside.
        qa = c1 - c0 + k0 * k0 - k1 * k1
        qb = 2.0 * (k0 * c1 - k1 * c0 + k0 * k1 * (k0 - k1))
        qc = k0 * k0 * c1 - k1 * k1 * c0
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        points = np.moveaxis(np.concatenate([crossings, np.array([q / qa, qc / q]), -k]), 0, -1)
    lo, hi = lo[..., None], hi[..., None]
    points = np.where((points > lo) & (points < hi), points, hi)
    edges = np.concatenate([lo, np.sort(points, axis=-1), hi], axis=-1)

    a, b = edges[..., :-1], edges[..., 1:]
    width, mid2 = b - a, a + b
    live = width > 0.0
    k, c2 = k[..., None], c2[..., None]
    with np.errstate(all="ignore"):
        # g_end = dD/dl integrates to D(b) - D(a), written without cancellation.
        dist = np.sqrt(edges * edges + 2.0 * k * edges + c2)
        ends = width * (mid2 + 2.0 * k) / (dist[..., :-1] + dist[..., 1:])
        g = _frequencies(0.5 * mid2, (vx[..., None], vy[..., None], vz[..., None]),
                         d[..., None], c[..., None], L)[0]
        # argmax/argmin take the first of equal candidates, so a tie picks an end.
        candidates = np.array(g)
        top, bottom = candidates.argmax(axis=0), candidates.argmin(axis=0)
        terms = [ends[0], ends[1], np.zeros_like(a)]
        pick = np.nonzero(live & ((top == 2) | (bottom == 2)))
        if pick[0].size:
            link = pick[:-1]
            terms[2][pick] = _stationary_integral(d[link], v[link], a[pick], b[pick])
    spread = np.choose(top, terms) - np.choose(bottom, terms)
    return np.where(live, spread, 0.0).sum(axis=-1), edges


def k_exact(d, c, L, v, lo, hi):
    """Exact K numbers of a batch of links in one array pass.

    Link ``i`` has a source of length ``L`` whose axis lies at distance
    ``d[i]`` from the receive centre, with axial offset ``c[i] = r cos(theta)``
    of the receive centre from the source centre, and a receive array along
    the unit vector ``v[i]`` (the last axis of ``v`` holds the components)
    over ``[lo[i], hi[i]]``; the other arguments broadcast to the links'
    shape ``v.shape[:-1]``, and a ``(3,)`` vector gives one link and a
    scalar K.  A link whose receive array runs through a source point can
    come out NaN; the kernel never warns.
    """
    return _kernel(d, c, L, v, lo, hi)[0]


def _piece_edges(params: AssemblyParams, v, lo: float, hi: float) -> np.ndarray:
    """Distinct piece edges of one link's ``[lo, hi]`` (see ``_kernel``)."""
    return np.unique(_kernel(params.d, params.r * math.cos(params.theta), params.L, v, lo, hi)[1])


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
    v = direction.unit_vector
    value, edges = _kernel(params.d, params.r * math.cos(params.theta), params.L, v, lo, hi)
    value = float(value)
    if direction.is_axis:
        lower, upper = k_bounds(params, direction)
        linear = k_linear(params, direction)
    else:
        _warn_near_field(params)
        edges = np.unique(edges)
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
