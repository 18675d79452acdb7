"""Achievable spatial degrees of freedom (the K number) of a LOS link.

The K number is the integral of the local spatial bandwidth over the
direction's effective interval, exact in closed form from path-length
differences (see ``k_number``; ``k_exact`` evaluates it for a whole batch of
links in one array pass).  Alongside it this module provides the
constant-bandwidth upper/lower bounds, the linear mid-point approximation
and the classic parallel-array formula.  Nothing here integrates
numerically; the reference quadrature the checks use lives in ``_oracle``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipeinc, ellipk, ellipkinc

# QuadratureError is unused here; bench/tracing.py reads it on this module.
from ._oracle import QuadratureError  # noqa: F401
from .bandwidth import (  # bandwidth_generic/x/y/z unused; bench/tracing.py patches them here
    BandwidthSummary,
    _frequencies,
    _spread,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    effective_interval,
    extrema,
)
from .geometry import AssemblyParams, ReceiveDirection

__all__ = [
    "FarFieldWarning",
    "KNumberReport",
    "k_number",
    "k_exact",
    "k_bounds",
    "k_linear",
    "k_parallel",
]


class FarFieldWarning(UserWarning):
    """A formula applied outside its validity regime (``k_parallel``)."""


# Fixed Gauss-Legendre nodes at which generic bounds sample each piece.
_NODES = np.polynomial.legendre.leggauss(15)[0]


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
    d, c, L, lo, hi = (
        np.broadcast_to(np.asarray(x, dtype=float), shape) if shape else np.float64(x)
        for x in (d, c, L, lo, hi)
    )
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
                         d[..., None], c[..., None], L[..., None])[0]
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

    Link ``i`` has a source of length ``L[i]`` whose axis lies at distance
    ``d[i]`` from the receive centre, with axial offset ``c[i] = r cos(theta)``
    of the receive centre from the source centre, and a receive array along
    the unit vector ``v[i]`` (the last axis of ``v`` holds the components)
    over ``[lo[i], hi[i]]``; ``d``, ``c``, ``L``, ``lo`` and ``hi`` broadcast
    to the links' shape ``v.shape[:-1]``, and a ``(3,)`` vector gives one
    link and a scalar K.  A link whose receive array runs through a source
    point can come out NaN; the kernel never warns.
    """
    return _kernel(d, c, L, v, lo, hi)[0]


def _piece_edges(params: AssemblyParams, v, lo: float, hi: float) -> np.ndarray:
    """Distinct piece edges of one link's ``[lo, hi]`` (see ``_kernel``)."""
    return np.unique(_kernel(params.d, params.r * math.cos(params.theta), params.L, v, lo, hi)[1])


@dataclass(frozen=True)
class KNumberReport:
    """Exact K number with its constant-bandwidth bounds and linear approximation.

    ``k_lower <= k_exact <= k_upper`` holds (generic bounds are observed
    extremes), and ``k_linear`` is the midpoint of the two bounds.
    """

    k_exact: float
    k_upper: float
    k_lower: float
    k_linear: float
    direction: ReceiveDirection


def k_number(params: AssemblyParams, direction: ReceiveDirection) -> KNumberReport:
    """K number in closed form from path-length differences.

    Integrates the local spatial bandwidth over the direction's effective
    interval (for e_y the half interval already counts only the
    non-redundant freedom), piece by piece.  The frequency toward a source
    end is the derivative of the distance to it, so it integrates to a
    path-length difference (Miller, Appl. Opt. 2000); the stationary one to
    elliptic integrals.  Axis directions fill the bounds and the linear
    approximation from the exact-interval closed forms; generic directions
    use the bandwidth extremes at fixed Gauss-Legendre nodes of each piece,
    skipping a node that lands on a source point.
    """
    lo, hi = effective_interval(params, direction)
    v = direction.unit_vector
    c = params.r * math.cos(params.theta)
    value, edges = _kernel(params.d, c, params.L, v, lo, hi)
    value = float(value)
    if direction.is_axis:
        summary = extrema(params, direction)
        lower, upper = _bounds(summary)
        linear = _linear(summary)
    else:
        edges = np.unique(edges)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = (edges[:-1, None] + half * (1.0 + _NODES)).ravel()
        w = _spread(nodes, direction.v, params.d, c, params.L)[0]
        lower, upper = float(np.nanmin(w)) * (hi - lo), float(np.nanmax(w)) * (hi - lo)
        linear = 0.5 * (lower + upper)
    return KNumberReport(value, upper, lower, linear, direction)


def k_bounds(params: AssemblyParams, direction: ReceiveDirection) -> tuple[float, float]:
    """Constant-bandwidth (lower, upper) bounds on the K number.

    The bandwidth extrema times the direction's effective interval length,
    so the sandwich ``k_lower <= k_exact <= k_upper`` is guaranteed.
    """
    return _bounds(extrema(params, direction))


def _bounds(summary: BandwidthSummary) -> tuple[float, float]:
    lo, hi = summary.effective_interval
    return summary.w_min * (hi - lo), summary.w_max * (hi - lo)


def k_linear(params: AssemblyParams, direction: ReceiveDirection) -> float:
    """Linear (midpoint) approximation of the K number.

    The bandwidth profile is approximated by a linear ramp between its
    extrema over the effective interval, which integrates to the midpoint
    formula ``(w_min + w_max)/2 * |I|``.
    """
    return _linear(extrema(params, direction))


def _linear(summary: BandwidthSummary) -> float:
    lo, hi = summary.effective_interval
    return 0.5 * (summary.w_min + summary.w_max) * (hi - lo)


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
