"""Achievable spatial degrees of freedom (the K number) of a LOS link.

The K number is the integral of the local spatial bandwidth over the
direction's effective interval, exact in closed form from path-length
differences (see ``k_number``; ``k_exact`` evaluates it for a whole batch of
links in one array pass).  Alongside it come the constant-bandwidth
lower/upper bounds and the linear mid-point approximation, for any receive
direction; one array pass over a batch of links gives all of them, and
``k_number``, ``k_bounds`` and ``k_linear`` are its one-link calls.  Also the
classic parallel-array formula.  Nothing here integrates numerically; the
reference quadrature the checks use lives in ``_oracle``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipeinc, ellipk, ellipkinc

# QuadratureError is unused here; bench/tracing.py reads it on this module.
from ._oracle import QuadratureError  # noqa: F401
# bandwidth_generic/x/y/z and extrema are unused here; bench/tracing.py patches them.
from .bandwidth import (
    _axis_extrema,
    _frequencies,
    _interval,
    _spread,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    extrema,
)
from .geometry import AssemblyParams, ReceiveDirection, _positive

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
    return np.unique(_kernel(params.d, params.c, params.L, v, lo, hi)[1])


def _reports(tag: str, d, c, L, rho, v):
    """``(K, k_lower, k_upper, k_linear)`` of a batch of links in one array pass.

    Links ``(d, c, L)`` as for ``k_exact`` and receive half-lengths ``rho``
    broadcast to the shape ``v.shape[:-1]`` of the receive directions ``v``
    (components on the last axis), all of direction ``tag``; a ``(3,)``
    vector gives one link and scalars.  Over the effective interval ``I``
    the bounds are ``w_min*|I|`` and ``w_max*|I|`` and ``k_linear`` is
    ``(w_min + w_max)/2 * |I|``.  Axis links take ``w_max``/``w_min`` from
    ``_axis_extrema``, generic links from ``_spread`` at the Gauss-Legendre
    nodes of every piece of ``_kernel``.  Unchecked: an indeterminate
    extreme gives NaN bounds.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = _interval(tag, d, rho)
    value, edges = _kernel(d, c, L, v, lo, hi)
    if tag == "generic":
        a, b = edges[..., :-1, None], edges[..., 1:, None]
        nodes = a + 0.5 * (b - a) * (1.0 + _NODES)
        w = _spread(nodes, np.moveaxis(v, -1, 0)[..., None, None],
                    *(np.asarray(x)[..., None, None] for x in (d, c, L)))[0]
        # zero-length pieces take no nodes; fmin/fmax pass over their NaN
        w = np.where(b > a, w, np.nan)
        w_max, w_min = np.fmax.reduce(w, axis=(-2, -1)), np.fmin.reduce(w, axis=(-2, -1))
    else:
        w_max, w_min, _ = _axis_extrema(tag, d, c, L, rho)
    span = hi - lo
    return value, w_min * span, w_max * span, 0.5 * (w_min + w_max) * span


@dataclass(frozen=True)
class KNumberReport:
    """Exact K number with its constant-bandwidth bounds and linear approximation.

    ``k_lower = w_min*|I|`` and ``k_upper = w_max*|I|`` over the effective
    interval ``I``, and ``k_linear = (w_min + w_max)/2 * |I|``.  The sandwich
    ``k_lower <= k_exact <= k_upper`` is guaranteed for axis directions;
    generic bounds are observed extremes at Gauss-Legendre nodes.
    """

    k_exact: float
    k_upper: float
    k_lower: float
    k_linear: float
    direction: ReceiveDirection


def k_number(params: AssemblyParams, direction: ReceiveDirection) -> KNumberReport:
    """K number in closed form from path-length differences, with its bounds.

    Integrates the local spatial bandwidth over the direction's effective
    interval (for e_y the half interval already counts only the
    non-redundant freedom), piece by piece.  The frequency toward a source
    end is the derivative of the distance to it, so it integrates to a
    path-length difference (Miller, Appl. Opt. 2000); the stationary one to
    elliptic integrals.  Axis directions fill the bounds and the linear
    approximation from the closed-form extrema; generic directions use the
    bandwidth extremes at fixed Gauss-Legendre nodes of each piece,
    skipping a node that lands on a source point.  A link whose bandwidth
    extremes are indeterminate (a receive-array end on a source end) is
    rejected.
    """
    value, lower, upper, linear = (float(x) for x in _reports(
        direction.tag, params.d, params.c, params.L, params.rho, direction.unit_vector))
    if math.isnan(upper - lower):
        raise ValueError("indeterminate bandwidth: a receive-array end coincides with a source end")
    return KNumberReport(value, upper, lower, linear, direction)


def k_bounds(params: AssemblyParams, direction: ReceiveDirection) -> tuple[float, float]:
    """Constant-bandwidth (lower, upper) bounds on the K number.

    The bandwidth extrema times the direction's effective interval length,
    as ``k_number`` reports them.  For axis directions the sandwich
    ``k_lower <= k_exact <= k_upper`` is guaranteed; generic bounds are the
    observed extremes at Gauss-Legendre nodes of each piece.
    """
    report = k_number(params, direction)
    return report.k_lower, report.k_upper


def k_linear(params: AssemblyParams, direction: ReceiveDirection) -> float:
    """Linear (midpoint) approximation of the K number, as ``k_number`` reports it.

    The bandwidth profile is approximated by a linear ramp between its
    extrema over the effective interval, which integrates to the midpoint
    formula ``(w_min + w_max)/2 * |I|``.
    """
    return k_number(params, direction).k_linear


def k_parallel(source_length: float, receive_length: float, distance: float) -> float:
    """Classic K number of two parallel arrays facing each other at distance ``D``.

    ``L_s * L_r / D`` in wavelength units.  The formula presumes the
    distance dominates both array lengths; a validity warning is emitted
    below ten times the larger length.
    """
    distance = _positive("distance", distance)
    if distance < 10.0 * max(source_length, receive_length):
        warnings.warn(
            "parallel-array formula applied outside its validity regime "
            f"(D = {distance:g} < 10 * max array length)",
            FarFieldWarning,
            stacklevel=2,
        )
    return source_length * receive_length / distance
