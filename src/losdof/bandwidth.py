"""Local spatial bandwidth along the receive array.

The local spatial bandwidth at a receive point is the spread (max - min), in
cycles per wavelength, of the spatial frequencies ``<r_hat, v_hat>`` of the
wave components arriving from every point of the source segment.  This module
provides closed forms for the three receiving axes, their extrema over the
effective integration interval, and the closed-form spread for arbitrary
receive orientations, whose extremes lie at the source ends or at the single
stationary point of the spatial frequency along the source.

All values are in wavelength units, so bandwidths lie in ``[0, 2]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# Unused here; kept because bench/tracing.py counts calls through this name.
from scipy.optimize import minimize_scalar  # noqa: F401

from .geometry import AssemblyParams, ReceiveDirection

__all__ = [
    "BandwidthSummary",
    "direction_cosine",
    "bandwidth_z",
    "bandwidth_x",
    "bandwidth_y",
    "bandwidth_generic",
    "axis_bandwidth",
    "extrema_z",
    "extrema_x",
    "extrema_y",
    "extrema",
    "effective_interval",
]


@dataclass(frozen=True)
class BandwidthSummary:
    """Extrema of the local spatial bandwidth over one effective interval.

    ``w_range = w_max - w_min`` measures how strongly the bandwidth varies
    along the array; ``argmax_location`` is the coordinate (within
    ``effective_interval``) where ``w_max`` is attained.
    """

    w_max: float
    w_min: float
    w_range: float
    argmax_location: float
    effective_interval: tuple[float, float]


def direction_cosine(t, c):
    """``t / sqrt(t**2 + c**2)``: cosine of the angle of ``(t, c)`` from the t-axis.

    Odd in ``t``; bounded by 1 in magnitude (equal only for ``c = 0``).
    Accepts a scalar or array ``t``.  ``(0, 0)`` is indeterminate and
    rejected.
    """
    if c < 0:
        raise ValueError(f"transverse component c must be >= 0, got {c!r}")
    arr = np.asarray(t, dtype=float)
    if c == 0.0 and np.any(arr == 0.0):
        raise ValueError("direction_cosine(0, 0) is indeterminate")
    out = arr / np.hypot(arr, c)
    return float(out) if out.ndim == 0 else out


def bandwidth_z(z, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``z`` on the e_z-oriented array.

    Difference of the direction cosines toward the two source ends; strictly
    positive whenever the receive point is off the source axis.  Accepts a
    scalar or array ``z``.
    """
    return _checked(axis_bandwidth("z", z, params.d, params.r * math.cos(params.theta), params.L))


def bandwidth_x(x, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``x`` on the e_x-oriented array.

    Valid for ``x + d >= 0``, which holds on the effective interval
    ``[-min(d, rho), rho]``.  Accepts a scalar or array ``x``.
    """
    return _checked(axis_bandwidth("x", x, params.d, params.r * math.cos(params.theta), params.L))


def axis_bandwidth(tag: str, l, d, c, L):
    """Closed-form bandwidth at ``l`` on the e_z (``tag="z"``) or e_x array, elementwise.

    ``d`` is the distance from the receive centre to the source axis and
    ``c = r*cos(theta)`` its axial offset from the source centre; ``l``,
    ``d``, ``c`` and ``L`` broadcast, so one call covers many links.  The
    forms of ``bandwidth_z`` and ``bandwidth_x`` (e_z: the difference of the
    direction cosines toward the two source ends; e_x: ``1 - cos`` of the
    far end when the receive centre projects onto the source, else the
    difference toward the near and far ends).  Unchecked: a receive point
    on a source end gives NaN, and the function never warns.
    """
    l = np.asarray(l, dtype=float)
    with np.errstate(all="ignore"):
        if tag == "z":
            return _dc(l + (c + 0.5 * L), d) - _dc(l + (c - 0.5 * L), d)
        axial = np.abs(c)
        u = l + d
        far = _dc(u, axial + 0.5 * L)
        return np.where(axial <= 0.5 * L, 1.0 - far, _dc(u, axial - 0.5 * L) - far)


def _checked(out):
    if np.isnan(out).any():
        raise ValueError("direction cosine indeterminate: a receive point lies on a source end")
    return float(out) if np.ndim(out) == 0 else out


def bandwidth_y(y, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``y`` on the e_y-oriented array.

    Even in ``y`` and zero at the array centre; this direction draws its
    bandwidth purely from the change in radial distance to the source.
    Accepts a scalar or array ``y``.
    """
    return _checked(_y_bandwidth(y, params.d, params.r * math.cos(params.theta), params.L))


def _y_bandwidth(y, d, c, L):
    """The form of ``bandwidth_y`` at ``y``, elementwise like ``axis_bandwidth``.

    The difference of the direction cosines at ``|y|`` over the transverse
    distances to the near source end (``d`` when the receive centre
    projects onto the source) and to the far one, taken as the e_y branch
    of ``_axis_extrema`` takes them.  Unchecked: ``y = 0`` on a receive
    centre on the source segment gives NaN.
    """
    axial = np.abs(c)
    c_far = np.hypot(d, axial + 0.5 * L)
    c_near = np.where(axial <= 0.5 * L, d, np.hypot(d, axial - 0.5 * L))
    ay = np.abs(np.asarray(y, dtype=float))
    with np.errstate(all="ignore"):
        return _dc(ay, c_near) - _dc(ay, c_far)


#: The pointwise form of each axis direction, ``w(l, d, c, L)`` over links.
_AXIS_FORMS = {
    "z": functools.partial(axis_bandwidth, "z"),
    "x": functools.partial(axis_bandwidth, "x"),
    "y": _y_bandwidth,
}


def bandwidth_generic(l, v_hat, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``l`` on an arbitrarily oriented array.

    Closed form of the defining max-min spread.  With ``(dx, dy)`` the offset
    of the receive point from the source axis and ``u`` the axial offset from
    a source point, the spatial frequency is
    ``g(u) = (alpha + u*v_z) / sqrt(rho2 + u**2)`` where
    ``alpha = dx*v_x + dy*v_y`` and ``rho2 = dx**2 + dy**2``.  Its derivative
    is proportional to ``v_z*rho2 - alpha*u``, so the extremes lie at the two
    source ends or at ``u* = v_z*rho2/alpha`` when that falls strictly inside
    the segment.

    Agrees with the closed forms ``bandwidth_z/x/y`` when ``v_hat`` is the
    corresponding axis (for e_y, on the half interval ``[0, rho]``).  Accepts
    a scalar or array ``l``.
    """
    vx, vy, vz = (float(c) for c in v_hat)
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"v_hat must be a unit vector, got |v| = {norm!r}")
    c = params.r * math.cos(params.theta)
    out, distance = _spread(l, (vx, vy, vz), params.d, c, params.L)
    if (distance < 1e-9).any():
        raise ValueError("receive point coincides with a source point (zero distance)")
    return float(out) if out.ndim == 0 else out


def _spread(l, v_hat, d, c, L):
    """``(max - min of the frequencies, distance to the source segment)`` at ``l``.

    Unchecked: the spread is NaN, or meaningless, where the distance is
    (nearly) zero.  Arguments as for ``_frequencies``.
    """
    (g_lo, g_hi, g_star), distance = _frequencies(l, v_hat, d, c, L)
    out = np.maximum(np.maximum(g_lo, g_hi), g_star) - np.minimum(np.minimum(g_lo, g_hi), g_star)
    return out, distance


def _frequencies(l, v_hat, d, c, L):
    """``((g_lo, g_hi, g_star), distance to the source segment)`` at ``l``.

    ``d`` is the distance from the receive centre to the source axis and
    ``c = r*cos(theta)`` its axial offset from the source centre; ``l``,
    the components of ``v_hat``, ``d``, ``c`` and ``L`` broadcast, so one
    call covers many links.  ``g_star`` is taken at ``u*`` clipped onto the
    segment, so it repeats an end value when ``u*`` lies outside.
    """
    vx, vy, vz = v_hat
    l = np.asarray(l, dtype=float)
    dx = l * vx + d
    dy = l * vy
    u_mid = l * vz + c
    u_lo = u_mid - 0.5 * L
    u_hi = u_mid + 0.5 * L
    alpha = dx * vx + dy * vy
    rho2 = dx * dx + dy * dy
    near = np.fmin(np.fmax(0.0, u_lo), u_hi)
    # A u* outside the segment (infinite or NaN when alpha is 0 or tiny) is
    # clipped onto a source end, which is a candidate anyway.
    with np.errstate(all="ignore"):
        u_star = np.fmin(np.fmax(vz * rho2 / alpha, u_lo), u_hi)
        g = tuple((alpha + vz * u) / np.sqrt(rho2 + u * u) for u in (u_lo, u_hi, u_star))
    return g, np.sqrt(rho2 + near * near)


def effective_interval(params: AssemblyParams, direction: ReceiveDirection) -> tuple[float, float]:
    """Receive-coordinate interval contributing non-redundant field samples.

    The full array for e_z, ``[-min(d, rho), rho]`` for e_x (the part beyond
    the source plane mirrors the other side), and the half interval
    ``[0, rho]`` for e_y (the two halves are mirror images).  Generic
    orientations use the full ``[-rho, rho]``; no symmetry reduction is
    attempted for them.
    """
    rho = params.rho
    if direction.tag == "x":
        return (-min(params.d, rho), rho)
    if direction.tag == "y":
        return (0.0, rho)
    return (-rho, rho)


def _dc(t, c):
    # direction_cosine unchecked: 0/0 is NaN, and the extrema_* wrappers reject it.
    return t / np.hypot(t, c)


def _stationary(far, near):
    """Where ``t/hypot(t, near) - t/hypot(t, far)`` is stationary in ``t > 0``.

    ``t**2 = (far*near)**(4/3) / (far**(2/3) + near**(2/3))``, written
    without the cancellation and overflow of the equivalent
    ``(far**(2/3) - near**(2/3)) / (near**(-4/3) - far**(-4/3))``.
    ``np.power`` keeps scalars on the array loop; a numpy scalar's ``**``
    calls libm's ``pow``, which can differ in the last bit.
    """
    a = np.power(far, 2.0 / 3.0)
    b = np.power(near, 2.0 / 3.0)
    return a * b / np.sqrt(a + b)


def _axis_extrema(tag: str, theta, L: float, rho: float, r):
    """``(w_max, w_min, argmax)`` of axis direction ``tag``, broadcast over ``theta`` and ``r``.

    The closed forms behind ``extrema_z/x/y``, with every branch evaluated
    and chosen elementwise (the branches those docstrings describe), so one
    call covers a whole grid of polar angles and centre distances; one
    angle and distance give the bits of their entry in such a grid.
    Branches not taken may divide by zero; the kernel never warns.
    """
    # A scalar r becomes a numpy scalar, whose arithmetic is cheaper than a 0-d array's.
    r = np.asarray(r, dtype=float)[()]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    axial = r * np.abs(cos_t)
    d = r * sin_t
    A = axial + 0.5 * L
    B = axial - 0.5 * L
    inside = axial <= 0.5 * L
    with np.errstate(all="ignore"):
        if tag == "z":
            z0 = -r * cos_t
            peak = 2.0 * _dc(0.5 * L, d)
            w_max = np.where(np.abs(z0) <= rho, peak, _dc(A - rho, d) - _dc(B - rho, d))
            w_min = _dc(A + rho, d) - _dc(B + rho, d)
            argmax = np.minimum(rho, np.maximum(-rho, z0))
        elif tag == "x":
            lo = -np.minimum(d, rho)
            x0 = _stationary(A, B) - d
            argmax = np.where(inside | (x0 < lo), lo, np.where(x0 > rho, rho, x0))
            u_lo, u_max, u_hi = d + lo, d + argmax, d + rho
            w_max = np.where(inside, 1.0 - _dc(u_lo, A), _dc(u_max, B) - _dc(u_max, A))
            w_min = np.where(
                inside, 1.0 - _dc(u_hi, A),
                np.minimum(_dc(u_lo, B) - _dc(u_lo, A), _dc(u_hi, B) - _dc(u_hi, A)),
            )
        else:
            c_near = np.where(inside, d, np.hypot(d, B))
            c_far = np.hypot(d, A)
            y_star = _stationary(c_far, c_near)
            argmax = np.where((y_star > 0.0) & (y_star < rho), y_star, rho)
            w_max = _dc(argmax, c_near) - _dc(argmax, c_far)
            w_min = np.zeros_like(w_max)
    return w_max, w_min, argmax


def extrema(params: AssemblyParams, direction: ReceiveDirection) -> BandwidthSummary:
    """Closed-form bandwidth extrema of an axis direction over its effective interval.

    One row of ``_axis_extrema``; ``extrema_z``, ``extrema_x`` and
    ``extrema_y`` describe the forms of each direction.
    """
    if not direction.is_axis:
        raise ValueError(
            "closed-form extrema exist only for axis directions; "
            "evaluate bandwidth_generic pointwise for generic orientations"
        )
    w_max, w_min, argmax = (
        float(v) for v in _axis_extrema(direction.tag, params.theta, params.L, params.rho, params.r)
    )
    if math.isnan(w_max - w_min):
        raise ValueError("indeterminate bandwidth: a receive-array end coincides with a source end")
    return BandwidthSummary(w_max, w_min, w_max - w_min, argmax,
                            effective_interval(params, direction))


def extrema_z(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[-rho, rho]`` for the e_z orientation.

    The pointwise bandwidth has a single stationary maximum at
    ``z0 = -r*cos(theta)`` (the projection of the source centre); the closed
    form branches on whether ``z0`` falls inside the array.
    """
    return extrema(params, ReceiveDirection.z())


def extrema_x(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[-min(d, rho), rho]`` for the e_x orientation.

    Off the projection-inside branch the pointwise bandwidth peaks at a
    single stationary coordinate ``x0``; because it is not symmetric about
    ``x0``, the minimum is the smaller of the two interval-end values when
    ``x0`` is interior.
    """
    return extrema(params, ReceiveDirection.x())


def extrema_y(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[0, rho]`` for the e_y orientation.

    The minimum is exactly zero at the array centre.  The pointwise
    bandwidth rises to a single stationary maximum at ``y*`` and decays
    beyond it, so the interval maximum sits at ``rho`` only when
    ``rho <= y*``; for very close-range geometries with long receive arrays
    the stationary point itself falls inside the interval and is used
    instead.
    """
    return extrema(params, ReceiveDirection.y())
