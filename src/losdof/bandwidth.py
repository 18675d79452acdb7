"""Local spatial bandwidth along the receive array.

The local spatial bandwidth at a receive point is the spread (max - min), in
cycles per wavelength, of the spatial frequencies ``<r_hat, v_hat>`` of the
wave components arriving from every point of the source segment.  This module
provides closed forms for the three receiving axes (``axis_bandwidth`` states
each once), their extrema over the effective integration interval (those
forms evaluated at the closed-form argmax and at the interval ends), and the
closed-form spread for arbitrary receive orientations, whose extremes lie at
the source ends or at the single stationary point of the spatial frequency
along the source.

All values are in wavelength units, so bandwidths lie in ``[0, 2]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# Unused here; kept because bench/tracing.py counts calls through this name.
from scipy.optimize import minimize_scalar  # noqa: F401

from .geometry import AssemblyParams, ReceiveDirection, _as_unit_tuple

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
    return _checked(axis_bandwidth("z", z, params.d, params.c, params.L))


def bandwidth_x(x, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``x`` on the e_x-oriented array.

    Valid for ``x + d >= 0``, which holds on the effective interval
    ``[-min(d, rho), rho]``.  Accepts a scalar or array ``x``.
    """
    return _checked(axis_bandwidth("x", x, params.d, params.c, params.L))


def axis_bandwidth(tag: str, l, d, c, L):
    """Closed-form bandwidth at ``l`` on the e_z, e_x or e_y array (``tag``), elementwise.

    ``d`` is the distance from the receive centre to the source axis and
    ``c = r*cos(theta)`` its axial offset from the source centre; ``l``,
    ``d``, ``c`` and ``L`` broadcast, so one call covers many links.  The
    forms of ``bandwidth_z/x/y``: e_z, the difference of the direction
    cosines toward the two source ends; e_x, ``1 - cos`` of the far end when
    the receive centre projects onto the source, else the difference toward
    the near and far ends; e_y, the difference of the direction cosines at
    ``|y|`` over the transverse distances to the near and far source ends.
    Unchecked: a receive point on a source end, or the e_y centre ``y = 0``
    on the source segment, gives NaN, and the function never warns.
    """
    with np.errstate(all="ignore"):
        return _form(tag, np.asarray(l, dtype=float), d, c, L)


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
    return _checked(axis_bandwidth("y", y, params.d, params.c, params.L))


def _form(tag: str, l, d, c, L):
    # axis_bandwidth without its errstate, for _axis_extrema, which sets one
    # for the whole kernel; a numpy-scalar l stays one.
    if tag == "z":
        return _dc(l + (c + 0.5 * L), d) - _dc(l + (c - 0.5 * L), d)
    axial = np.abs(c)
    if tag == "x":
        u = l + d
        far = _dc(u, axial + 0.5 * L)
        return np.where(axial <= 0.5 * L, 1.0 - far, _dc(u, axial - 0.5 * L) - far)
    return _y_form(l, *_transverse(d, axial, L))


def _transverse(d, axial, L):
    # (near, far): the receive centre's transverse distances to the source ends
    # for e_y; near is d when the centre projects onto the source (|c| <= L/2)
    near = np.where(axial <= 0.5 * L, d, np.hypot(d, axial - 0.5 * L))
    return near, np.hypot(d, axial + 0.5 * L)


def _y_form(y, near, far):
    # the e_y form over the distances of _transverse, which _axis_extrema also needs
    ay = np.abs(y)
    return _dc(ay, near) - _dc(ay, far)


#: The pointwise form of each axis direction, ``w(l, d, c, L)`` over links.
_AXIS_FORMS = {tag: functools.partial(axis_bandwidth, tag) for tag in "zxy"}


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
    out, distance = _spread(l, _as_unit_tuple(v_hat), params.d, params.c, params.L)
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
    lo, hi = _interval(direction.tag, params.d, params.rho)
    return float(lo), float(hi)


def _interval(tag: str, d, rho):
    """``effective_interval`` of direction ``tag``, elementwise over ``d`` and ``rho``."""
    if tag == "x":
        return -np.minimum(d, rho), rho
    return (0.0 if tag == "y" else -rho), rho


def _dc(t, c):
    # direction_cosine unchecked: 0/0 is NaN, which _checked and extrema reject.
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

    The closed-form argmax of each direction (the branches the ``extrema_z/x/y``
    docstrings describe, chosen elementwise), and the pointwise form there and
    at the interval ends; only the e_z peak ``2*dc(L/2, d)`` is written out.
    One call covers a whole grid of polar angles and centre distances; one
    angle and distance give the bits of their entry in such a grid.
    Branches not taken may divide by zero; the kernel never warns.
    """
    # A scalar r becomes a numpy scalar, whose arithmetic is cheaper than a 0-d array's.
    r = np.asarray(r, dtype=float)[()]
    c = r * np.cos(theta)
    d = r * np.sin(theta)
    axial = np.abs(c)
    with np.errstate(all="ignore"):
        if tag == "z":
            # the form peaks at z0 = -c and falls off away from it, so the end on
            # the side of c's sign holds the minimum
            argmax = np.minimum(rho, np.maximum(-rho, -c))
            w_max = np.where(axial <= rho, 2.0 * _dc(0.5 * L, d), _form("z", argmax, d, c, L))
            w_min = _form("z", np.copysign(rho, c), d, c, L)
        elif tag == "x":
            lo, _ = _interval("x", d, rho)
            x0 = _stationary(axial + 0.5 * L, axial - 0.5 * L) - d
            inside = axial <= 0.5 * L
            argmax = np.where(inside | (x0 < lo), lo, np.where(x0 > rho, rho, x0))
            w_max = _form("x", argmax, d, c, L)
            w_hi = _form("x", rho, d, c, L)
            w_min = np.where(inside, w_hi, np.minimum(_form("x", lo, d, c, L), w_hi))
        else:
            near, far = _transverse(d, axial, L)
            y_star = _stationary(far, near)
            argmax = np.where((y_star > 0.0) & (y_star < rho), y_star, rho)
            w_max = _y_form(argmax, near, far)
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
