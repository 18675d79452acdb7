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

import math
import warnings
from dataclasses import dataclass

import numpy as np
# Unused here; kept because bench/tracing.py counts calls through this name.
from scipy.optimize import minimize_scalar  # noqa: F401

from .geometry import AssemblyParams, ReceiveDirection

__all__ = [
    "BandwidthSummary",
    "FarFieldWarning",
    "direction_cosine",
    "bandwidth_z",
    "bandwidth_x",
    "bandwidth_y",
    "bandwidth_generic",
    "extrema_z",
    "extrema_x",
    "extrema_y",
    "extrema",
    "effective_interval",
]


class FarFieldWarning(UserWarning):
    """Geometry outside the validity regime of the far-field field model."""


#: centre distance (in wavelengths) below which results are flagged as
#: potentially unphysical.
FAR_FIELD_MIN_R = 10.0


def _warn_near_field(params: AssemblyParams) -> bool:
    if params.r < FAR_FIELD_MIN_R:
        warnings.warn(
            f"centre distance r = {params.r:g} wavelengths is below "
            f"{FAR_FIELD_MIN_R:g}; far-field results may not reflect physical reality",
            FarFieldWarning,
            stacklevel=3,
        )
        return True
    return False


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
    return direction_cosine(z + params.a, params.d) - direction_cosine(z + params.b, params.d)


def bandwidth_x(x, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``x`` on the e_x-oriented array.

    Valid for ``x + d >= 0``, which holds on the effective interval
    ``[-min(d, rho), rho]``.  Accepts a scalar or array ``x``.
    """
    u = np.asarray(x, dtype=float) + params.d
    if params.projection_inside:
        out = 1.0 - direction_cosine(u, params.A)
    else:
        out = direction_cosine(u, params.B) - direction_cosine(u, params.A)
    return float(out) if np.ndim(out) == 0 else out


def bandwidth_y(y, params: AssemblyParams):
    """Local spatial bandwidth at coordinate ``y`` on the e_y-oriented array.

    Even in ``y`` and zero at the array centre; this direction draws its
    bandwidth purely from the change in radial distance to the source.
    Accepts a scalar or array ``y``.
    """
    c_near = params.d if params.projection_inside else math.hypot(params.d, params.B)
    c_far = math.hypot(params.d, params.A)
    ay = np.abs(np.asarray(y, dtype=float))
    out = direction_cosine(ay, c_near) - direction_cosine(ay, c_far)
    return float(out) if np.ndim(out) == 0 else out


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
    (g_lo, g_hi, g_star), distance = _frequencies(l, (vx, vy, vz), params)
    if (distance < 1e-9).any():
        raise ValueError("receive point coincides with a source point (zero distance)")
    out = np.maximum(np.maximum(g_lo, g_hi), g_star) - np.minimum(np.minimum(g_lo, g_hi), g_star)
    return float(out) if out.ndim == 0 else out


def _frequencies(l, v_hat, params: AssemblyParams):
    """``((g_lo, g_hi, g_star), distance to the source segment)`` at ``l``.

    ``g_star`` is taken at ``u*`` clipped onto the segment, so it repeats an
    end value when ``u*`` lies outside.
    """
    vx, vy, vz = v_hat
    l = np.asarray(l, dtype=float)
    dx = l * vx + params.d
    dy = l * vy
    u_mid = l * vz + params.r * math.cos(params.theta)
    u_lo = u_mid - 0.5 * params.L
    u_hi = u_mid + 0.5 * params.L
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


def extrema_z(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[-rho, rho]`` for the e_z orientation.

    The pointwise bandwidth has a single stationary maximum at
    ``z0 = -r*cos(theta)`` (the projection of the source centre); the closed
    form branches on whether ``z0`` falls inside the array.
    """
    _warn_near_field(params)
    d, rho = params.d, params.rho
    z0 = -params.r * math.cos(params.theta)
    if abs(z0) <= rho:
        w_max = 2.0 * direction_cosine(0.5 * params.L, d)
    else:
        w_max = direction_cosine(params.A - rho, d) - direction_cosine(params.B - rho, d)
    w_min = direction_cosine(params.A + rho, d) - direction_cosine(params.B + rho, d)
    argmax = min(rho, max(-rho, z0))
    return BandwidthSummary(w_max, w_min, w_max - w_min, argmax, (-rho, rho))


def _x_stationary_point(params: AssemblyParams) -> float:
    # Stationary point of the two-cosine difference; only defined off the
    # projection-inside branch, where the near-end distance B is positive.
    A, B, d = params.A, params.B, params.d
    num = A ** (2.0 / 3.0) - B ** (2.0 / 3.0)
    den = B ** (-4.0 / 3.0) - A ** (-4.0 / 3.0)
    return math.sqrt(num / den) - d


def extrema_x(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[-min(d, rho), rho]`` for the e_x orientation.

    Off the projection-inside branch the pointwise bandwidth peaks at a
    single stationary coordinate ``x0``; because it is not symmetric about
    ``x0``, the minimum is the smaller of the two interval-end values when
    ``x0`` is interior.
    """
    _warn_near_field(params)
    d, rho = params.d, params.rho
    lo = -min(d, rho)
    interval = (lo, rho)
    u_lo = max(d - rho, 0.0)
    u_hi = d + rho
    if params.projection_inside:
        w_max = 1.0 - direction_cosine(u_lo, params.A)
        w_min = 1.0 - direction_cosine(u_hi, params.A)
        argmax = lo
    else:
        x0 = _x_stationary_point(params)
        lo_val = direction_cosine(u_lo, params.B) - direction_cosine(u_lo, params.A)
        hi_val = direction_cosine(u_hi, params.B) - direction_cosine(u_hi, params.A)
        if x0 < lo:
            w_max, w_min, argmax = lo_val, hi_val, lo
        elif x0 > rho:
            w_max, w_min, argmax = hi_val, lo_val, rho
        else:
            w_max = direction_cosine(d + x0, params.B) - direction_cosine(d + x0, params.A)
            w_min = min(lo_val, hi_val)
            argmax = x0
    return BandwidthSummary(w_max, w_min, w_max - w_min, argmax, interval)


def extrema_y(params: AssemblyParams) -> BandwidthSummary:
    """Bandwidth extrema over ``[0, rho]`` for the e_y orientation.

    The minimum is exactly zero at the array centre.  The pointwise
    bandwidth rises to a single stationary maximum at ``y*`` and decays
    beyond it, so the interval maximum sits at ``rho`` only when
    ``rho <= y*``; for very close-range geometries with long receive arrays
    the stationary point itself falls inside the interval and is used
    instead.
    """
    _warn_near_field(params)
    rho = params.rho
    c_near = params.d if params.projection_inside else math.hypot(params.d, params.B)
    c_far = math.hypot(params.d, params.A)
    argmax = rho
    if c_near > 0.0:
        k = (c_far / c_near) ** (4.0 / 3.0)
        y_star_sq = (c_far * c_far - k * c_near * c_near) / (k - 1.0)
        if y_star_sq > 0.0:
            y_star = math.sqrt(y_star_sq)
            if y_star < rho:
                argmax = y_star
    w_max = float(bandwidth_y(argmax, params)) if argmax > 0 else 0.0
    return BandwidthSummary(w_max, 0.0, w_max, argmax, (0.0, rho))


_EXTREMA = {"x": extrema_x, "y": extrema_y, "z": extrema_z}


def extrema(params: AssemblyParams, direction: ReceiveDirection) -> BandwidthSummary:
    """Dispatch to the closed-form extrema of an axis direction."""
    if not direction.is_axis:
        raise ValueError(
            "closed-form extrema exist only for axis directions; "
            "evaluate bandwidth_generic pointwise for generic orientations"
        )
    return _EXTREMA[direction.tag](params)
