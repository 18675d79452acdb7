"""Achievable spatial degrees of freedom (the K number) of a LOS link.

The K number is the integral of the local spatial bandwidth over the
direction's effective interval.  Alongside the exact value (adaptive
quadrature) this module provides the constant-bandwidth upper/lower bounds,
the linear mid-point approximation, and the classic parallel-array formula.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bandwidth import (
    FarFieldWarning,
    _warn_near_field,
    _x_stationary_point,
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


def _pointwise(params: AssemblyParams, direction: ReceiveDirection):
    if direction.tag == "z":
        return lambda l: float(bandwidth_z(l, params))
    if direction.tag == "x":
        return lambda l: float(bandwidth_x(l, params))
    if direction.tag == "y":
        return lambda l: float(bandwidth_y(l, params))
    v = direction.unit_vector
    return lambda l: bandwidth_generic(l, v, params)


def _breakpoints(params: AssemblyParams, direction: ReceiveDirection) -> tuple[float, ...]:
    # Seed the quadrature with the coordinates where w(l) has a kink or a
    # stationary point; adaptive_gauss drops those outside the interval.
    if direction.tag == "z":
        return (-params.r * math.cos(params.theta),)
    if direction.tag == "x" and not params.projection_inside:
        return (_x_stationary_point(params),)
    if direction.is_axis:
        return ()
    # Generic w(l) has a kink where the stationary point u* of the spatial
    # frequency crosses a source end u0 + l*v_z (see bandwidth_generic);
    # that condition is linear in l.
    vx, vy, vz = direction.unit_vector
    d, c = params.d, params.r * math.cos(params.theta)
    points = []
    for u0 in (c - 0.5 * params.L, c + 0.5 * params.L):
        slope = vz * d * vx - (vx * vx + vy * vy) * u0
        if slope != 0.0:
            points.append(-d * (vz * d - vx * u0) / slope)
    return tuple(points)


@dataclass(frozen=True)
class KNumberReport:
    """Exact K number with its constant-bandwidth bounds and linear approximation.

    ``k_lower <= k_exact <= k_upper`` holds within ``quadrature_abs_err``,
    and ``k_linear`` is the midpoint of the two bounds when all three use the
    same interval.
    """

    k_exact: float
    k_upper: float
    k_lower: float
    k_linear: float
    direction: ReceiveDirection
    quadrature_abs_err: float


def k_number(
    params: AssemblyParams,
    direction: ReceiveDirection,
    tol: float = 1e-8,
) -> KNumberReport:
    """K number by adaptive quadrature of the local spatial bandwidth.

    Integrates over the direction's effective interval (for e_y the half
    interval already counts only the non-redundant freedom).  Axis
    directions fill the bounds and the linear approximation from the
    exact-interval closed forms; generic directions derive them from the
    bandwidth extremes observed at the quadrature nodes.
    """
    interval = effective_interval(params, direction)
    fn = _pointwise(params, direction)
    if direction.is_axis:
        value, abs_err = adaptive_gauss(
            fn, interval[0], interval[1], tol=tol, breakpoints=_breakpoints(params, direction)
        )
        lower, upper = k_bounds(params, direction)
        linear = k_linear(params, direction)
    else:
        _warn_near_field(params)
        seen = {"lo": math.inf, "hi": -math.inf}

        def tracked(l: float) -> float:
            w = fn(l)
            if w < seen["lo"]:
                seen["lo"] = w
            if w > seen["hi"]:
                seen["hi"] = w
            return w

        value, abs_err = adaptive_gauss(
            tracked, interval[0], interval[1], tol=tol, breakpoints=_breakpoints(params, direction)
        )
        length = interval[1] - interval[0]
        lower = seen["lo"] * length
        upper = seen["hi"] * length
        linear = 0.5 * (lower + upper)
    return KNumberReport(value, upper, lower, linear, direction, abs_err)


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
