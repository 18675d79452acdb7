"""Spatial-multiplexing-region boundaries as distance thresholds per polar angle.

A receive array placed inside the spatial multiplexing region attains at
least ``K0`` degrees of freedom; inside the non-constant-bandwidth subregion
the constant-bandwidth approximation additionally overestimates the K number
by more than ``delta_k``.  The boundary solvers work on the closed-form
bandwidth extrema with the full-array interval convention, i.e. they solve

    w_max(r) = K0 / (2 rho)          (multiplexing boundary, e_z / e_x)
    w_range(r) = delta_k / rho       (non-constant-bandwidth boundary)
    w_max(r) = 2 K0 / rho            (e_y boundary; that whole region is
                                      non-constant-bandwidth by nature)

treating the distance ``r`` as the unknown at fixed polar angle.
``boundary_curve`` solves a whole polar-angle grid in one array pass, with
one body for both kinds: one descending radius row, shared by every angle,
goes to the closed-form extrema kernel for many angles together, each zero
or sign change is a bracket, and one vectorised bracketed solve
(Chandrupatla's method) refines every bracket of every angle on the same
kernel.  The kinds differ only in their row and in keeping an angle's
outermost root or all of them.  The multiplexing row starts where the
bandwidth bound ``w < L/(r - rho - L/2)`` (the angle the source subtends)
puts the target out of reach, or at ``4*R0`` if that is further out.
``smr_boundary``, ``smr_boundary_y`` and ``ncsmr_boundary`` are its
one-angle calls.  Nothing here warns or sets a warning filter, probes below
ten wavelengths included, so the module is safe to call from several
threads.  Before it evaluates anything, every solver checks that ``L``,
``rho`` and the threshold are positive and finite and that its polar angles
lie in ``[0, pi]`` and increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandwidth import _axis_extrema
# Unused here; kept because bench/tracing.py wraps these names.
from .bandwidth import extrema_x, extrema_y, extrema_z  # noqa: F401
from .geometry import ReceiveDirection, _polar, _positive

__all__ = [
    "RegionCurve",
    "R0Threshold",
    "r0_threshold",
    "rz_boresight",
    "smr_boundary",
    "ncsmr_boundary",
    "smr_boundary_y",
    "boundary_curve",
    "fraunhofer",
]


def __getattr__(name: str):
    # ``brentq`` is unused here; bench/tracing.py counts calls through this
    # name.  Resolving it on first access keeps scipy.optimize out of import.
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: residual bound a solved radius must satisfy in its defining equation;
#: it also rejects the pseudo-roots a sign change finds at a jump of the
#: extrema (exact endfire geometries).
RESIDUAL_TOL = 1e-9

#: radii on the log-spaced scan grid of ``ncsmr_boundary``, and the most
#: points one kernel call evaluates.
_SCAN_POINTS = 2048

#: the multiplexing scan descends to this radius and no further.
_R_FLOOR = 1e-6


class R0Threshold(NamedTuple):
    """Boresight distance threshold for one unit of spatial freedom.

    ``exact`` is None when the receive array is too short
    (``rho <= 1/4`` wavelength) for the exact form to exist.
    """

    exact: float | None
    approx: float


def r0_threshold(L: float, rho: float) -> R0Threshold:
    """Maximum multiplexing-region distance threshold over all placements.

    Attained at boresight with parallel arrays and a target of one degree of
    freedom.  Returns the exact closed form ``L*sqrt(4 rho^2 - 1/4)`` and
    the short-array approximation ``2 rho L`` (which also follows from the
    parallel-array formula).
    """
    L, rho = _positive("L", L), _positive("rho", rho)
    approx = 2.0 * rho * L
    radicand = 4.0 * rho * rho - 0.25
    exact = L * math.sqrt(radicand) if radicand > 0 else None
    return R0Threshold(exact, approx)


def rz_boresight(L: float, rho: float, K0: float) -> float | None:
    """Boresight distance threshold for ``K0`` degrees of freedom (e_z direction).

    Closed form ``L * sqrt(4 rho^2 / K0^2 - 1/4)``.  Returns None when
    ``K0`` is unreachable at any positive distance (radicand <= 0).
    """
    L, rho, K0 = _positive("L", L), _positive("rho", rho), _positive("K0", K0)
    radicand = 4.0 * rho * rho / (K0 * K0) - 0.25
    if radicand <= 0:
        return None
    return L * math.sqrt(radicand)


def fraunhofer(L: float) -> float:
    """Conventional near/far-field divider ``L**2`` (in wavelength units).

    Coincides with the multiplexing threshold only for equal-sized parallel
    arrays at boresight; in general it does not imply multiplexing
    capability.
    """
    L = _positive("L", L)
    return L * L


def _theta_grid(theta) -> np.ndarray:
    """The polar angles as an array; they must lie in ``[0, pi]`` and strictly increase."""
    theta = _polar("theta", np.asarray(theta, dtype=float))
    if np.any(theta[1:] <= theta[:-1]):
        raise ValueError("theta samples must be strictly increasing")
    return theta


def _excess(tag: str, L: float, rho: float, target: float, spread: bool):
    """``w(theta, r) - target``, broadcast; ``w`` is w_max, or w_range if ``spread``."""
    def g(theta, r):
        w_max, w_min, _ = _axis_extrema(tag, r * np.sin(theta), r * np.cos(theta), L, rho)
        return (w_max - w_min if spread else w_max) - target

    return g


def _evaluate(g, theta, r) -> np.ndarray:
    """``g(theta[i], r[i])`` for every ``i``, in kernel calls of at most ``_SCAN_POINTS`` points."""
    out = np.empty(len(r))
    for i in range(0, len(r), _SCAN_POINTS):
        out[i:i + _SCAN_POINTS] = g(theta[i:i + _SCAN_POINTS], r[i:i + _SCAN_POINTS])
    return out


def _bracketed_roots(f, a, b, fa, fb, xtol: float = 1e-12, rtol: float = 1e-12,
                     maxiter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Roots of many bracketed functions in one vectorised solve (Chandrupatla).

    Bracket ``i`` is ``[a[i], b[i]]`` with end values ``fa[i]``, ``fb[i]``
    of opposite sign or zero; ``f(x, i)`` evaluates the functions of the
    brackets ``i`` at ``x``, and is called once per step for the brackets
    still open.  Each step takes the inverse-quadratic point through the
    last three points where Chandrupatla's test (Adv. Eng. Softw. 28, 1997)
    finds it safe and the midpoint otherwise; the first step interpolates
    linearly.  A bracket closes when ``f`` is exactly 0 or its width is
    below ``xtol + rtol*|x|`` (brentq's test), and gives its point of least
    ``|f|``.  A bracket without a sign change, or one where ``f`` turns NaN,
    gives NaN.  Returns ``(roots, values)``, ``values`` being ``f`` at each
    root (NaN where the root is NaN).
    """
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in (a, b, fa, fb))
    roots = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    values = np.where(np.isnan(roots), np.nan, 0.0)
    index = np.flatnonzero(fa * fb < 0.0)
    a, b, fa, fb = a[index], b[index], fa[index], fb[index]
    c, fc, x, fx = b, fb, b, fb
    t = fa / (fa - fb)
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            if not index.size:
                break
            xt = a + t * (b - a)
            ft = f(xt, index)
            # Keep the root between a (the newest point) and b; c is the point dropped.
            same = (ft < 0.0) == (fa < 0.0)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = xt, ft
            least = np.abs(fa) < np.abs(fb)
            x, fx = np.where(least, a, b), np.where(least, fa, fb)
            t_min = 0.5 * (xtol + rtol * np.abs(x)) / np.abs(b - a)
            nan = np.isnan(ft)
            done = (fx == 0.0) | (t_min > 0.5) | nan
            if done.any():
                roots[index[done]] = np.where(nan, np.nan, x)[done]
                values[index[done]] = np.where(nan, np.nan, fx)[done]
                index, a, b, c, fa, fb, fc, x, fx, t_min = (
                    v[~done] for v in (index, a, b, c, fa, fb, fc, x, fx, t_min))
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                         fa / (fb - fa) * fc / (fb - fc)
                         + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb), 0.5)
            t = np.minimum(np.maximum(t, t_min), 1.0 - t_min)
    roots[index], values[index] = x, fx
    return roots, values


def _roots(g, theta: np.ndarray, row: np.ndarray, outermost: bool) -> list[tuple]:
    """Zeros of ``g`` per angle: scan ``row`` at every angle, bracket, one bracketed solve.

    ``row`` holds descending radii, shared by every angle.  Every zero on a
    scan point (a bracket with ``fa == 0``) and every sign change is a
    bracket, its smaller radius the end ``a``; ``outermost`` keeps only an
    angle's first from the top.  Roots whose residual exceeds
    ``RESIDUAL_TOL`` are dropped; each angle gets its roots in increasing order.
    """
    per_call = max(1, _SCAN_POINTS // row.size)
    brackets = []
    for start in range(0, len(theta), per_call):
        values = g(theta[start:start + per_call, None], row)
        hit = values == 0.0
        hit[:, 1:] |= values[:, 1:] * values[:, :-1] < 0
        if outermost:
            col = hit.argmax(axis=1)
            rows = np.flatnonzero(hit[np.arange(len(hit)), col])
            col = col[rows]
        else:
            rows, col = np.nonzero(hit)
        # A zero in the top column is its own bracket.
        up = col - (col > 0)
        brackets.append((start + rows, row[col], row[up], values[rows, col], values[rows, up]))
    rows, a, b, fa, fb = (np.concatenate(v) for v in zip(*brackets))
    roots, values = _bracketed_roots(lambda r, i: _evaluate(g, theta[rows[i]], r), a, b, fa, fb)
    keep = np.abs(values) <= RESIDUAL_TOL
    rows, roots = rows[keep], roots[keep].tolist()
    # Rows come in order, the roots of each from the top down.
    ends = np.searchsorted(rows, np.arange(len(theta) + 1)).tolist()
    return [tuple(reversed(roots[i:j])) for i, j in zip(ends, ends[1:])]


def _descent(r_hi: float) -> np.ndarray:
    """``r_hi, r_hi/step, (r_hi/step)/step, ...`` by repeated division, above ``_R_FLOOR``."""
    step = 2.0 ** 0.25
    row = np.full(math.ceil((math.log(r_hi) - math.log(_R_FLOOR)) / math.log(step)) + 1, step)
    row[0] = r_hi
    np.divide.accumulate(row, out=row)
    return row[row > _R_FLOOR]


def _curve_radii(tag: str, kind: str, theta, L: float, rho: float, threshold: float):
    """Boundary radii of one kind and axis direction at every polar angle in ``theta``."""
    if kind not in ("smr", "ncsmr"):
        raise ValueError(f"kind must be 'smr' or 'ncsmr', got {kind!r}")
    if tag == "y" and kind != "smr":
        raise ValueError("the e_y region is wholly non-constant-bandwidth; use kind='smr'")
    # The thresholds of interest sit below the boresight maximum; scan down
    # from comfortably beyond it.  r0_threshold checks L and rho.
    r_hi = 4.0 * r0_threshold(L, rho).approx
    name = "delta_k" if kind == "ncsmr" else "K0"
    threshold = _positive(name, threshold)
    theta = _theta_grid(theta)
    if kind == "ncsmr":
        target = threshold / rho
    elif tag == "y":
        target = 2.0 * threshold / rho
    else:
        target = threshold / (2.0 * rho)
    g = _excess(tag if tag == "y" else _check_zx(tag), L, rho, target, kind == "ncsmr")
    if kind == "smr":
        # Every local bandwidth is below L/(r - rho - L/2), the angle the source
        # subtends, so no radius beyond rho + L/2 + L/target reaches the target.
        r_hi = max(r_hi, rho + 0.5 * L + L / target) if target else math.inf
    if not r_hi < math.inf:
        raise ValueError(f"the scan start overflows (L = {L!r}, rho = {rho!r}, "
                         f"{name} = {threshold!r})")
    if not theta.size:
        return []
    if kind == "smr":
        return _roots(g, theta, _descent(r_hi), True)
    # A contiguous row keeps the kernel on its fast loops.
    row = np.ascontiguousarray(np.geomspace(1.0, r_hi, _SCAN_POINTS)[::-1])
    return _roots(g, theta, row, False)


def smr_boundary(
    direction: str, theta: float, L: float, rho: float, K0: float
) -> float | None:
    """Distance threshold of the multiplexing region at polar angle ``theta``.

    Largest ``r`` with ``w_max(r) = K0 / (2 rho)`` for the e_z or e_x
    orientation (the bandwidth maximum eventually decreases with distance).
    Returns None when no distance attains the target.  The one-angle call
    of ``boundary_curve``.
    """
    radii = _curve_radii(_check_zx(direction), "smr", [theta], L, rho, K0)[0]
    return radii[0] if radii else None


def smr_boundary_y(theta: float, L: float, rho: float, K0: float) -> float | None:
    """Distance threshold of the e_y multiplexing region at polar angle ``theta``.

    Solves ``w_max(r) = 2 K0 / rho``.  The bandwidth profile along e_y
    always ranges from zero to its maximum, so the whole region is
    non-constant-bandwidth and the equation comes from the linear K
    approximation rather than a constant one.  The one-angle call of
    ``boundary_curve``.
    """
    radii = _curve_radii("y", "smr", [theta], L, rho, K0)[0]
    return radii[0] if radii else None


def ncsmr_boundary(
    direction: str, theta: float, L: float, rho: float, delta_k: float
) -> list[float]:
    """All non-constant-bandwidth boundary radii at polar angle ``theta``.

    Solves ``w_range(r) = delta_k / rho`` on a log-spaced grid of
    ``_SCAN_POINTS`` (2,048) radii over ``[1, 4*R0]``, scanned from the top
    down by the same body as the multiplexing boundary but keeping every
    bracket; several crossings can exist for one angle (the array may enter
    and leave the region as the distance shrinks).  Roots are returned in
    increasing order; a crossing whose residual exceeds ``RESIDUAL_TOL`` is a
    jump of ``w_range``, not a root, and is dropped.  ``L``, ``rho`` and
    ``delta_k`` must be positive and finite.  The one-angle call of
    ``boundary_curve``.
    """
    return list(_curve_radii(_check_zx(direction), "ncsmr", [theta], L, rho, delta_k)[0])


def _tag(direction) -> str:
    return direction.tag if isinstance(direction, ReceiveDirection) else str(direction)


def _check_zx(direction: str) -> str:
    tag = _tag(direction)
    if tag not in ("z", "x"):
        raise ValueError(f"direction must be 'z' or 'x', got {direction!r}")
    return tag


@dataclass(frozen=True)
class RegionCurve:
    """Boundary radii per polar angle for one direction and region kind.

    ``samples`` is an ordered list of ``(theta, radii)`` pairs; multiplexing
    boundaries carry zero or one radius per angle, non-constant-bandwidth
    boundaries may carry several.
    """

    direction: str
    kind: str
    threshold: float
    samples: list[tuple[float, tuple[float, ...]]]

    def __post_init__(self):
        _theta_grid([t for t, _ in self.samples])
        if self.kind == "smr" and any(len(radii) > 1 for _, radii in self.samples):
            raise ValueError("multiplexing boundaries carry at most one radius per angle")


def boundary_curve(
    direction: str,
    kind: str,
    theta_grid,
    L: float,
    rho: float,
    threshold: float,
) -> RegionCurve:
    """Map the per-angle boundary solver over a sorted polar-angle grid.

    ``kind`` is ``"smr"`` (multiplexing boundary, threshold ``K0``) or
    ``"ncsmr"`` (non-constant-bandwidth boundary, threshold ``delta_k``).
    The e_y direction supports only ``"smr"``; its region is inherently
    non-constant-bandwidth.
    """
    tag = _tag(direction)
    thetas = [float(theta) for theta in theta_grid]
    radii = _curve_radii(tag, kind, thetas, L, rho, threshold)
    return RegionCurve(tag, kind, float(threshold), list(zip(thetas, radii)))
