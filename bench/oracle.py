"""Reference values written for the benchmark, independent of ``losdof``.

The local spatial bandwidth at a receive point ``p`` for an array oriented
along ``v`` is the spread of ``<p - s(t), v> / |p - s(t)|`` over the source
points ``s(t) = c + t e``, ``|t| <= L/2``.  With ``q = p - c`` split into a
part ``u`` along ``e`` and a perpendicular part ``q_perp``, the frequency is
``g(u) = (alpha + beta u) / sqrt(rho2 + u^2)`` where ``alpha = <q_perp, v>``,
``beta = <e, v>`` and ``rho2 = |q_perp|^2``.  Its derivative is proportional
to ``beta rho2 - alpha u``, so the extremes lie at the two source ends or at
``u* = beta rho2 / alpha``.  Nothing here calls the package under test: K
numbers come from ``scipy.integrate.quad`` of that closed form, extrema from a
dense scan refined by bounded minimisation, and channel matrices from
``exp(j 2 pi r) / r`` built here.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
E_Z = AXES["z"]

#: receive positions closer than this to the source centre are masked in maps.
EXCLUSION_RADIUS = 1.0


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def spread(p, v, c, e, half: float) -> float:
    """Spatial-frequency spread at point ``p`` for orientation ``v`` (unit vectors ``v``, ``e``)."""
    q = (p[0] - c[0], p[1] - c[1], p[2] - c[2])
    q_par = _dot(q, e)
    perp = (q[0] - q_par * e[0], q[1] - q_par * e[1], q[2] - q_par * e[2])
    alpha = _dot(perp, v)
    beta = _dot(e, v)
    rho2 = _dot(perp, perp)
    u_lo, u_hi = q_par - half, q_par + half

    def g(u: float) -> float:
        return (alpha + beta * u) / math.sqrt(rho2 + u * u)

    values = [g(u_lo), g(u_hi)]
    if alpha != 0.0:
        u_star = beta * rho2 / alpha
        if u_lo < u_star < u_hi:
            values.append(g(u_star))
    return max(values) - min(values)


def _quad(fn, lo: float, hi: float) -> tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=500)
    return value, err


class Link:
    """A source/receive pair in the receiving frame of the paper.

    The source runs along ``e_z`` through ``(-r sin(theta), 0, -r cos(theta))``;
    the receive array is centred at the origin.
    """

    def __init__(self, L: float, rho: float, r: float, theta: float):
        self.L, self.rho, self.r, self.theta = L, rho, r, theta
        self.d = r * math.sin(theta)
        self.center = (-self.d, 0.0, -r * math.cos(theta))

    def w(self, l: float, v) -> float:
        return spread((l * v[0], l * v[1], l * v[2]), v, self.center, E_Z, 0.5 * self.L)

    def interval(self, tag: str) -> tuple[float, float]:
        """Effective interval: mirrored halves are dropped for ``x`` and ``y``.

        Generic orientations use the whole array.
        """
        if tag == "x":
            lo = -min(self.d, self.rho)
            if self.d <= self.rho:
                # The interval then ends on the source axis, where the closed
                # form is 0/0; the bandwidth there is its limit from inside.
                lo *= 1.0 - 1e-12
            return (lo, self.rho)
        if tag == "y":
            return (0.0, self.rho)
        return (-self.rho, self.rho)

    def k_number(self, tag: str, v=None) -> tuple[float, float]:
        """``(K, quad error estimate)`` over the effective interval."""
        v = AXES[tag] if v is None else v
        lo, hi = self.interval(tag)
        return _quad(lambda l: self.w(l, v), lo, hi)

    def w_many(self, ls: np.ndarray, v) -> np.ndarray:
        """``w`` at many coordinates: the same closed form, on arrays."""
        half = 0.5 * self.L
        px, py = ls * v[0] - self.center[0], ls * v[1]
        q_par = ls * v[2] - self.center[2]
        alpha = px * v[0] + py * v[1]
        rho2 = px * px + py * py
        beta = v[2]
        u_lo, u_hi = q_par - half, q_par + half
        with np.errstate(divide="ignore", invalid="ignore"):
            u_star = np.where(alpha != 0.0, beta * rho2 / alpha, np.nan)
        inside = (u_lo < u_star) & (u_star < u_hi)
        u_star = np.where(inside, u_star, u_lo)
        g = [(alpha + beta * u) / np.sqrt(rho2 + u * u) for u in (u_lo, u_hi, u_star)]
        return np.maximum.reduce(g) - np.minimum.reduce(g)

    def extrema(self, tag: str, samples: int = 2001) -> tuple[float, float]:
        """``(w_min, w_max)`` over the effective interval of an axis direction."""
        v = AXES[tag]
        lo, hi = self.interval(tag)
        ls = np.linspace(lo, hi, samples)
        ws = self.w_many(ls, v)

        def refine(index: int, sign: float) -> float:
            a, b = ls[max(index - 1, 0)], ls[min(index + 1, samples - 1)]
            res = minimize_scalar(lambda l: sign * self.w(l, v), bounds=(a, b),
                                  method="bounded", options={"xatol": 1e-13 * max(1.0, hi - lo)})
            return sign * float(res.fun)

        w_max = max(float(ws.max()), refine(int(ws.argmax()), -1.0))
        w_min = min(float(ws.min()), refine(int(ws.argmin()), 1.0))
        return w_min, w_max

    def channel_sigmas(self, tag: str, delta_s: float, delta_r: float) -> np.ndarray:
        """Singular values of the uniformly sampled ``exp(j 2 pi r) / r`` channel."""
        n_t = int(round(self.L / delta_s)) + 1
        n_r = int(round(2.0 * self.rho / delta_r)) + 1
        t = np.linspace(-0.5 * self.L, 0.5 * self.L, n_t)
        tx = np.array(self.center)[None, :] + t[:, None] * np.array(E_Z)[None, :]
        l = np.linspace(-self.rho, self.rho, n_r)
        rx = l[:, None] * np.array(AXES[tag])[None, :]
        dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=-1)
        return np.linalg.svd(np.exp(2j * np.pi * dist) / dist, compute_uv=False)


def _arctan_star(x: float) -> float:
    return math.atan(x) + (math.pi if x < 0 else 0.0)


def map_k(mode: str, L: float, height: float, receive: float, policy: str,
          x: float, y: float) -> float:
    """K number of a ground receive array at ``(x, y)``; NaN where masked.

    The source is centred at height ``height`` above the ground origin,
    vertical or along the ground x axis.  ``gamma`` points the receive array
    radially; ``hcontrol`` balances the centre bandwidths along the source
    direction and along the perpendicular from the source axis.
    """
    x, y = float(x), float(y)
    c = (0.0, 0.0, height)
    e = E_Z if mode == "vertical" else (1.0, 0.0, 0.0)
    half = 0.5 * L
    p = (x, y, 0.0)
    if math.dist(p, c) < EXCLUSION_RADIUS:
        return math.nan
    if policy == "gamma":
        phi = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0
    else:
        r2 = math.hypot(y, height)
        perp = (0.0, y / r2, -height / r2)
        w_z0 = spread(p, e, c, e, half)
        w_x0 = spread(p, perp, c, e, half)
        sign = (x < 0) - (x > 0)
        phi = _arctan_star(sign * (y / r2) * w_x0 / w_z0)
    v = (math.cos(phi), math.sin(phi), 0.0)
    rho = 0.5 * receive

    def w(l: float) -> float:
        return spread((x + l * v[0], y + l * v[1], 0.0), v, c, e, half)

    return _quad(w, -rho, rho)[0]
