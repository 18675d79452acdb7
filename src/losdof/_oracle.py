"""Brute-force oracles shared by ``losdof verify`` and the test suite.

They work from the definitions, not from the closed forms they check:
extrema come from dense grid scans with local refinement, and the generic
bandwidth from a scan of the spatial frequency over the source segment.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from .geometry import AssemblyParams


def scan_extrema(fn, lo: float, hi: float, samples: int = 10001) -> tuple[float, float]:
    """(min, max) of ``fn`` on ``[lo, hi]``: dense scan plus bounded refinement."""
    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(fn(xs), dtype=float)

    def refine(index: int, sign: float) -> float:
        a = xs[max(index - 1, 0)]
        b = xs[min(index + 1, samples - 1)]
        if a == b:
            return float(vals[index])
        res = minimize_scalar(
            lambda x: sign * float(fn(x)), bounds=(a, b), method="bounded",
            options={"xatol": 1e-12},
        )
        return sign * float(res.fun)

    w_hi = max(float(vals.max()), refine(int(vals.argmax()), -1.0))
    w_lo = min(float(vals.min()), refine(int(vals.argmin()), 1.0))
    return w_lo, w_hi


def scan_spread(l: float, v, params: AssemblyParams, samples: int = 10001) -> float:
    """Spread of ``<r_hat, v>`` over the source segment, seen from ``l * v``.

    ``r_hat`` points from each source point to the receive point; the spread
    is taken by ``scan_extrema`` over the source parameter.
    """
    v = np.asarray(v, dtype=float)
    offset = float(l) * v - np.array([-params.d, 0.0, -params.r * math.cos(params.theta)])

    def g(t):
        diff = offset - np.multiply.outer(t, (0.0, 0.0, 1.0))
        return diff @ v / np.linalg.norm(diff, axis=-1)

    w_lo, w_hi = scan_extrema(g, -0.5 * params.L, 0.5 * params.L, samples)
    return w_hi - w_lo


def random_params(rng, v_hat=None) -> AssemblyParams:
    """One random assembly from the sweep ranges (log-uniform lengths)."""
    L = float(np.exp(rng.uniform(np.log(10.0), np.log(1e3))))
    rho = float(np.exp(rng.uniform(np.log(1.0), np.log(1e2))))
    r = float(np.exp(rng.uniform(np.log(10.0), np.log(1e5))))
    theta = float(rng.uniform(0.0, math.pi))
    if v_hat is None:
        return AssemblyParams(L, rho, r, theta)
    return AssemblyParams(L, rho, r, theta, v_hat)
