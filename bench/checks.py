"""Output checks: compare what the CLI wrote with the benchmark's own oracle.

Every check reads the files an item wrote and reports failures as lines that
start with the check's name.  Tolerances are fixed here, before any run:
``ATOL_FACTOR`` times the quadrature tolerance the item asked for, and
``RESIDUAL`` for root residuals (the bound the region solvers declare).
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

#: slack over the requested quadrature tolerance when comparing K numbers.
ATOL_FACTOR = 10.0
#: residual a boundary radius must meet in its defining bandwidth equation.
RESIDUAL = 1e-9
#: map points compared with the oracle, per map.
MAP_SAMPLES = 12
#: relative agreement of singular values with the oracle SVD.
SIGMA_RTOL = 1e-9
#: absolute agreement of profile rows with the closed form.
PROFILE_ATOL = 1e-10


def _rows(path: str, header: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _map(item, rng, quality):
    s = item.spec
    rows = _rows(item.outputs[0], "x,y,k")
    failures = []
    for index in sorted(rng.choice(len(rows), size=min(MAP_SAMPLES, len(rows)), replace=False)):
        x, y, k = rows[index]
        expected = oracle.map_k(s["mode"], s["L"], s["height"], s["receive"], s["policy"], x, y)
        if math.isnan(expected) != math.isnan(k):
            failures.append(f"map-mask: ({x:g}, {y:g}) gave {k!r}, oracle {expected!r}")
        elif not math.isnan(k) and abs(k - expected) > ATOL_FACTOR * s["tol"]:
            failures.append(f"map-oracle: ({x:g}, {y:g}) |dK| = {abs(k - expected):.3e}")
    return failures


def _ncsmr(item, rng, quality):
    s = item.spec
    target = s["threshold"] / s["rho"]
    failures = []
    worst = 0.0
    for theta, radius, _ in _rows(item.outputs[0], "theta,radius,root_index"):
        w_min, w_max = oracle.Link(s["L"], s["rho"], radius, theta).extrema(s["tag"])
        residual = abs(w_max - w_min - target)
        worst = max(worst, residual)
        if residual > RESIDUAL:
            failures.append(f"ncsmr-residual: theta={theta:.6f} r={radius:.6g} "
                            f"|w_range - dK/rho| = {residual:.3e}")
    quality["ncsmr_residual_max"] = max(quality.get("ncsmr_residual_max", 0.0), worst)
    return failures


def _smr(item, rng, quality):
    s = item.spec
    k0 = s["threshold"]
    failures = []
    worst = 0.0
    for theta, radius, _ in _rows(item.outputs[0], "theta,radius,root_index"):
        link = oracle.Link(s["L"], s["rho"], radius, theta)
        lo, hi = link.interval(s["tag"])
        w_min, w_max = link.extrema(s["tag"])
        slack = (hi - lo) * RESIDUAL
        if not w_min * (hi - lo) - slack <= k0 <= w_max * (hi - lo) + slack:
            failures.append(f"smr-sandwich: theta={theta:.6f} r={radius:.6g} K0={k0:g} "
                            f"outside [{w_min * (hi - lo):.9g}, {w_max * (hi - lo):.9g}]")
        worst = max(worst, abs(link.k_number(s["tag"])[0] - k0) / k0)
    quality["smr_k_err_max"] = max(quality.get("smr_k_err_max", 0.0), worst)
    return failures


def _k_number(item, rng, quality):
    s = item.spec
    with open(item.outputs[0], encoding="utf-8") as fh:
        report = json.load(fh)
    failures = []
    k = report["k_exact"]
    slack = report["quadrature_abs_err"] + 1e-9
    if not report["k_lower"] - slack <= k <= report["k_upper"] + slack:
        failures.append(f"k-sandwich: {report['k_lower']!r} <= {k!r} <= {report['k_upper']!r} fails")
    link = oracle.Link(s["L"], s["rho"], s["r"], s["theta"])
    expected, err = link.k_number(s["tag"], s["v"])
    if abs(k - expected) > ATOL_FACTOR * s["tol"] + err:
        failures.append(f"k-oracle: |K - quad| = {abs(k - expected):.3e} (K = {k:.9g})")
    return failures


def _profile(item, rng, quality):
    s = item.spec
    rows = np.array(_rows(item.outputs[0], "l,w"))
    link = oracle.Link(s["L"], s["rho"], s["r"], s["theta"])
    error = float(np.max(np.abs(rows[:, 1] - link.w_many(rows[:, 0], oracle.AXES[s["tag"]]))))
    return [f"profile-oracle: max |dw| = {error:.3e}"] if error > PROFILE_ATOL else []


def _svd(item, rng, quality):
    s = item.spec
    sigmas = np.array(_rows(item.outputs[0], "index,sigma,sigma_maxnorm,sigma_sumnorm"))[:, 1]
    link = oracle.Link(s["L"], s["rho"], s["r"], s["theta"])
    expected = link.channel_sigmas(s["tag"], s["delta_s"], s["delta_r"])
    if sigmas.shape != expected.shape:
        return [f"svd-oracle: {sigmas.size} singular values, oracle has {expected.size}"]
    error = float(np.max(np.abs(sigmas - expected))) / float(expected[0])
    return [f"svd-oracle: max |dsigma| / sigma_max = {error:.3e}"] if error > SIGMA_RTOL else []


def _pool(item, rng, quality):
    with open(item.outputs[0], "rb") as fh, open(item.spec["reference"], "rb") as ref:
        same = fh.read() == ref.read()
    return [] if same else ["pool-identical: the map differs from the one-worker map"]


_CHECKS = {
    "map": _map,
    "ncsmr": _ncsmr,
    "smr": _smr,
    "k-number": _k_number,
    "profile": _profile,
    "svd": _svd,
    "pool": _pool,
}


def check(item, rng, quality: dict) -> list[str]:
    """Failures of one item's outputs; quality numbers are merged into ``quality``.

    Items whose only check is their exit code (``verify``) return no failures.
    """
    fn = _CHECKS.get(item.kind)
    return fn(item, rng, quality) if fn else []
