"""Seeded jobs for the benchmark workloads.

A job is a fixed list of CLI invocations (items).  Every input comes from the
seed; the program under test only ever sees the generated argv.  Each item
also carries what its output check needs, so checks run on the files the CLI
wrote without re-deriving the inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("coverage-map", "boundary-sweep", "link-queries")


@dataclass
class Item:
    """One CLI invocation of a job and the facts its output check needs.

    ``warm`` is a smaller invocation of the same code path, run once before
    the timed passes; items without one are not warmed.
    """

    name: str
    argv: list[str]
    outputs: list[str]
    kind: str
    spec: dict = field(default_factory=dict)
    warm: list[str] | None = None


def _fmt(value: float) -> str:
    return repr(float(value))


def coverage_map(rng, workdir: str) -> list[Item]:
    """The paper's coverage figure: one vertical/gamma and one horizontal/hcontrol map.

    Scene sizes stay near the paper's 400-wavelength source and 40-wavelength
    receive array, so the seed changes the maps without changing their
    default 41 x 21 grid.
    """
    items = []
    for mode, policy in (("vertical", "gamma"), ("horizontal", "hcontrol")):
        L = float(rng.uniform(300.0, 500.0))
        height = float(rng.uniform(max(0.6 * L, 250.0), 600.0))
        receive = float(rng.uniform(30.0, 50.0))
        out = os.path.join(workdir, f"map_{mode}.csv")
        argv = [
            "scenario-map", "--mode", mode, "-L", _fmt(L), "--source-height", _fmt(height),
            "--receive-length", _fmt(receive), "--policy", policy, "-o", out,
        ]
        spec = {"mode": mode, "policy": policy, "L": L, "height": height,
                "receive": receive, "tol": 1e-6}
        items.append(Item(f"map.{mode}.{policy}", argv, [out, out[:-4] + ".json"],
                          "map", spec, warm=argv + ["--x-steps", "5", "--y-steps", "3"]))
    return items


def boundary_sweep(rng, workdir: str) -> list[Item]:
    """ncsmr curves for x and z at 64 angles and smr curves for x, y and z at 256."""
    L = float(rng.uniform(300.0, 500.0))
    rho = float(rng.uniform(15.0, 25.0))
    delta_k = float(rng.uniform(0.5, 1.5))
    k0 = float(rng.uniform(1.0, 3.0))
    items = []
    for kind, tag, threshold, steps in (
        ("ncsmr", "x", delta_k, 64),
        ("ncsmr", "z", delta_k, 64),
        ("smr", "x", k0, 256),
        ("smr", "y", k0, 256),
        ("smr", "z", k0, 256),
    ):
        out = os.path.join(workdir, f"{kind}_{tag}.csv")
        argv = [
            "region-boundary", "-L", _fmt(L), "--rho", _fmt(rho), "--direction", tag,
            "--kind", kind, "--threshold", _fmt(threshold), "--theta-steps", str(steps),
            "-o", out,
        ]
        spec = {"L": L, "rho": rho, "tag": tag, "threshold": threshold, "steps": steps}
        items.append(Item(f"{kind}.{tag}", argv, [out], kind, spec,
                          warm=argv + ["--theta-steps", "4"]))
    return items


#: links per job; each makes six CLI calls.
LINKS = 60
SPACING = 0.5
#: cells of the joint grid over the direction's y component and the distance.
GRID_VY, GRID_DIST = 12, 5


def _strata(rng, count: int) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [0, 1), shuffled.

    Every pass then covers the whole range of a parameter evenly, so the cost
    of a pass varies less from seed to seed than with independent draws.
    """
    return (rng.permutation(count) + rng.uniform(size=count)) / count


def _grid(rng, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """One uniform draw in each cell of an ``nx`` by ``ny`` grid over [0, 1)^2, shuffled.

    Each coordinate alone is stratified as by ``_strata``, and the pairs cover
    the square evenly too.
    """
    i, j = np.divmod(rng.permutation(nx * ny), ny)
    return (i + rng.uniform(size=i.size)) / nx, (j + rng.uniform(size=j.size)) / ny


def link_queries(rng, workdir: str) -> list[Item]:
    """Random links, from the far field down to receive arrays comparable to ``r``.

    Source and receive lengths are whole multiples of the antenna spacing so
    that ``channel-svd`` accepts them; ``n_t`` reaches about 1600.  The
    receive centre keeps a perpendicular distance ``d > 1.05 rho`` from the
    source axis, so no receive antenna can coincide with a source antenna.
    """
    u_t, u_r, u_theta, u_phi = (_strata(rng, LINKS) for _ in range(4))
    # A generic k-number call is costly when the direction is near e_y and
    # the link is near range; a joint grid keeps the number of such links
    # the same in every job.
    u_vy, u_dist = _grid(rng, GRID_VY, GRID_DIST)
    items = []
    for index in range(LINKS):
        n_t = 50 + int(u_t[index] * 1551)
        n_r = 5 + int(u_r[index] * 77)
        L = SPACING * (n_t - 1)
        rho = 0.5 * SPACING * (n_r - 1)
        theta = 0.05 + float(u_theta[index]) * (math.pi - 0.1)
        r_lo = max(1.05 * rho / math.sin(theta), 1.2 * rho)
        r_hi = max(4.0 * rho * L, 2.0 * r_lo)
        r = r_lo * (r_hi / r_lo) ** float(u_dist[index])
        # Uniform on the sphere: v_y uniform on [-1, 1] (Archimedes), azimuth uniform.
        v_y = 2.0 * u_vy[index] - 1.0
        ring = math.sqrt(1.0 - v_y * v_y)
        phi = 2.0 * math.pi * u_phi[index]
        v = np.array([ring * math.cos(phi), v_y, ring * math.sin(phi)])
        link = {"L": L, "rho": rho, "r": r, "theta": theta}
        geometry = ["-L", _fmt(L), "--rho", _fmt(rho), "-r", _fmt(r), "--theta", _fmt(theta)]
        stem = os.path.join(workdir, f"link{index:02d}")
        for tag in ("x", "y", "z"):
            out = f"{stem}_k{tag}.json"
            items.append(Item(
                f"link{index:02d}.k-number.{tag}",
                ["k-number", *geometry, "--direction", tag, "-o", out],
                [out], "k-number", {**link, "tag": tag, "v": None, "tol": 1e-8},
            ))
        # A leading negative component must be passed as --v-hat=... or
        # argparse takes it for an option.
        v_text = ",".join(_fmt(c) for c in v)
        out = f"{stem}_kg.json"
        items.append(Item(
            f"link{index:02d}.k-number.generic",
            ["k-number", *geometry, "--direction", "generic", f"--v-hat={v_text}", "-o", out],
            [out], "k-number", {**link, "tag": "generic", "v": tuple(v), "tol": 1e-8},
        ))
        tag = ("x", "y", "z")[int(rng.integers(0, 3))]
        out = f"{stem}_profile.csv"
        items.append(Item(
            f"link{index:02d}.bandwidth-profile.{tag}",
            ["bandwidth-profile", *geometry, "--direction", tag, "-o", out],
            [out], "profile", {**link, "tag": tag},
        ))
        tag = ("x", "y", "z")[int(rng.integers(0, 3))]
        out = f"{stem}_svd.csv"
        items.append(Item(
            f"link{index:02d}.channel-svd.{tag}",
            ["channel-svd", *geometry, "--direction", tag, "--delta-s", _fmt(SPACING),
             "--delta-r", _fmt(SPACING), "-o", out],
            [out, out[:-4] + ".json"], "svd",
            {**link, "tag": tag, "delta_s": SPACING, "delta_r": SPACING},
        ))
    verify_seed = int(rng.integers(0, 2**31 - 1))
    items.append(Item("verify", ["verify", "--draws", "100", "--seed", str(verify_seed)],
                      [], "verify", warm=["verify", "--draws", "5", "--seed", str(verify_seed)]))
    # The first link's calls warm every command and direction.
    for item in items[:6]:
        item.warm = item.argv
    return items


_BUILDERS = {
    "coverage-map": coverage_map,
    "boundary-sweep": boundary_sweep,
    "link-queries": link_queries,
}

#: distinct jobs per run.  Timed passes cycle through them, so the median pass
#: of a run spans several draws of the inputs rather than hanging on one: the
#: cost of a generic ``k-number`` call varies from link to link by an order of
#: magnitude, and one job of 60 links still varies by about 17% from seed to seed.
JOBS = 4


def build(workload: str, seed: int, workdir: str) -> list[list[Item]]:
    """The ``JOBS`` jobs of ``workload`` for ``seed``; the same seed gives the same items.

    Job ``j`` writes under ``workdir/job<j>`` and its item names start with ``job<j>/``.
    """
    jobs = []
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(JOBS)):
        jobdir = os.path.join(workdir, f"job{index}")
        os.makedirs(jobdir, exist_ok=True)
        items = _BUILDERS[workload](np.random.default_rng(child), jobdir)
        for item in items:
            item.name = f"job{index}/{item.name}"
        jobs.append(items)
    return jobs
