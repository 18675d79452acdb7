"""Benchmark of the ``losdof`` command line, end to end and layer by layer.

Run from the repository root::

    python3 bench/run.py --workload coverage-map --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client drives ``losdof.cli.main`` in-process in a closed loop: the next
CLI call starts when the previous one returns.  BLAS is pinned to one thread.
A job of a workload is a fixed list of CLI calls; a run generates four jobs
from ``--seed``, warms up on smaller calls, and then passes over the jobs in
turn for ``--seconds``, under a speed probe that scales each pass to a fixed
reference speed of the shared machine (``SpeedProbe``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced run (see ``tracing.py``).  The metric
names and units are those of ``BENCHMARK.json``.  Output checks run outside
the timed region.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Pinned before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: fresh interpreters timed for ``setup_s`` (after one untimed launch that
#: compiles the bytecode cache).
SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import losdof.cli; "
    "losdof.cli.build_parser(); print(time.monotonic())"
)
#: alternating one- and two-worker passes of the vertical map in the pool check.
POOL_PAIRS = 3

#: The speed probe (``SpeedProbe``) runs every PROBE_PERIOD_S of wall time
#: during the timed passes.  Its work mixes what the CLI calls spend their
#: time on: a pure-Python loop of PROBE_LOOP steps, PROBE_SVDS singular-value
#: decompositions of a 48 x 48 matrix, and PROBE_SCANS scans of a
#: 1025-point profile with numpy (about 2 ms in all).
PROBE_PERIOD_S = 0.05
PROBE_LOOP = 2500
PROBE_SVDS = 6
PROBE_SCANS = 40
#: ``job_s`` is in seconds at the machine speed at which one probe takes this long.
PROBE_REFERENCE_S = 2.5e-3


def _load_package():
    """Import ``losdof`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "losdof", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import losdof
    import losdof.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(losdof.__file__))) != SRC:
        print(f"error: imported losdof from {losdof.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return losdof


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to the parser being ready."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if launch:
            times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


class SpeedProbe:
    """Samples the machine's speed in this process while timed passes run.

    The machine is shared, and its speed as one process sees it changes by
    up to 1.65x within seconds (see README.md).  While the probe is active, a
    SIGALRM handler runs a fixed reference computation every PROBE_PERIOD_S
    and records how long it took.  Python runs the handler in the main thread
    between bytecodes, so it samples the same CPU and interpreter as the CLI
    call it interrupts.  ``Runner.run_pass`` subtracts the handler's time
    from a pass, and ``Runner.passes`` scales the rest by the mean of
    PROBE_REFERENCE_S over the samples taken during the pass.
    """

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((48, 48))
        self.grid = np.linspace(-1.0, 1.0, 1025)
        self.samples: list[float] = []
        self.spent = 0.0
        self.previous = None
        self.busy = False
        self.window = (0, 0.0)
        #: per window: the mean of PROBE_REFERENCE_S over the probe times in it
        self.speeds: list[float] = []

    def _sample(self, signum, frame) -> None:
        if self.busy:  # a signal that arrives while sampling is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        total = 0
        for step in range(PROBE_LOOP):
            total += step * step % 7
        for _ in range(PROBE_SVDS):
            np.linalg.svd(self.matrix, compute_uv=False)
        t = self.grid
        for _ in range(PROBE_SCANS):
            profile = (0.3 + 0.7 * t) / np.sqrt(0.2 + t * t)
            signs = np.sign(np.diff(profile))
            np.nonzero(signs[:-1] * signs[1:] < 0)
            float(profile.max()) - float(profile.min())
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took
        self.busy = False

    def start(self) -> None:
        """Open a window: a timed pass begins."""
        self.window = (len(self.samples), self.spent)

    def stop(self) -> float:
        """Close the window; return the seconds the probe took within it.

        A window without a sample takes the speed of the last sample before it.
        """
        first, spent = self.window
        taken = self.samples[first:] or self.samples[-1:]
        self.speeds.append(statistics.fmean(PROBE_REFERENCE_S / took for took in taken))
        return self.spent - spent

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class Runner:
    """Runs the jobs of a workload through ``losdof.cli.main``, in turn.

    Keeps what each call returned.  ``items`` are those of every job that has
    run at least once: the attempted items, whose outputs the checks read.
    """

    def __init__(self, package, jobs):
        self.cli = package.cli
        self.jobs = jobs
        self.ran: list[int] = []
        self.errors: dict[str, str] = {}
        self.stdout_bytes = 0

    @property
    def items(self) -> list:
        return [item for index in sorted(set(self.ran)) for item in self.jobs[index]]

    def next_job(self) -> list:
        """Items of the next job in the cycle, counted as run."""
        index = len(self.ran) % len(self.jobs)
        self.ran.append(index)
        return self.jobs[index]

    def call(self, item, argv=None) -> None:
        """Run ``item``, or ``argv`` in its place without recording the outcome."""
        out, err = io.StringIO(), io.StringIO()
        errors = self.errors if argv is None else {}
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(item.argv if argv is None else argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed item; the job goes on
            errors[item.name] = f"raised {type(exc).__name__}: {exc}"
            return
        self.stdout_bytes += len(out.getvalue().encode())
        if code != 0:
            detail = err.getvalue().strip().splitlines()
            errors[item.name] = f"exit {code}" + (f": {detail[-1]}" if detail else "")

    def warm_up(self) -> None:
        """Run the warm-up calls of the first job: lazy imports, warning registries, page cache."""
        for item in self.jobs[0]:
            if item.warm:
                self.call(item, item.warm)

    def run_pass(self, items, probe: SpeedProbe | None = None) -> tuple[float, float]:
        """Wall and CPU seconds of one pass over ``items``.

        With a ``probe``, the pass is one window of it and the wall time
        leaves out the probe's own time.
        """
        gc.collect()
        self.stdout_bytes = 0
        if probe:
            probe.start()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for item in items:
            self.call(item)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if probe:
            wall -= probe.stop()
        return wall, cpu

    def passes(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Passes, each over the next job, within ``seconds``, with the speed probe active.

        Returns the wall seconds of each pass, the same scaled to the probe's
        reference speed, and the probe's samples.  A pass starts only if one as long as the
        last would end in time; at least one pass runs.
        """
        walls: list[float] = []
        end = time.perf_counter() + seconds
        with SpeedProbe() as probe:
            while not walls or time.perf_counter() + walls[-1] <= end:
                walls.append(self.run_pass(self.next_job(), probe)[0])
        return walls, [wall * speed for wall, speed in zip(walls, probe.speeds)], probe.samples


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _declared_metrics() -> dict:
    """Metric names and units, from the ``BENCHMARK.json`` next to this directory."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _summary(name: str, values: list[float], unit: str) -> str:
    # A tail percentile is reported only when at least ten samples lie beyond it.
    n = len(values)
    if n > 20:
        p = 100.0 * (1.0 - 10.0 / n)
        tail = f", p{p:.0f} {np.percentile(values, p):.4f} {unit}"
    else:
        tail = f", max {max(values):.4f} {unit} (too few samples for a tail percentile)"
    each = " ".join(f"{v:.4f}" for v in values)
    return f"{name}: median {statistics.median(values):.4f} {unit} over {n} samples{tail} [{each}]"


def _output_bytes(items) -> int:
    return sum(os.path.getsize(p) for item in items for p in item.outputs if os.path.exists(p))


def end_to_end(runner, seconds: float, setup: list[float], lines: list[str]) -> dict:
    """``job_s`` is the mean over the jobs that ran of each job's median scaled pass."""
    walls, scaled, samples = runner.passes(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_job: dict[int, list[float]] = {}
    for index, value in zip(runner.ran, scaled):
        by_job.setdefault(index, []).append(value)
    medians = {index: statistics.median(values) for index, values in sorted(by_job.items())}
    lines.append(_summary("scaled pass time", scaled, "s"))
    lines.append(_summary("wall pass time, unscaled", walls, "s"))
    lines.append(f"speed probe: median {1e3 * statistics.median(samples):.4f} ms "
                 f"over {len(samples)} samples, reference {1e3 * PROBE_REFERENCE_S:g} ms")
    lines.append("job_s: mean of per-job medians "
                 + ", ".join(f"job{index} {value:.4f} s ({len(by_job[index])} passes)"
                             for index, value in medians.items())
                 + f" = {statistics.fmean(medians.values()):.4f} s")
    lines.append(_summary("setup_s", setup, "s"))
    lines.append(f"peak_rss_mb: {peak_mb:.3f} MB (this process, after {len(walls)} passes)")
    return {
        "job_s": statistics.fmean(medians.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }


def per_layer(package, runner, workload, seconds: float, workdir: str, lines: list[str]) -> dict:
    """Untraced and traced passes of each job in turn, so drift in machine speed hits both."""
    import tracing

    tracer = tracing.Tracer(package)
    samples: list[dict] = []
    ratios, cpu = [], []
    end = time.perf_counter() + seconds
    pair = 0.0
    while not samples or time.perf_counter() + pair <= end:
        start = time.perf_counter()
        items = runner.next_job()
        base_wall, base_cpu = runner.run_pass(items)
        tracer.reset()
        tracer.install()
        try:
            traced_wall, _ = runner.run_pass(items)
        finally:
            tracer.uninstall()
        metrics = tracer.pass_metrics()
        metrics["cli.bytes_written"] = _output_bytes(items) + runner.stdout_bytes
        samples.append(metrics)
        ratios.append(traced_wall / base_wall)
        cpu.append(base_cpu)
        pair = time.perf_counter() - start
    spans = os.path.join(workdir, "spans.csv")
    tracer.write(spans)
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["run.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics["scenarios.pool_speedup"] = 0.0
    if workload == "coverage-map":
        metrics["scenarios.pool_speedup"] = pool_check(runner, workdir, lines)
    lines.append(f"traced run: {len(samples)} pairs of untraced and traced passes; "
                 f"spans of the last traced pass in {spans}")
    return metrics


def pool_check(runner, workdir: str, lines: list[str]) -> float:
    """Untraced vertical map with one worker, then with two, in alternation.

    Returns the median time ratio; the two maps must be identical.
    """
    single = runner.jobs[0][0]
    out = os.path.join(workdir, "map_vertical_threads2.csv")
    argv = list(single.argv)
    argv[argv.index("-o") + 1] = out
    pooled = workloads.Item(single.name + ".threads2", argv + ["--threads", "2"],
                            [out, out[:-4] + ".json"], "pool", {"reference": single.outputs[0]})
    pairs = [(runner.run_pass([single])[0], runner.run_pass([pooled])[0])
             for _ in range(POOL_PAIRS)]
    runner.jobs[0].append(pooled)
    lines.append("pool: vertical map with 1 and 2 workers, s: "
                 + ", ".join(f"{one:.4f}/{two:.4f}" for one, two in pairs))
    return statistics.median(one / two for one, two in pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    specs = _declared_metrics()
    package = _load_package()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    lines = [
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, blas threads {BLAS_THREADS}; "
        f"workload {args.workload}, seed {args.seed}, {workloads.JOBS} jobs, "
        f"{args.seconds:g} s, trace {args.trace}",
    ]
    phases = [time.perf_counter()]
    setup = measure_setup() if not args.trace else []
    runner = Runner(package, workloads.build(args.workload, args.seed, workdir))
    phases.append(time.perf_counter())
    runner.warm_up()
    phases.append(time.perf_counter())
    if args.trace:
        values = per_layer(package, runner, args.workload, args.seconds, workdir, lines)
        declared = specs["per_layer"]
    else:
        values = end_to_end(runner, args.seconds, setup, lines)
        declared = specs["end_to_end"]
    phases.append(time.perf_counter())

    # Checks read the files of the last pass over each job; its passes rewrote the same files.
    import checks

    quality: dict[str, float] = {}
    wrong: dict[str, str] = {}
    rng = np.random.default_rng([args.seed, 1])
    for item in runner.items:
        if item.name in runner.errors or not item.outputs:
            continue
        found = checks.check(item, rng, quality)
        if found:
            wrong[item.name] = "; ".join(found)
    failures = {**runner.errors, **wrong}
    phases.append(time.perf_counter())
    lines.append("phases: " + ", ".join(
        f"{name} {b - a:.1f} s" for name, a, b in
        zip(("setup", "warm-up", "measured", "checks"), phases, phases[1:])))
    failed_frac = len(failures) / len(runner.items)
    if args.trace:
        values["regions.smr_k_err_max"] = quality.get("smr_k_err_max", 0.0)
        values["run.failed_frac"] = failed_frac
        lines += [f"{name}: {value:.6g}" for name, value in sorted(values.items())]
    for name, worst in sorted(quality.items()):
        lines.append(f"quality: {name} = {worst:.3e}")
    lines.append(f"failed_frac: {len(failures)}/{len(runner.items)} = {failed_frac:.4f}")
    lines += [f"FAILED {name}: {why}" for name, why in sorted(failures.items())]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print("\n".join(lines))
    print(json.dumps({
        # Wrong output makes a run incorrect; a call that reports its own
        # failure through its exit code only counts in ``failed``.
        "correct": not wrong,
        "attempted": len(runner.items),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        body = proc.stdout.strip().splitlines()
        print(f"== {workload}\n" + "\n".join(body[:-1]))
        rows.append((workload, json.loads(body[-1])))
    print(f"\n{'workload':<16}{'metric':<34}{'value':>14}  unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:<16}{name:<34}{metric['value']:>14.6g}  {metric['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<16}{'failed_frac':<34}{frac:>14.6g}  "
              f"{result['failed']}/{result['attempted']} items")
    print(json.dumps({w: r for w, r in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
