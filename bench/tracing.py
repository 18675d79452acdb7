"""Spans and counters recorded from outside the package, at its layer boundaries.

``Tracer.install`` replaces each traced function on the name the *calling*
module imported it under (``losdof.dof.bandwidth_generic``,
``losdof.regions.extrema_x``, ``losdof.scenarios.k_number``, ...), so calls
made through that name pass through a recording wrapper; ``uninstall`` puts
the originals back.  The package itself is not modified on disk.

A span is (name, start, end, parent span).  Spans are kept in flat arrays
for one pass and written out at exit; self times are derived from them as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute the module calls through, span name)
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "k_number", "dof.k_number"),
    ("scenarios", "k_number", "dof.k_number"),
    ("cli", "boundary_curve", "regions.curve"),
    ("regions", "smr_boundary", "regions.angle"),
    ("regions", "smr_boundary_y", "regions.angle"),
    ("regions", "ncsmr_boundary", "regions.angle"),
    ("regions", "extrema_x", "bandwidth.extrema"),
    ("regions", "extrema_y", "bandwidth.extrema"),
    ("regions", "extrema_z", "bandwidth.extrema"),
    ("dof", "extrema", "bandwidth.extrema"),
    ("cli", "extrema", "bandwidth.extrema"),
    ("dof", "bandwidth_generic", "bandwidth.generic"),
    ("cli", "bandwidth_generic", "bandwidth.generic"),
    ("dof", "bandwidth_x", "bandwidth.axis"),
    ("dof", "bandwidth_y", "bandwidth.axis"),
    ("dof", "bandwidth_z", "bandwidth.axis"),
    ("cli", "bandwidth_x", "bandwidth.axis"),
    ("cli", "bandwidth_y", "bandwidth.axis"),
    ("cli", "bandwidth_z", "bandwidth.axis"),
    ("scenarios", "bandwidth_x", "bandwidth.axis"),
    ("scenarios", "bandwidth_z", "bandwidth.axis"),
    ("scenarios", "vertical_scene_to_local", "geometry.scene_to_local"),
    ("scenarios", "horizontal_scene_to_local", "geometry.scene_to_local"),
    ("cli", "k_map", "scenarios.k_map"),
    ("scenarios", "k_map_point", "scenarios.point"),
    ("cli", "build_channel", "channel.build"),
    ("cli", "singular_spectrum", "channel.svd"),
]

# (module, attribute, counter name): calls counted without a span.
COUNTERS = [
    ("bandwidth", "minimize_scalar", "bandwidth.generic_refinements"),
    ("regions", "brentq", "regions.brentq_calls"),
]


class Tracer:
    """Records spans and counters for one pass at a time."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counters of the previous pass."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, on_result=None, on_error=None):
        nid = self._id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[index] = clock()
                self.stack.pop()
                if on_error:
                    on_error(exc)
                raise
            self.end[index] = clock()
            self.stack.pop()
            if on_result:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Put the recording wrappers on every traced name."""
        pkg = self.package
        counts = self.counts

        def angle_done(roots):
            if not roots:
                counts["regions.angles_without_root"] += 1

        def point_done(k):
            if math.isnan(k):
                counts["scenarios.masked_points"] += 1

        def channel_done(H):
            counts["channel.entries"] += H.size
            counts["channel.bytes_computed"] += H.nbytes

        def k_number_failed(exc):
            if isinstance(exc, pkg.dof.QuadratureError):
                counts["dof.quadrature_failures"] += 1

        hooks = {
            "regions.angle": (angle_done, None),
            "scenarios.point": (point_done, None),
            "channel.build": (channel_done, None),
            "dof.k_number": (None, k_number_failed),
        }
        for module, attr, name in SPANS:
            owner = getattr(pkg, module)
            on_result, on_error = hooks.get(name, (None, None))
            self._patch(owner, attr, self._span(name, getattr(owner, attr), on_result, on_error))
        for module, attr, name in COUNTERS:
            owner = getattr(pkg, module)
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        params = pkg.geometry.AssemblyParams
        self._patch(params, "__post_init__",
                    self._counter("geometry.params_built", params.__post_init__))

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last ``reset``."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        parent_id = np.where(has_parent, ids[np.maximum(parent, 0)] if len(ids) else -1, -1)

        def mask(name: str) -> np.ndarray:
            return ids == self._ids.get(name, -2)

        def calls(name: str) -> int:
            return int(mask(name).sum())

        def total(name: str) -> float:
            # Outermost spans only, so a name nested in itself counts once.
            m = mask(name)
            return float(dur[m & (parent_id != self._ids.get(name, -2))].sum())

        def self_time(*names: str) -> float:
            return float(sum(own[mask(n)].sum() for n in names))

        def children(kinds: tuple[str, ...], of: str) -> int:
            in_kinds = np.zeros(len(ids), bool)
            for kind in kinds:
                in_kinds |= mask(kind)
            return int((in_kinds & (parent_id == self._ids.get(of, -2))).sum())

        c = self.counts
        k_calls = calls("dof.k_number")
        angles = calls("regions.angle")
        evals = children(("bandwidth.axis", "bandwidth.generic"), "dof.k_number")
        return {
            "bandwidth.generic_calls": calls("bandwidth.generic"),
            "bandwidth.generic_s": total("bandwidth.generic"),
            "bandwidth.generic_refinements": c["bandwidth.generic_refinements"],
            "bandwidth.axis_calls": calls("bandwidth.axis"),
            "bandwidth.axis_s": total("bandwidth.axis"),
            "bandwidth.extrema_calls": calls("bandwidth.extrema"),
            "bandwidth.extrema_s": total("bandwidth.extrema"),
            "dof.k_number_calls": k_calls,
            "dof.k_number_s": total("dof.k_number"),
            "dof.integrand_evals": evals,
            "dof.evals_per_k": evals / k_calls if k_calls else 0.0,
            "dof.self_s": self_time("dof.k_number"),
            "dof.quadrature_failures": c["dof.quadrature_failures"],
            "geometry.params_built": c["geometry.params_built"],
            "geometry.scene_to_local_s": total("geometry.scene_to_local"),
            "regions.angles": angles,
            "regions.s": total("regions.curve"),
            "regions.self_s": self_time("regions.curve", "regions.angle"),
            "regions.extrema_per_angle":
                children(("bandwidth.extrema",), "regions.angle") / angles if angles else 0.0,
            "regions.brentq_calls": c["regions.brentq_calls"],
            "regions.angles_without_root": c["regions.angles_without_root"],
            "channel.build_s": total("channel.build"),
            "channel.svd_s": total("channel.svd"),
            "channel.entries": c["channel.entries"],
            "channel.bytes_computed": c["channel.bytes_computed"],
            "cli.calls": calls("cli.main"),
            "cli.self_s": self_time("cli.main"),
            "scenarios.k_map_s": total("scenarios.k_map"),
            "scenarios.points": calls("scenarios.point"),
            "scenarios.masked_points": c["scenarios.masked_points"],
        }

    def write(self, path: str) -> None:
        """Write the spans of the last pass as CSV, times relative to its first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")
