"""The benchmark's per-layer tracer still finds every name it patches."""

import importlib.util
from pathlib import Path

import losdof
import losdof.cli  # noqa: F401  (the tracer patches names on every module)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracing = load_tracing()
    patched = [(getattr(losdof, module), attr)
               for module, attr, _ in tracing.SPANS + tracing.COUNTERS]
    params = losdof.geometry.AssemblyParams
    originals = [getattr(owner, attr) for owner, attr in patched] + [params.__post_init__]
    tracer = tracing.Tracer(losdof)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in patched] + [params.__post_init__] == originals
    assert issubclass(losdof.dof.QuadratureError, Exception)
