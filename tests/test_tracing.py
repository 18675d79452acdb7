"""The benchmark's per-layer tracer still finds every name it patches."""

import ast
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


def test_unread_library_imports_are_tracer_names():
    # A module-level import that its module neither reads nor exports is dead
    # unless the tracer patches or reads it on that module.
    tracing = load_tracing()
    allowed = {(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS}
    allowed.add(("dof", "QuadratureError"))
    unread = set()
    for path in sorted(Path(losdof.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                exported.update(ast.literal_eval(stmt.value))
        imports = [stmt for stmt in tree.body if isinstance(stmt, ast.Import)
                   or isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"]
        for alias in (alias for stmt in imports for alias in stmt.names):
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unread.add((path.stem, name))
    assert unread - allowed == set()
