"""Every name the benchmark tracer wraps still lives where it looks.

``perfbench/tracing.py`` wraps each entry of ``TRACED`` by reading the
attribute from its owner's ``__dict__``, so a refactor that moves a traced
function, inherits a traced method or drops a module's own binding breaks
``perfbench/run.py --trace 1``.  This test reads the table without
changing it and resolves each entry the same way.  A traced name that a
module imports must also be read there, outside the import, or its span
always counts 0 calls.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "path, attr", [(path, attr) for path, attr, _ in tracing.TRACED]
)
def test_traced_name_is_bound_on_its_owner(path, attr):
    owner = tracing._owner(path)
    assert attr in owner.__dict__, f"{path}.{attr} is not bound on its owner"
    assert callable(owner.__dict__[attr])


def test_install_and_remove_restore_every_binding():
    originals = [
        (tracing._owner(path), attr) for path, attr, _ in tracing.TRACED
    ]
    before = [owner.__dict__[attr] for owner, attr in originals]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in originals]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        tracer.remove()
    assert [owner.__dict__[attr] for owner, attr in originals] == before


PACKAGE = TRACING.parent.parent / "src" / "cuntzcalc"

# traced names a module imports only so that the tracer can wrap them -> why
TRACER_ONLY = {
    ("cli", "validate_invariant"): "(ROADMAP direction 2)",
}


def _imported_and_loaded(module: str) -> tuple[set[str], set[str]]:
    """Names the module binds by ``from … import``, and names it reads."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported, loaded


IMPORTED = [
    (path, attr) for path, attr, _ in tracing.TRACED
    if "." not in path and attr in _imported_and_loaded(path)[0]
]


@pytest.mark.parametrize(
    "path, attr", [entry for entry in IMPORTED if entry not in TRACER_ONLY]
)
def test_imported_traced_name_is_read_by_its_module(path, attr):
    # a binding kept only for the tracer always counts 0 calls
    _, loaded = _imported_and_loaded(path)
    assert attr in loaded, f"{path} imports {attr} only for the tracer"


@pytest.mark.parametrize("path, attr", sorted(TRACER_ONLY))
def test_tracer_only_imports_are_still_unread(path, attr):
    assert (path, attr) in IMPORTED, f"{path}.{attr} is no longer a traced import"
    assert attr not in _imported_and_loaded(path)[1], \
        f"{path} now reads {attr}; drop it from TRACER_ONLY"
