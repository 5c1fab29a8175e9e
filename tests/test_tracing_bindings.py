"""Every name the benchmark tracer wraps still lives where it looks.

``perfbench/tracing.py`` wraps each entry of ``TRACED`` by reading the
attribute from its owner's ``__dict__``, so a refactor that moves a traced
function, inherits a traced method or drops a module's own binding breaks
``perfbench/run.py --trace 1``.  This test reads the table without
changing it and resolves each entry the same way.
"""

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
