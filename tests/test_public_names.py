"""Every public name of the package has a caller in the package.

This parses ``src/cuntzcalc/*.py`` and lists every top-level function and
class and every public method of a top-level class.  Each must be
referenced somewhere in ``src/cuntzcalc/`` or ``perfbench/`` outside its own
definition: as a name, an attribute, an imported name, or a string that is
a name or a dotted path of names (``perfbench/tracing.py`` binds functions
by such strings).  Prose in docstrings and messages does not count.  A
method that is not a property is held to less: it counts as called only by
a ``.name(`` call in ``src/cuntzcalc/`` or a string in
``perfbench/tracing.py``, so a document field or a perfbench call of the
same name does not hide it.  A name that only tests call must be on
``ALLOWED``, with the reason it stays.

The check is by name, so it is a floor, not the full rule: a name that is
also used for something else counts as called.  It could not have caught
``ordmon.leq``, ``K0Model.simplicial``, ``PLFn.sup``, ``PLFn.is_zero`` or
``StepFn.constant``, which had only test callers while ``leq``,
``simplicial``, ``sup``, ``is_zero`` and ``PLFn.constant`` were used
elsewhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cuntzcalc"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")
TRACING = ROOT / "perfbench" / "tracing.py"

# public names without a package caller -> why they stay
ALLOWED = {
    "ordmon.smith_diagonal": "isomorphism lattices (ROADMAP direction 5)",
    "elliott.identity_morphism": "functor laws and iso certificates (ROADMAP direction 5)",
    "elliott.compose_morphisms": "functor laws and iso certificates (ROADMAP direction 5)",
    "elliott.compose_w_morphisms": "functor laws and iso certificates (ROADMAP direction 5)",
    "elliott.WModelMorphism.apply": "the induced map on classes, for iso certificates "
                                    "(ROADMAP direction 5)",
    "goodearl.PLFn.minus_clamped": "superlevel sets of piecewise-linear targets "
                                   "(ROADMAP direction 8)",
}

_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in node.decorator_list)


def public_definitions():
    """(qualified name, bare name, file, first line, last line, is a method
    that is not a property) of each."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield (f"{module}.{node.name}", node.name, path,
                   node.lineno, node.end_lineno, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (f"{module}.{node.name}.{item.name}", item.name,
                               path, item.lineno, item.end_lineno,
                               not _is_property(item))


def references():
    """Bare name -> [(file, line)] of every use in the package and perfbench."""
    found: dict[str, list] = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    words = [node.id]
                elif isinstance(node, ast.Attribute):
                    words = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    words = [alias.name for alias in node.names]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if not _PATH.fullmatch(node.value):
                        continue
                    words = node.value.split(".")
                else:
                    continue
                for word in words:
                    found.setdefault(word, []).append((path, node.lineno))
    return found


def method_calls():
    """Bare name -> [(file, line)] of every ``.name(`` call in the package and
    every string in ``perfbench/tracing.py`` that is a name or dotted path."""
    found: dict[str, list] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                found.setdefault(node.func.attr, []).append((path, node.lineno))
    for node in ast.walk(_parse(TRACING)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _PATH.fullmatch(node.value):
                for word in node.value.split("."):
                    found.setdefault(word, []).append((TRACING, node.lineno))
    return found


def uncalled() -> set[str]:
    refs, calls = references(), method_calls()
    return {
        qualified
        for qualified, name, path, first, last, method in public_definitions()
        if not any(
            not (where == path and first <= line <= last)
            for where, line in (calls if method else refs).get(name, ())
        )
    }


def test_every_public_name_has_a_package_caller_or_a_reason():
    missing = sorted(uncalled() - set(ALLOWED))
    assert not missing, f"public names with only test callers: {missing}"


def test_every_allowed_name_is_defined_and_still_uncalled():
    # a name that gains a caller, or goes, leaves the list
    defined = {qualified for qualified, *_ in public_definitions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= uncalled()
    # each name stays for a ROADMAP direction that gives it a caller
    assert all(re.search(r"\(ROADMAP direction \d+\)$", why) for why in ALLOWED.values())
