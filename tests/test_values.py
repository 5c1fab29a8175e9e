"""Value semantics of the package's immutable classes, which they take from
``linalg.Frozen``, and of the four that moved to ``tests/support.py``; and
the start-up guard that keeps ``dataclasses`` and ``inspect`` out of
``import cuntzcalc.cli`` and the test support out of every package module."""

import copy
import importlib
import operator
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest
from support import ClosedSet, MeasureSpec, OrderStructure, StepDensity

import cuntzcalc
from cuntzcalc.approx import DecompositionReport, DecompositionStage
from cuntzcalc.elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
    WModelMorphism,
)
from cuntzcalc.goodearl import (
    DiagonalElement,
    OpenSet,
    PLFn,
    RealizationResult,
    RealizationSchedule,
    RealizationStage,
    StepFn,
)
from cuntzcalc.linalg import Frozen
from cuntzcalc.ordmon import (
    GeneratedCone,
    LexicographicCone,
    PoGroupModel,
    PositiveCone,
    SimplicialCone,
    StrictStateCone,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, PurelyInfiniteModel, WModel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HALF = Fraction(1, 2)


def samples() -> dict:
    """Fresh values of every class: one or two per class, unequal to each
    other; a class without fields has one value only."""
    k0 = K0Model(2, ((HALF, HALF), (Fraction(1, 4), Fraction(3, 4))), (1, 1))
    k0b = K0Model(1, ((1,),), (1,))
    z, z2 = AbelianGroupData(1), AbelianGroupData(0, (2,))
    step = StepFn((0, HALF, 1), (HALF, 1), (HALF, HALF, 1))
    flat = StepFn((0, 1), (1,), (1, 1))
    ramp, bump = PLFn((0, 1), (0, 1)), PLFn((0, HALF, 1), (0, 1, 0))
    stage = RealizationStage(1, 2, DiagonalElement(2, (ramp, bump)), step, HALF, True)
    stage2 = RealizationStage(1, 1, DiagonalElement(1, (ramp,)), flat, 1, True)
    level = DecompositionStage(1, (HALF,), (HALF,), HALF)
    level2 = DecompositionStage(2, (HALF,), (0,), Fraction(1, 4))
    return {
        DecompositionStage: (level, level2),
        DecompositionReport: (
            DecompositionReport((1,), (level,), HALF),
            DecompositionReport((1,), (level, level2), 1),
        ),
        PositiveCone: (PositiveCone(),),
        SimplicialCone: (SimplicialCone(2), SimplicialCone(3)),
        StrictStateCone: (StrictStateCone(((1, 0), (0, 1))), StrictStateCone(((HALF, HALF),))),
        GeneratedCone: (GeneratedCone(((1, 0), (1, 1))), GeneratedCone(((1, 0), (1, 1)), 5)),
        LexicographicCone: (LexicographicCone(),),
        PoGroupModel: (
            PoGroupModel(2, SimplicialCone(2), (1, 1)),
            PoGroupModel(2, SimplicialCone(2), (1, 2)),
        ),
        K0Model: (k0, K0Model(k0.rank, k0.state_matrix, k0.unit, ("a", "b"))),
        OrderStructure: (
            OrderStructure(range, operator.add, operator.le),
            OrderStructure(range, operator.add, operator.lt),
        ),
        CuntzClass: (CuntzClass(True, (1, 2)), CuntzClass(False, (1, 2))),
        WModel: (WModel(k0), WModel(k0b)),
        PurelyInfiniteModel: (PurelyInfiniteModel(k0b), PurelyInfiniteModel(k0)),
        AbelianGroupData: (z, z2),
        AbelianGroupHom: (AbelianGroupHom(z, z, ((1,),)), AbelianGroupHom(z, z, ((2,),))),
        ElliottInvariant: (ElliottInvariant(k0, z), ElliottInvariant(k0, z2)),
        InvariantMorphism: (
            InvariantMorphism(((1, 0), (0, 1)), AbelianGroupHom(z, z, ((1,),)), ((1, 0), (0, 1))),
            InvariantMorphism(((0, 1), (1, 0)), AbelianGroupHom(z, z, ((1,),)), ((0, 1), (1, 0))),
        ),
        WModelMorphism: (
            WModelMorphism(WModel(k0), WModel(k0), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
            WModelMorphism(WModel(k0), WModel(k0), ((0, 1), (1, 0)), ((0, 1), (1, 0))),
        ),
        OpenSet: (OpenSet(((0, HALF, True, False),)), OpenSet(((HALF, 1, False, True),))),
        ClosedSet: (ClosedSet(((0, HALF),)), ClosedSet(((HALF, HALF),))),
        PLFn: (ramp, bump),
        StepFn: (step, flat),
        StepDensity: (StepDensity((0, 1), (1,)), StepDensity((0, HALF, 1), (2, 0))),
        MeasureSpec: (MeasureSpec(1), MeasureSpec(0, ((HALF, 1),))),
        DiagonalElement: (stage.element, stage2.element),
        RealizationSchedule: (RealizationSchedule((2, 4)), RealizationSchedule((3,))),
        RealizationStage: (stage, stage2),
        RealizationResult: (RealizationResult(step, (stage,)), RealizationResult(flat, (stage2,))),
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def package_classes() -> set:
    for module in pkgutil.iter_modules(cuntzcalc.__path__):
        importlib.import_module(f"cuntzcalc.{module.name}")
    return {c for c in _subclasses(Frozen) if c.__module__.startswith("cuntzcalc.")}


CLASSES = sorted(samples(), key=lambda c: c.__name__)


def fields_of(value) -> list:
    return [getattr(value, name) for name in type(value)._fields]


# value classes of the test support: the measure layer and the sampled
# ordered monoid, with their samples kept
SUPPORT_CLASSES = {ClosedSet, MeasureSpec, OrderStructure, StepDensity}


def test_every_value_class_has_samples():
    assert set(CLASSES) == package_classes() | SUPPORT_CLASSES
    # the 28 former dataclasses, PositiveCone and PurelyInfiniteModel, less
    # the measure layer's three, OrderStructure, DenseSubgroupSpec, now a
    # RealizationSchedule, and K0Star, now the model's group_rank
    assert len(package_classes()) == 24


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    value = samples()[cls][0]
    before = fields_of(value)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert fields_of(value) == before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    first, again = samples()[cls][0], samples()[cls][0]
    assert first is not again
    assert first == again and not first != again
    assert hash(first) == hash(again)
    for other in samples()[cls][1:]:
        assert first != other and not first == other
    assert first != tuple(fields_of(first))
    for duplicate in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(duplicate) is cls and duplicate == first


def test_values_of_different_classes_are_unequal():
    values = [v for cls in CLASSES for v in samples()[cls]]
    for a in values:
        for b in values:
            if type(a) is not type(b):
                assert a != b and not a == b
    # the same fields under a subclass still make a different value
    k0 = K0Model(1, ((1,),), (1,))
    assert WModel(k0) != PurelyInfiniteModel(k0)
    assert PoGroupModel(1, StrictStateCone(((1,),)), (1,)) != k0


GENERIC = [c for c in CLASSES if c.__init__ is Frozen.__init__]


def test_classes_without_init_take_the_generic_constructor():
    assert {c.__name__ for c in GENERIC} == {
        "DecompositionReport", "DecompositionStage", "ElliottInvariant", "LexicographicCone",
        "OrderStructure", "PositiveCone", "PurelyInfiniteModel", "RealizationResult",
        "RealizationStage", "SimplicialCone", "WModel", "WModelMorphism",
    }


@pytest.mark.parametrize("cls", GENERIC, ids=lambda c: c.__name__)
def test_generic_constructor_by_position_and_by_name(cls):
    value = samples()[cls][0]
    values = fields_of(value)
    named = dict(zip(cls._fields, values))
    assert cls(*values) == value
    assert cls(**named) == value
    assert cls(*values[:1], **dict(list(named.items())[1:])) == value
    with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields"):
        cls(*values, 0)
    with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields"):
        cls(*values, extra=0)
    if values:
        with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields"):
            cls(*values[1:])
        with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields"):
            cls(*values, **{cls._fields[0]: values[0]})


def test_repr_lists_the_fields_in_order():
    assert repr(DecompositionStage(1, (HALF,), (0,), HALF)) == (
        "DecompositionStage(index=1, level=(Fraction(1, 2),), increment=(0,), "
        "sup_gap=Fraction(1, 2))"
    )
    assert repr(K0Model(1, ((1,),), (1,))) == (
        "K0Model(rank=1, cone=StrictStateCone(states=((Fraction(1, 1),),), rows=((1,),), "
        "scale=1), unit=(1,), labels=('tau1',))"
    )
    assert repr(LexicographicCone()) == "LexicographicCone()"
    assert repr(CuntzClass(False, (HALF,))) == "Soft(1/2)"  # its own __repr__ wins


def test_cli_imports_neither_dataclasses_nor_inspect():
    # -S: site-packages' start-up hooks are not the package's imports.  Run
    # from src/ with only src/ on the path, then import every module of the
    # package: none may reach the test support, which is not importable there
    code = (
        "import sys; import cuntzcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
        "import importlib, pkgutil, cuntzcalc; "
        "names = [m.name for m in pkgutil.iter_modules(cuntzcalc.__path__)]; "
        "[importlib.import_module('cuntzcalc.' + n) for n in names]; "
        "print(len(names), 'support' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, cwd=SRC, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    modules = len([name for name in os.listdir(os.path.join(SRC, "cuntzcalc"))
                   if name.endswith(".py") and name != "__init__.py"])
    assert out == f"[]\n{modules} False\n"
