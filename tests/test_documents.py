"""JSON documents: decoding, round-trips and the no-floats rule.

The CLI writes only wmodel, invariant and class documents, so only those
have encoders and round-trip through them.  Every other kind is decoded
from literal documents, most of them the golden corpus's, and compared
field by field with objects built by hand.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_golden import DOCS

from cuntzcalc.approx import DenseSubgroupSpec
from cuntzcalc.documents import (
    KINDS,
    DocumentError,
    dump_document,
    encode_class,
    encode_invariant,
    encode_wmodel,
    load_document,
    parse_document,
    parse_rational,
    rational_str,
)
from cuntzcalc.elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
)
from cuntzcalc.goodearl import RealizationSchedule, StepFn
from cuntzcalc.linalg import identity
from cuntzcalc.ordmon import (
    GeneratedCone,
    LexicographicCone,
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel, purely_infinite


def two_trace_model() -> WModel:
    k0 = K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1))
    return WModel(k0)


def roundtrip(doc: dict):
    kind, obj = load_document(dump_document(doc))
    assert kind == doc["kind"]
    return obj


# ---------------------------------------------------------------------------
# scalar parsing


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)


def test_parse_rational_rejects_bools_floats_and_garbage():
    for bad in (True, 0.5, "three", None):
        with pytest.raises(DocumentError):
            parse_rational(bad)
    # decimal strings are exact, so they are allowed
    assert parse_rational("0.5") == Fraction(1, 2)


def test_parse_rational_refuses_exponents():
    # "1e10000000" alone took 12 s to expand; the refusal needs no expansion
    for bad in ("1e400", "2E-3", "1.5e1", "3/4e2"):
        with pytest.raises(DocumentError, match="exponents"):
            parse_rational(bad)
    with pytest.raises(DocumentError):
        load_document('{"kind": "class", "type": "soft", "values": ["1e999999999"]}')


def test_rational_str_is_lowest_terms():
    assert rational_str(Fraction(2, 4)) == "1/2"
    assert rational_str(Fraction(4)) == "4"


# ---------------------------------------------------------------------------
# per-kind round-trips


def test_wmodel_roundtrip():
    model = two_trace_model()
    assert roundtrip(encode_wmodel(model)) == model


def test_absent_or_empty_trace_labels_give_the_default_labels():
    doc = encode_wmodel(two_trace_model())
    assert doc["trace_labels"] == ["tau1", "tau2"]
    for labels in ([], None):
        got = roundtrip(dict(doc, trace_labels=labels))
        assert got.k0.labels == ("tau1", "tau2")
    del doc["trace_labels"]
    assert roundtrip(doc).k0.labels == ("tau1", "tau2")


def test_purely_infinite_wmodel_roundtrip():
    model = purely_infinite()
    doc = encode_wmodel(model)
    assert doc == {"kind": "wmodel", "variant": "purely-infinite"}
    assert roundtrip(doc) == model


def test_unknown_wmodel_variant_is_refused():
    doc = dict(encode_wmodel(two_trace_model()), variant="bogus")
    with pytest.raises(DocumentError, match="bogus"):
        load_document(dump_document(doc))


def test_pogroup_roundtrip_for_every_cone():
    expected = {
        "simp2": PoGroupModel(2, SimplicialCone(), (1, 2)),
        "states2": PoGroupModel(
            2, StrictStateCone((("1/3", "1/3"), ("1/4", "1/2"))), (2, 1)
        ),
        "gen23": PoGroupModel(1, GeneratedCone(((2,), (3,)), coeff_bound=24), (2,)),
        "lex": PoGroupModel(2, LexicographicCone(), (1, 0)),
    }
    for name, model in expected.items():
        assert roundtrip(DOCS[name]) == model


def test_pogroup_coeff_bound_is_read_and_defaults_to_24():
    cone = {"type": "generated", "generators": [[2], [3]], "coeff_bound": 12}
    got = roundtrip(dict(DOCS["gen23"], cone=cone))
    assert got.cone.generators == ((2,), (3,))
    assert got.cone.coeff_bound == 12
    del cone["coeff_bound"]
    assert roundtrip(dict(DOCS["gen23"], cone=cone)).cone.coeff_bound == 24


def _invariant() -> ElliottInvariant:
    model = two_trace_model()
    return ElliottInvariant(model.k0, AbelianGroupData(1, (2, 4)))


def test_invariant_roundtrip():
    assert roundtrip(encode_invariant(_invariant())) == _invariant()


def test_morphism_roundtrip_carries_its_endpoints():
    k1 = AbelianGroupData(1, (2,))
    source = ElliottInvariant(
        K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1), ("a", "b")), k1
    )
    target = ElliottInvariant(K0Model(2, (("3/8", "5/8"),), (1, 1)), k1)
    got_mor, got_source, got_target = roundtrip(DOCS["mor"])
    assert got_source == source
    assert got_target == target
    assert got_mor.theta0 == identity(2)
    assert got_mor.theta1 == AbelianGroupHom.identity_on(k1)
    assert got_mor.gamma == ((Fraction(1, 2),), (Fraction(1, 2),))


def test_morphism_fields_are_read_in_place():
    # theta1 between different groups, a theta0 that is not its own
    # transpose and a gamma with distinct entries: a swapped field shows
    doc = dict(
        DOCS["mor"],
        theta0=[[1, 2], [0, 1]],
        theta1={
            "source": {"free_rank": 1, "torsion": [2]},
            "target": {"free_rank": 2},
            "matrix": [[0, 1], [0, 3]],
        },
        gamma=[["1/3"], ["2/3"]],
    )
    mor, _, _ = roundtrip(doc)
    assert mor.theta0 == ((1, 2), (0, 1))
    assert mor.theta1.source == AbelianGroupData(1, (2,))
    assert mor.theta1.target == AbelianGroupData(2)
    assert mor.theta1.mat == ((0, 1), (0, 3))
    assert mor.gamma == ((Fraction(1, 3),), (Fraction(2, 3),))


def test_class_roundtrip():
    assert roundtrip(encode_class(CuntzClass.proj((2, 0)))) == CuntzClass.proj((2, 0))
    soft = CuntzClass.soft((Fraction(1, 2), Fraction(3)))
    assert roundtrip(encode_class(soft)) == soft


def test_target_roundtrips():
    kind, payload = load_document(dump_document(DOCS["vec"]))
    assert kind == "target"
    assert payload == ("vector", (Fraction(2, 3), Fraction(1, 5), Fraction(1)))
    kind, payload = load_document(dump_document(DOCS["step2"]))
    assert kind == "target"
    assert payload == (
        "step", StepFn((0, "1/3", 1), ("3/4", "5/8"), (0, "1/2", "5/8"))
    )


def test_schedule_roundtrips():
    assert roundtrip(DOCS["sizes"]) == RealizationSchedule((3, 6, 12))
    assert roundtrip(DOCS["denoms"]) == DenseSubgroupSpec((2, 6, 30))


# ---------------------------------------------------------------------------
# rejection paths


def test_floats_are_rejected_everywhere():
    with pytest.raises(DocumentError):
        parse_document('{"kind": "class", "type": "soft", "values": [0.5]}')
    with pytest.raises(DocumentError):
        parse_document('{"kind": "class", "type": "soft", "values": [NaN]}')


def test_unknown_kind_and_shape_errors():
    with pytest.raises(DocumentError):
        parse_document('{"kind": "mystery"}')
    with pytest.raises(DocumentError, match="unknown document kind"):
        parse_document('{"kind": "measure", "lebesgue_weight": "1", "atoms": []}')
    with pytest.raises(DocumentError):
        parse_document("[1, 2]")
    with pytest.raises(DocumentError):
        parse_document("{not json")


def test_missing_fields_are_reported():
    with pytest.raises(DocumentError) as err:
        load_document('{"kind": "class", "type": "proj"}')
    assert "values" in str(err.value)


def test_semantic_errors_become_document_errors():
    # a soft class must be strictly positive; the decoder wraps the
    # constructor's complaint
    with pytest.raises(DocumentError):
        load_document('{"kind": "class", "type": "soft", "values": ["0"]}')
    with pytest.raises(DocumentError):
        load_document('{"kind": "schedule"}')
    with pytest.raises(DocumentError):
        load_document('{"kind": "schedule", "sizes": [2], "denominators": [2]}')


def test_all_kinds_are_covered_by_tests():
    assert set(KINDS) == {
        "wmodel",
        "pogroup",
        "invariant",
        "morphism",
        "class",
        "target",
        "schedule",
    }


def test_dump_is_deterministic():
    doc = encode_wmodel(two_trace_model())
    once, twice = dump_document(doc), dump_document(doc)
    assert once == twice
    assert once.endswith("\n")
    # key order is canonical regardless of construction order
    shuffled = dict(reversed(list(doc.items())))
    assert dump_document(shuffled) == once


# ---------------------------------------------------------------------------
# the decoder on mutated golden documents

# small values only, so that no mutation asks for a large construction
RETYPES = (None, True, 0, -1, 3, "", "x", "1/0", "2/3", "1e400", [], {},
           [[1, "1/2"]], {"type": "simplicial"})


def _paths(node, path=()):
    """Every position in a document, the root included."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


def _mutate(doc, path, op: str, value):
    """Drop, retype, turn into a float or nest in a list the node at path."""
    if not path:
        return {"drop": {}, "retype": value, "float": 0.5, "nest": [doc]}[op]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = value
    elif op == "float":
        parent[key] = 0.5
    else:
        parent[key] = [parent[key]]
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_golden_documents_decode_or_raise_document_errors(data):
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(("drop", "retype", "float", "nest")))
        value = copy.deepcopy(data.draw(st.sampled_from(RETYPES)))
        doc = _mutate(doc, path, op, value)
    try:
        load_document(json.dumps(doc))
    except ValueError:  # DocumentError is one
        pass
