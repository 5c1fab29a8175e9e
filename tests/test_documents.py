"""JSON documents: decoding, round-trips, the no-floats rule, and the refusal
by name of a field that holds the wrong JSON type.

The CLI writes only wmodel, invariant and class documents, so only those
have encoders and round-trip through them.  Every other kind is decoded
from literal documents, most of them the golden corpus's, and compared
field by field with objects built by hand.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import two_trace_model
from cli_corpus import DOCS

from cuntzcalc.cli import EXIT_INVALID, main
from cuntzcalc.documents import (
    KINDS,
    DocumentError,
    dump_document,
    encode_class,
    encode_invariant,
    encode_wmodel,
    load_document,
    parse_document,
    parse_int,
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
from cuntzcalc.wmodel import CuntzClass, K0Model, purely_infinite


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


def test_parse_rational_refuses_underscores_on_every_python():
    # Fraction reads "1_0" as 10 from Python 3.11 on and refuses it before
    for bad in ("1_0", "1_000/3", "1/1_0", "0.1_5"):
        with pytest.raises(DocumentError, match=f"^bad rational string '{bad}'$"):
            parse_rational(bad)
    doc = '{"kind": "class", "type": "soft", "values": ["1_0", "1"]}'
    with pytest.raises(DocumentError, match=r"^values\[0\]: bad rational string '1_0'$"):
        load_document(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "pogroup", "rank": "x", "unit": [1], "cone": {"type": "simplicial"}},
     "rank: bad rational string 'x'"),
    ({"kind": "pogroup", "rank": 2, "unit": [1, 1],
      "cone": {"type": "generated", "generators": [[1, 0], [0, 1]], "coeff_bound": True}},
     "coeff_bound: booleans are not rationals"),
    ({"kind": "invariant", "k0": {"rank": 1, "states": [["1"]], "unit": [1]},
      "k1": {"free_rank": "1/2"}},
     "free_rank: expected an integer, got 1/2"),
    ({"kind": "class", "type": "soft", "values": ["1", "2", None]},
     "values[2]: expected a rational, got None"),
    ({"kind": "schedule", "sizes": [2, 4, "8/3"]}, "sizes[2]: expected an integer, got 8/3"),
    ({"kind": "pogroup", "rank": 2, "unit": [1, 1],
      "cone": {"type": "generated", "generators": [[1, 0], [0, "1e3"]]}},
     "generators[1][1]: exponents are not accepted in rationals: '1e3'"),
], ids=["rank", "coeff_bound", "free_rank", "values", "sizes", "generators"])
def test_a_refused_value_names_its_field_and_index(doc, message):
    with pytest.raises(DocumentError) as info:
        load_document(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("doc", [
    {"kind": "k" * 5000},
    {"kind": "wmodel", "variant": "v" * 5000},
    {"kind": "class", "type": "t" * 5000, "values": []},
    {"kind": "target", "type": "t" * 5000},
    {"kind": "pogroup", "rank": 1, "unit": [1], "cone": {"type": "t" * 5000}},
], ids=["kind", "variant", "class-type", "target-type", "cone-type"])
def test_a_long_unknown_name_is_shown_by_prefix_and_length(doc):
    with pytest.raises(DocumentError, match=r"^unknown .*\.\.\. \(5002 characters\)$") as info:
        load_document(json.dumps(doc))
    assert len(str(info.value)) < 200


def test_rational_str_is_lowest_terms():
    assert rational_str(Fraction(2, 4)) == "1/2"
    assert rational_str(Fraction(4)) == "4"
    assert rational_str(-3) == "-3"


def _reference_clip(text: str) -> str:
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def reference_parse_rational(value) -> Fraction:
    """parse_rational as it read every string through Fraction(str)."""
    if isinstance(value, bool):
        raise DocumentError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise DocumentError(f"expected a rational, got {_reference_clip(repr(value))}")
    if "e" in value.lower():
        raise DocumentError(
            f"exponents are not accepted in rationals: {_reference_clip(repr(value))}")
    if "_" not in value:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DocumentError(f"bad rational string {_reference_clip(repr(value))}")


def reference_parse_int(value) -> int:
    q = reference_parse_rational(value)
    if q.denominator != 1:
        raise DocumentError(f"expected an integer, got {_reference_clip(str(q))}")
    return int(q)


def _outcome(parse, value):
    try:
        result = parse(value)
    except DocumentError as exc:
        return "refused", str(exc)
    return type(result), result


_LONG = {n: "7" * n for n in (4300, 4301, 5000)}
RATIONAL_CORPUS = (
    "3/4", "-3/6", "007/010", "-0", "0/5", "3/0", "0/0", "1/-2", "+3", " 3/4", "3/4 ",
    "1.5", "1_000", "1e3", "٣", "３", "²", "1/٣", "", "/", "1/", "/2", "-", "--3", "-/2",
    "12345678901234567890/98765432109876543210", "-1/1",
    *_LONG.values(), *(f"-{s}" for s in _LONG.values()), *(f"1/{s}" for s in _LONG.values()),
    *(f"{s}/3" for s in _LONG.values()),
    True, False, 0, -5, 10**40, None, [1], {"n": 1},
)


@pytest.mark.parametrize("value", RATIONAL_CORPUS, ids=lambda v: repr(v)[:24])
def test_parse_rational_matches_the_fraction_str_reference(value):
    # the fast path for [-]digits[/digits] must give Fraction(str)'s value,
    # and every other input its refusal, word for word
    assert _outcome(parse_rational, value) == _outcome(reference_parse_rational, value)


@pytest.mark.parametrize("value", (0, 3, -7, 10**40, True, False, "3/1", "3/2", "-6/3", None))
def test_parse_int_matches_the_reference(value):
    assert _outcome(parse_int, value) == _outcome(reference_parse_int, value)


def test_a_bom_led_document_is_refused_as_json_loads_refuses_it():
    text = "\ufeff" + json.dumps({"kind": "class", "type": "proj", "values": [1]})
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert str(info.value) == f"invalid JSON: {expected.value}" == (
        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")


@pytest.mark.parametrize("refused", [
    '{"kind": "class", "type": "soft", "values": ["1", 1.5, "2"], "x": {"kind": 1}}',
    '{"kind": "class", "type": "soft", "values": ["1", "2"',
], ids=["float-mid-object", "truncated"])
def test_a_refused_document_leaves_the_shared_decoder_as_it_was(refused):
    good = dump_document(encode_wmodel(two_trace_model()))
    first = parse_document(good)
    with pytest.raises(DocumentError):
        parse_document(refused)
    assert parse_document(good) == first
    assert first == ("wmodel", json.loads(good))


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
        "simp2": PoGroupModel(2, SimplicialCone(2), (1, 2)),
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
    assert roundtrip(DOCS["sizes"]) == ("sizes", RealizationSchedule((3, 6, 12)))
    assert roundtrip(DOCS["denoms"]) == ("denominators", RealizationSchedule((2, 6, 30)))


def test_both_schedule_spellings_decode_to_one_chain():
    for chain in ([1], [2, 6, 30], [3, 9, 27], [2, 4, 2**30]):
        (_, sizes), (_, denominators) = (
            roundtrip({"kind": "schedule", spelling: chain})
            for spelling in ("sizes", "denominators")
        )
        assert sizes == denominators == RealizationSchedule(chain)


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
    with pytest.raises(DocumentError, match="^invalid JSON: maximum recursion depth"):
        parse_document('{"kind": "class", "values": ' + "[" * 10**5 + "]" * 10**5 + "}")


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


# ---------------------------------------------------------------------------
# array and object fields of the golden documents swapped for other JSON types

# kind -> argv that decodes a document of that kind at "DOC"; "@name" stands
# for the path of DOCS[name]
SWAP_COMMANDS = {
    "wmodel": ("k0star", "DOC"),
    "pogroup": ("check", "DOC", "archimedean"),
    "invariant": ("functor", "DOC"),
    "morphism": ("morphism-check", "DOC"),
    "class": ("compare", "@m2", "DOC", "DOC"),
    "target": ("realize", "DOC", "--stages", "2"),
    "schedule": ("realize", "@step2", "DOC", "--stages", "2"),
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _container_fields(doc) -> list:
    """The path of every array or object that is the value of an object key."""
    return [path for path in _paths(doc) if path and isinstance(path[-1], str)
            and isinstance(_at(doc, path), (list, dict))]


def _swaps(value, rng: random.Random) -> list:
    """A digit string, a number, null, and an object for an array or an
    array (the object's own keys) for an object."""
    digits = str(rng.randint(10, 99))
    other = {digits: 1, str(rng.randint(1, 9)): 0} if isinstance(value, list) else sorted(value)
    return [digits, rng.randint(0, 99), None, other]


def test_swap_commands_cover_every_kind():
    assert set(SWAP_COMMANDS) == set(KINDS)


SWAPPED = sorted(n for n in DOCS
                 if DOCS[n]["kind"] in SWAP_COMMANDS and _container_fields(DOCS[n]))


@pytest.mark.parametrize("name", SWAPPED)
def test_swapped_array_and_object_fields_are_refused_by_name(tmp_path, capsys, name):
    doc_path = tmp_path / "doc.json"
    argv = []
    for arg in SWAP_COMMANDS[DOCS[name]["kind"]]:
        if arg.startswith("@"):
            other = tmp_path / "other.json"
            other.write_text(dump_document(DOCS[arg[1:]]))
            arg = str(other)
        argv.append(str(doc_path) if arg == "DOC" else arg)
    rng = random.Random(f"swap {name}")
    for field in _container_fields(DOCS[name]):
        for value in _swaps(_at(DOCS[name], field), rng):
            if field[-1] == "trace_labels" and value is None:
                continue  # null stands for the default labels
            doc = _mutate(copy.deepcopy(DOCS[name]), field, "retype", value)
            doc_path.write_text(json.dumps(doc))
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (EXIT_INVALID, ""), (field, value)
            assert err.splitlines()[0].startswith(f"error: {field[-1]} must be "), (field, value)
