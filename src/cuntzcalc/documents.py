"""JSON documents for models, invariants, morphisms, and targets.

Rationals travel as strings like "3/4" (integers may stay bare JSON
numbers); floats are rejected at parse time so nothing inexact can reach
an order decision.

``parse_rational`` reads the common spellings, an ASCII ``[-]digits`` or
``[-]digits/digits`` with a nonzero denominator, as ``Fraction(int(n),
int(d))``.  Every other string (whitespace, ``+``, decimals, exponents,
underscores, non-ASCII digits, a zero denominator, more digits than
``sys.get_int_max_str_digits()``) takes the ``Fraction(str)`` path, which
accepts and refuses exactly as before, with the same messages.

Every document is decoded by one ``json.JSONDecoder`` built at import.  It
keeps nothing between documents: its scanner clears its key memo after
every call, a refused one included, so a document decodes the same whatever
was decoded before it.  ``parse_document`` makes the one check that
``json.loads`` adds to ``decode``, the refusal of a leading UTF-8 BOM.

``dump_document`` writes exactly the bytes of ``json.dumps(doc,
sort_keys=True, indent=2) + "\\n"``, without the pure-Python encoder that
``indent`` selects.  It takes dicts with str keys, lists, tuples, str, int,
bool and None, and raises ``TypeError`` on anything else, floats included.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Union

from .elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
)
from .linalg import vneg
from .ordmon import (
    GeneratedCone,
    LexicographicCone,
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
)
from .wmodel import (
    CuntzClass,
    K0Model,
    PurelyInfiniteModel,
    WModel,
    purely_infinite,
)

if TYPE_CHECKING:  # goodearl is imported by the first step target or schedule
    from .goodearl import RealizationSchedule, StepFn


class DocumentError(ValueError):
    """Malformed or mistyped document payload."""


def _clip(text: str) -> str:
    """``text``, or past 60 characters its first 40 and its length: a message
    never repeats a long input in full."""
    if len(text) <= 60:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


def _reject_float(text: str) -> None:
    raise DocumentError(f"floats are not accepted in documents: {_clip(text)}")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise DocumentError(f"expected a rational, got {_clip(repr(value))}")
    num, slash, den = value.partition("/")
    if value.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):  # past the digit limit, or a zero denominator
            pass  # refused below as Fraction(value) refuses it
    if "e" in value.lower():  # Fraction would expand "1e999999999" in full
        raise DocumentError(f"exponents are not accepted in rationals: {_clip(repr(value))}")
    if "_" not in value:  # Fraction takes "1_000" from Python 3.11 on, not before
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DocumentError(f"bad rational string {_clip(repr(value))}")


def parse_int(value) -> int:
    if type(value) is int:  # not a bool
        return value
    q = parse_rational(value)
    if q.denominator != 1:
        raise DocumentError(f"expected an integer, got {_clip(str(q))}")
    return int(q)


def rational_str(q) -> str:
    return str(q if isinstance(q, Fraction) else Fraction(q))


def rationals(values) -> list[str]:
    return [rational_str(q) for q in values]


_JSON_TYPES = ((dict, "an object"), (list, "an array"), (str, "a string"),
               (bool, "a boolean"), (int, "a number"), (type(None), "null"))


def _json_type(value) -> str:
    return next(name for cls, name in _JSON_TYPES if isinstance(value, cls))


def _array(values, name: str) -> list:
    """``values`` if it is a JSON array: a string or an object would
    otherwise be read element by element, as characters or keys."""
    if not isinstance(values, list):
        raise DocumentError(f"{name} must be an array, not {_json_type(values)}")
    return values


def _named(parse, value, name: str):
    """``parse(value)``, refused with the field ``name`` in front."""
    try:
        return parse(value)
    except DocumentError as exc:
        raise DocumentError(f"{name}: {exc}") from exc


def _parse_vector(values, name: str, parse=parse_rational) -> tuple:
    """``parse`` of each element; a refusal names the element, as in
    ``unit[1]``, by a name built only then."""
    parsed = []
    values = _array(values, name)
    try:
        for v in values:
            parsed.append(parse(v))
    except DocumentError as exc:
        raise DocumentError(f"{name}[{len(parsed)}]: {exc}") from exc
    return tuple(parsed)


def _parse_int_vector(values, name: str) -> tuple[int, ...]:
    return _parse_vector(values, name, parse_int)


def _parse_matrix(rows, name: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(_parse_vector(r, f"{name}[{i}]") for i, r in enumerate(_array(rows, name)))


def _parse_int_matrix(rows, name: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_int_vector(r, f"{name}[{i}]") for i, r in enumerate(_array(rows, name)))


def _field(payload: dict, key: str):
    if key not in payload:
        raise DocumentError(f"missing field {key!r}")
    return payload[key]


def _object(payload: dict, key: str) -> dict:
    value = _field(payload, key)
    if not isinstance(value, dict):
        raise DocumentError(f"{key} must be an object, not {_json_type(value)}")
    return value


# ---------------------------------------------------------------------------
# Per-kind encoders and decoders


def _encode_k0(k0: K0Model) -> dict:
    return {
        "rank": k0.rank,
        "states": [rationals(row) for row in k0.state_matrix],
        "unit": list(k0.unit),
    }


def _decode_k0(k0_doc: dict, labels) -> K0Model:
    """K0 data, with ``labels``, a list of strings, naming the traces its
    state rows pair with (the defaults tau1, ..., taun when absent, null or
    empty)."""
    rank = _named(parse_int, _field(k0_doc, "rank"), "rank")
    states = _parse_matrix(_field(k0_doc, "states"), "states")
    unit = _parse_int_vector(_field(k0_doc, "unit"), "unit")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(t, str) for t in labels)
    ):
        raise DocumentError("trace_labels must be a list of strings")
    return K0Model(rank, states, unit, labels)


def encode_wmodel(model: WModel) -> dict:
    if isinstance(model, PurelyInfiniteModel):
        return {"kind": "wmodel", "variant": "purely-infinite"}
    return {
        "kind": "wmodel",
        "variant": "finite",
        **_encode_k0(model.k0),
        "trace_labels": list(model.k0.labels),
    }


def decode_wmodel(payload: dict) -> WModel:
    variant = payload.get("variant", "finite")
    if variant == "purely-infinite":
        return purely_infinite()
    if variant != "finite":
        raise DocumentError(f"unknown wmodel variant {_clip(repr(variant))}")
    return WModel(_decode_k0(payload, payload.get("trace_labels")))


def decode_pogroup(payload: dict) -> PoGroupModel:
    """A pogroup, refusing a generated cone that is not a positive cone.

    In rank 1, generators of both signs span the subgroup dZ, d their gcd.
    In any rank, if the table of sums holds -g for a generator g, that is,
    -g is in NG, then g and -g both lie in the cone, so the cone contains
    the line Zg.  The table holds only sums of at most ``coeff_bound``
    generators, so a line reached only by longer sums passes; deciding that
    needs a linear program.
    """
    cone_doc = _object(payload, "cone")
    ctype = _field(cone_doc, "type")
    if ctype == "simplicial":
        cone: Any = None  # its width is the rank, read below
    elif ctype == "strict-states":
        cone = StrictStateCone(_parse_matrix(_field(cone_doc, "states"), "states"))
    elif ctype == "generated":
        cone = GeneratedCone(
            _parse_int_matrix(_field(cone_doc, "generators"), "generators"),
            _named(parse_int, cone_doc.get("coeff_bound", 24), "coeff_bound"),
        )
        # in rank 1, generators of both signs span a subgroup dZ, not a cone
        if cone.width == 1 and len({g > 0 for g, in cone.generators}) == 2:
            d = math.gcd(*[g for g, in cone.generators])
            raise ValueError(f"rank-1 generators of both signs span the subgroup {d}Z, "
                             "not a positive cone")
        for g in cone.generators:
            if vneg(g) in cone.sums:
                raise ValueError(f"the cone holds the generator {list(g)} and its negation, "
                                 "so it contains a line, not a positive cone")
    elif ctype == "lexicographic":
        cone = LexicographicCone()
    else:
        raise DocumentError(f"unknown cone type {_clip(repr(ctype))}")
    rank = _named(parse_int, _field(payload, "rank"), "rank")
    return PoGroupModel(
        rank,
        SimplicialCone(rank) if cone is None else cone,
        _parse_int_vector(_field(payload, "unit"), "unit"),
    )


def _encode_group(group: AbelianGroupData) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def _decode_group(payload: dict) -> AbelianGroupData:
    return AbelianGroupData(
        _named(parse_int, _field(payload, "free_rank"), "free_rank"),
        _parse_int_vector(payload.get("torsion", []), "torsion"),
    )


def encode_invariant(inv: ElliottInvariant) -> dict:
    return {
        "kind": "invariant",
        "k0": _encode_k0(inv.k0),
        "k1": _encode_group(inv.k1),
        "trace_labels": list(inv.k0.labels),
    }


def decode_invariant(payload: dict) -> ElliottInvariant:
    return ElliottInvariant(
        _decode_k0(_object(payload, "k0"), payload.get("trace_labels")),
        _decode_group(_object(payload, "k1")),
    )


def decode_morphism(
    payload: dict,
) -> tuple[InvariantMorphism, ElliottInvariant, ElliottInvariant]:
    source = decode_invariant(_object(payload, "source"))
    target = decode_invariant(_object(payload, "target"))
    theta1_doc = _object(payload, "theta1")
    theta1 = AbelianGroupHom(
        _decode_group(_object(theta1_doc, "source")),
        _decode_group(_object(theta1_doc, "target")),
        _parse_int_matrix(_field(theta1_doc, "matrix"), "matrix"),
    )
    mor = InvariantMorphism(
        _parse_int_matrix(_field(payload, "theta0"), "theta0"),
        theta1,
        _parse_matrix(_field(payload, "gamma"), "gamma"),
    )
    return mor, source, target


def encode_class(x: CuntzClass) -> dict:
    if x.is_proj:
        return {"kind": "class", "type": "proj", "values": list(x.values)}
    return {"kind": "class", "type": "soft", "values": rationals(x.values)}


def decode_class(payload: dict) -> CuntzClass:
    ctype = _field(payload, "type")
    values = _field(payload, "values")
    if ctype == "proj":
        return CuntzClass.proj(_parse_int_vector(values, "values"))
    if ctype == "soft":
        return CuntzClass.soft(_parse_vector(values, "values"))
    raise DocumentError(f"unknown class type {_clip(repr(ctype))}")


TargetPayload = Union[tuple[Fraction, ...], "StepFn"]


def decode_target(payload: dict) -> tuple[str, TargetPayload]:
    ttype = _field(payload, "type")
    if ttype == "vector":
        return "vector", _parse_vector(_field(payload, "values"), "values")
    if ttype == "step":
        from .goodearl import StepFn

        return "step", StepFn(
            _parse_vector(_field(payload, "partition"), "partition"),
            _parse_vector(_field(payload, "interval_values"), "interval_values"),
            _parse_vector(_field(payload, "point_values"), "point_values"),
        )
    raise DocumentError(f"unknown target type {_clip(repr(ttype))}")


# Largest denominator of a vector target's chain.
MAX_DENOMINATOR = 2**30


def decode_schedule(payload: dict) -> tuple[str, RealizationSchedule]:
    """The spelling, ``sizes`` or ``denominators``, and the chain it spells.

    Both spell one divisibility chain: the matrix sizes of a step target's
    stages or the denominators of a vector target's.  Only denominators are
    capped here; ``cli`` caps the sizes a realization uses.
    """
    from .goodearl import RealizationSchedule

    has_sizes = "sizes" in payload
    if has_sizes == ("denominators" in payload):
        raise DocumentError("schedule needs exactly one of sizes/denominators")
    spelling = "sizes" if has_sizes else "denominators"
    chain = RealizationSchedule(_parse_int_vector(payload[spelling], spelling))
    if spelling == "denominators" and chain.sizes[-1] > MAX_DENOMINATOR:
        raise ValueError(f"denominators must be at most {MAX_DENOMINATOR}")
    return spelling, chain


_DECODERS = {
    "wmodel": decode_wmodel,
    "pogroup": decode_pogroup,
    "invariant": decode_invariant,
    "morphism": decode_morphism,
    "class": decode_class,
    "target": decode_target,
    "schedule": decode_schedule,
}
KINDS = tuple(_DECODERS)


_JSON = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def parse_document(text: str) -> tuple[str, dict]:
    """Raw parse: returns (kind, payload) with floats rejected."""
    try:
        if text.startswith("\ufeff"):  # json.loads refuses it before decode
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        payload = _JSON.decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except DocumentError:  # from _reject_float
        raise
    except ValueError as exc:  # an integer past the digit limit; its text varies by Python
        limit = sys.get_int_max_str_digits()
        message = f"invalid JSON: an integer has more than {limit} digits"
        raise DocumentError(message) from exc
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {_clip(repr(kind))}")
    return kind, payload


def load_document(text: str):
    """Parse and decode: returns (kind, decoded object)."""
    kind, payload = parse_document(text)
    try:
        return kind, _DECODERS[kind](payload)
    except DocumentError:
        raise
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"invalid {kind} document: {exc}") from exc


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dump(value, indent: str) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it at
    the depth whose lines start with ``indent``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_quote(k)}: {_dump(value[k], inner)}" for k in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + ",\n".join([inner + _dump(v, inner) for v in value]) + f"\n{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_document(doc: dict) -> str:
    """Deterministic serialization of an already-encoded document: the bytes
    of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``."""
    return _dump(doc, "") + "\n"
