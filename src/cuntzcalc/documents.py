"""JSON documents for models, invariants, morphisms, and targets.

Rationals travel as strings like "3/4" (integers may stay bare JSON
numbers); floats are rejected at parse time so nothing inexact can reach
an order decision.  ``dump_document`` is deterministic: sorted keys, fixed
indentation, trailing newline.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .approx import DenseSubgroupSpec
from .elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
)
from .goodearl import RealizationSchedule, StepFn
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


class DocumentError(ValueError):
    """Malformed or mistyped document payload."""


def _reject_float(text: str) -> None:
    raise DocumentError(f"floats are not accepted in documents: {text}")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():  # Fraction would expand "1e999999999" in full
            raise DocumentError(f"exponents are not accepted in rationals: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational string {value!r}") from exc
    raise DocumentError(f"expected a rational, got {value!r}")


def parse_int(value) -> int:
    q = parse_rational(value)
    if q.denominator != 1:
        raise DocumentError(f"expected an integer, got {q}")
    return int(q)


def rational_str(q) -> str:
    return str(Fraction(q))


def rationals(values) -> list[str]:
    return [rational_str(q) for q in values]


def _parse_vector(values) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in values)


def _parse_int_vector(values) -> tuple[int, ...]:
    return tuple(parse_int(v) for v in values)


def _parse_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(_parse_vector(r) for r in rows)


def _parse_int_matrix(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_int_vector(r) for r in rows)


def _field(payload: dict, key: str):
    if key not in payload:
        raise DocumentError(f"missing field {key!r}")
    return payload[key]


# ---------------------------------------------------------------------------
# Per-kind encoders and decoders


def _encode_k0(k0: K0Model) -> dict:
    return {
        "rank": k0.rank,
        "states": [rationals(row) for row in k0.state_matrix],
        "unit": list(k0.unit),
    }


def _decode_k0(k0_doc: dict, labels) -> K0Model:
    """K0 data, with ``labels`` naming the traces its state rows pair with
    (the defaults tau1, ..., taun when absent or empty)."""
    return K0Model(
        parse_int(_field(k0_doc, "rank")),
        _parse_matrix(_field(k0_doc, "states")),
        _parse_int_vector(_field(k0_doc, "unit")),
        labels,
    )


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
        raise DocumentError(f"unknown wmodel variant {variant!r}")
    return WModel(_decode_k0(payload, payload.get("trace_labels")))


def decode_pogroup(payload: dict) -> PoGroupModel:
    cone_doc = _field(payload, "cone")
    ctype = _field(cone_doc, "type")
    if ctype == "simplicial":
        cone: Any = SimplicialCone()
    elif ctype == "strict-states":
        cone = StrictStateCone(_parse_matrix(_field(cone_doc, "states")))
    elif ctype == "generated":
        cone = GeneratedCone(
            _parse_int_matrix(_field(cone_doc, "generators")),
            parse_int(cone_doc.get("coeff_bound", 24)),
        )
    elif ctype == "lexicographic":
        cone = LexicographicCone()
    else:
        raise DocumentError(f"unknown cone type {ctype!r}")
    return PoGroupModel(
        parse_int(_field(payload, "rank")),
        cone,
        _parse_int_vector(_field(payload, "unit")),
    )


def _encode_group(group: AbelianGroupData) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


def _decode_group(payload: dict) -> AbelianGroupData:
    return AbelianGroupData(
        parse_int(_field(payload, "free_rank")),
        _parse_int_vector(payload.get("torsion", ())),
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
        _decode_k0(_field(payload, "k0"), payload.get("trace_labels")),
        _decode_group(_field(payload, "k1")),
    )


def decode_morphism(
    payload: dict,
) -> tuple[InvariantMorphism, ElliottInvariant, ElliottInvariant]:
    source = decode_invariant(_field(payload, "source"))
    target = decode_invariant(_field(payload, "target"))
    theta1_doc = _field(payload, "theta1")
    theta1 = AbelianGroupHom(
        _decode_group(_field(theta1_doc, "source")),
        _decode_group(_field(theta1_doc, "target")),
        _parse_int_matrix(_field(theta1_doc, "matrix")),
    )
    mor = InvariantMorphism(
        _parse_int_matrix(_field(payload, "theta0")),
        theta1,
        _parse_matrix(_field(payload, "gamma")),
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
        return CuntzClass.proj(_parse_int_vector(values))
    if ctype == "soft":
        return CuntzClass.soft(_parse_vector(values))
    raise DocumentError(f"unknown class type {ctype!r}")


TargetPayload = Union[tuple[Fraction, ...], StepFn]


def decode_target(payload: dict) -> tuple[str, TargetPayload]:
    ttype = _field(payload, "type")
    if ttype == "vector":
        return "vector", _parse_vector(_field(payload, "values"))
    if ttype == "step":
        return "step", StepFn(
            _parse_vector(_field(payload, "partition")),
            _parse_vector(_field(payload, "interval_values")),
            _parse_vector(_field(payload, "point_values")),
        )
    raise DocumentError(f"unknown target type {ttype!r}")


def decode_schedule(payload: dict):
    has_sizes = "sizes" in payload
    has_denoms = "denominators" in payload
    if has_sizes == has_denoms:
        raise DocumentError("schedule needs exactly one of sizes/denominators")
    if has_sizes:
        return RealizationSchedule(_parse_int_vector(payload["sizes"]))
    return DenseSubgroupSpec(_parse_int_vector(payload["denominators"]))


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


def parse_document(text: str) -> tuple[str, dict]:
    """Raw parse: returns (kind, payload) with floats rejected."""
    try:
        payload = json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_float
        )
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
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


def dump_document(doc: dict) -> str:
    """Deterministic serialization of an already-encoded document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
