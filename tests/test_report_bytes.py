"""``documents.dump_document`` writes the bytes of ``json.dumps(doc,
sort_keys=True, indent=2) + "\\n"``.

Every JSON report and ``--out`` document of the golden corpus must come
back byte for byte from its own parse, and a seeded fuzz of nested dicts,
lists and tuples must match ``json.dumps`` on this Python: non-ASCII and
astral characters, control characters, quotes, backslashes, empty
containers, bools, None and large negative ints.  A float, a ``Fraction``,
a set and a non-str key are refused with ``TypeError``.  The body uses only
the standard library, so it also runs without pytest:
``PYTHONPATH=src python tests/test_report_bytes.py``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from cuntzcalc.documents import dump_document

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"

ALPHABET = ("a", "z", "0", " ", "≤", "γ", "τ", "\U0001d538", "\x00", "\x1f", "\x7f",
            "\n", "\t", '"', "\\", "/", "'", "\u00a0", "\ufeff", "\u2028")


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return rng.choice((0, 1, -1, -(10**40) - rng.randrange(10**6), 2**63))
    if kind == 3:
        return rng.randrange(-1000, 1000)
    if kind == 4:
        return rng.choice(({}, [], ()))
    if kind in (5, 6):
        return {_text(rng): _value(rng, depth + 1) for _ in range(rng.randrange(5))}
    items = [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return items if kind == 7 else tuple(items)


def test_golden_reports_come_back_byte_for_byte():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = 0
    for case, captured in sorted(golden.items()):
        for key in ("stdout", "out"):
            text = captured[key]
            if text and text.startswith("{"):  # a JSON report, not a table
                assert dump_document(json.loads(text)) == text, (case, key)
                seen += 1
    assert seen >= 90, seen


def test_fuzzed_documents_match_json_dumps():
    rng = random.Random(2024)
    for _ in range(3000):
        doc = {_text(rng): _value(rng, 1) for _ in range(rng.randrange(6))}
        assert dump_document(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", doc


def test_floats_fractions_sets_and_other_keys_are_refused():
    for bad in (0.5, Fraction(1, 2), {1}, float("nan")):
        for doc in ({"x": bad}, {"x": [1, {"y": bad}]}):
            try:
                dump_document(doc)
            except TypeError:
                continue
            raise AssertionError(f"dump_document wrote {doc!r}")
    try:
        dump_document({1: "a"})
    except TypeError:
        pass
    else:
        raise AssertionError("dump_document wrote a dict with an int key")


if __name__ == "__main__":
    test_golden_reports_come_back_byte_for_byte()
    test_fuzzed_documents_match_json_dumps()
    test_floats_fractions_sets_and_other_keys_are_refused()
    print("dump_document gives every golden report back byte for byte, matches "
          "json.dumps(sort_keys=True, indent=2) on 3,000 fuzzed documents, and "
          "refuses floats, fractions, sets and non-str keys")
