"""Golden stdout for the command-line front end.

Each case runs ``main(argv)`` in process on a fixed set of documents and
compares the exit code, the stdout bytes and, for ``--out``, the written
document with ``tests/golden/cli_stdout.json``.  The corpus, in
``tests/cli_corpus.py``, touches every subcommand, all five ``check``
suites on finite and purely infinite models, each pogroup cone type,
``--format table`` and ``--out``, so a refactor that changes any report
shows up here byte for byte.

Regenerate the expectations, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_cli_golden.py``; it prints each case it
added, removed or changed.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from cli_corpus import CASES, run_case

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_matches_golden_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, golden, tmp_path):
    got = run_case(CASES[case], tmp_path)
    want = golden[case]
    assert got["exit"] == want["exit"]
    assert got["stdout"].encode("utf-8") == want["stdout"].encode("utf-8")
    assert got["out"] == want["out"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        captured = {case: run_case(argv, Path(tmp)) for case, argv in sorted(CASES.items())}
    before = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for label, names in (
        ("added", sorted(captured.keys() - before.keys())),
        ("removed", sorted(before.keys() - captured.keys())),
        ("changed", sorted(c for c in captured.keys() & before.keys()
                           if captured[c] != before[c])),
    ):
        for name in names:
            print(f"{label}: {name}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(captured, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    sys.exit(0)
