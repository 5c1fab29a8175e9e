"""``cli.build_parser`` prints what argparse's own prefix gives, and
``cli._read`` reads what text mode reads.

``build_parser`` hands ``add_subparsers`` the prefix ``prog=parser.prog``
instead of letting argparse derive it by formatting a usage line.  A copy
of the parser that derives it is the reference: on every argv of the
dispatch corpus, with no arguments, ``--help`` and each ``<command>
--help``, both must give the same namespace, or the same exit code, stdout
and stderr.  argparse's usage and help formatting differ by Python
version, so this runs on every supported one.

``_read`` reads a document's bytes unbuffered and decodes them once.  It
must return what ``open(path, encoding="utf-8").read()`` handed to
``documents.load_document`` returns, or raise the same exception class
with the same message: on each kind of line ending, a raw CR inside a
string, a BOM, bytes that are not UTF-8, an empty file, a directory and a
missing path.  The body uses only the standard library, so it also runs
without pytest: ``PYTHONPATH=src python tests/test_argv_bytes.py``.
"""

import argparse
import tempfile
from pathlib import Path

from cli_corpus import CORPUS, parse

from cuntzcalc import cli
from cuntzcalc import documents as docs
from cuntzcalc.cli import COMMANDS, OUT_KEYS


def reference_build_parser(command=None) -> argparse.ArgumentParser:
    """``cli.build_parser`` as it was when argparse derived the subparsers'
    prefix itself."""
    parser = argparse.ArgumentParser(
        prog="cuntzcalc", allow_abbrev=False,
        description="Exact computations in ordered-semigroup models.",
    )
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{%s}" % ",".join(COMMANDS) if one else None,
    )
    for name in (command,) if one else COMMANDS:
        func, arguments = COMMANDS[name]
        p = sub.add_parser(name, allow_abbrev=False)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        if name in OUT_KEYS:
            p.add_argument("--out")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=func)
    return parser


ARGVS = [*CORPUS, [], ["--help"], *([name, "--help"] for name in COMMANDS)]


def test_every_argv_gives_the_bytes_of_the_derived_prefix():
    helps = 0
    for argv in ARGVS:
        first = argv[0] if argv else None
        got = parse(cli.build_parser(first), argv)
        assert got == parse(reference_build_parser(first), argv), argv
        helps += "--help" in argv and got[1].startswith("usage: cuntzcalc ")
    assert helps >= 1 + len(COMMANDS), helps


def test_each_subparser_has_the_derived_prog_and_usage():
    for command in (None, *COMMANDS):
        ours, theirs = cli.build_parser(command), reference_build_parser(command)
        [sub] = [a for a in ours._actions if isinstance(a, argparse._SubParsersAction)]
        [ref] = [a for a in theirs._actions if isinstance(a, argparse._SubParsersAction)]
        assert sub._prog_prefix == ref._prog_prefix == "cuntzcalc"
        for name, parser in sub.choices.items():
            assert parser.prog == ref.choices[name].prog == f"cuntzcalc {name}"
            assert parser.format_usage() == ref.choices[name].format_usage()


def _text_mode(path):
    with open(path, encoding="utf-8") as f:
        return docs.load_document(f.read())[1]


def _outcome(read, path):
    try:
        return "read", read(path)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


CLASS = '{"kind": "class", "type": "proj", "values": [1, 0]}'
LINES = ['{', '"kind": "class",', '"type": "proj",', '"values": [1, 0]', '}']
LABELS = ('{"kind": "invariant", "k0": {"rank": 1, "states": [[1]], "unit": [1]}, '
          '"k1": {"free_rank": 0, "torsion": []}, "trace_labels": ["τ≤γ"]}')
# file name -> its bytes, and what text mode gives: a document or a refusal
READ, REFUSED, UNDECODABLE = "read", docs.DocumentError, UnicodeDecodeError
CONTENTS = {
    "lf": ("\n".join(LINES).encode(), READ),
    "crlf": ("\r\n".join(LINES).encode(), READ),
    "cr": ("\r".join(LINES).encode(), READ),
    "mixed": (("\r\n".join(LINES[:2]) + "\r" + "\n".join(LINES[2:]) + "\r\n\r").encode(), READ),
    "labels": (LABELS.encode(), READ),
    # text mode turns a CR inside a string into a newline, which json refuses
    # at the offset of the translated text
    "cr-in-string": ('{\r\n"kind": "cla\rss",\r\n"type": "proj"}'.encode(), REFUSED),
    "cr-lines-in-string": ('{\r"kind":\r"cla\rss"}'.encode(), REFUSED),
    "crlf-in-string": ('{\r\n\r\n"kind": "class\r\n",\r\n"values": [1]}'.encode(), REFUSED),
    "bom": (b"\xef\xbb\xbf" + CLASS.encode(), REFUSED),
    "empty": (b"", REFUSED),
    "blank": (b"\r\n \r", REFUSED),
    "ff": (CLASS.encode()[:10] + b"\xff" + CLASS.encode()[10:], UNDECODABLE),
    "ff-past-8k": (b" " * 10_000 + b"\xff" + CLASS.encode(), UNDECODABLE),
    "cut-at-eof": ('{"kind": "γ'.encode()[:-1], UNDECODABLE),
    "cut-after-crlf": ('{\r\n"kind": "≤'.encode()[:-2], UNDECODABLE),
}


def test_reads_match_text_mode():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cases = []
        for name, (data, want) in CONTENTS.items():
            path = root / f"{name}.json"
            path.write_bytes(data)
            cases.append((path, want))
        (root / "dir.json").mkdir()
        cases += [(root / "dir.json", IsADirectoryError),
                  (root / "missing.json", FileNotFoundError)]
        for path, want in cases:
            got = _outcome(lambda p: cli._read(str(p), *docs.KINDS), path)
            assert got == _outcome(_text_mode, path), path.name
            assert got[0] == want, (path.name, got)


if __name__ == "__main__":
    test_every_argv_gives_the_bytes_of_the_derived_prefix()
    test_each_subparser_has_the_derived_prog_and_usage()
    test_reads_match_text_mode()
    print(f"build_parser matches argparse's derived prefix on {len(ARGVS)} argvs, and "
          f"_read matches text mode on {len(CONTENTS) + 2} files")
