"""Command dispatch: the one-command parser and the exit-code contract.

``main`` builds only the subparser its first argument names.  Here that
parser is held to the full one on every golden argv and on the usual
mistakes: the same namespace, or the same exit with the same output.  Each
command takes ``--format`` and only the options its handler reads, spelled
in full; any other option, or an abbreviation, exits 2 before any handler
runs.  A hypothesis fuzz then runs ``main`` on command names, option orders
and junk tokens over the golden documents, and every run must exit 0 or 2.
"""

import argparse
import contextlib
import inspect
import io

import pytest
from cli_corpus import (
    CORPUS,
    DOCS,
    OPTION_VALUES,
    OWN_OPTIONS,
    REFUSED,
    parse,
    required,
    run_case,
    with_option,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntzcalc import cli
from cuntzcalc.cli import (
    COMMANDS,
    EXIT_INVALID,
    EXIT_OK,
    SAMPLE_BOUND_CAP,
    SUITES,
    VECTOR_STAGES_CAP,
    build_parser,
    main,
)


@pytest.fixture(scope="module")
def full_parser():
    return build_parser()


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_one_command_parser_agrees_with_the_full_one(argv, full_parser):
    one = build_parser(argv[0] if argv else None)
    assert parse(one, argv) == parse(full_parser, argv)


def test_the_corpus_reaches_the_errors_of_the_top_level_parser():
    # an extra positional is refused by the top-level parser, whose usage
    # line names every command even when it holds one subparser
    argv = ["k0star", "m.json", "extra.json"]
    result, out, err = parse(build_parser("k0star"), argv)
    assert result == ("exit", EXIT_INVALID) and out == ""
    assert err.startswith("usage: cuntzcalc [-h]")
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert "unrecognized arguments: extra.json" in err


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _commands(parser: argparse.ArgumentParser) -> list[str]:
    return list(_subparsers(parser))


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    return {s for action in parser._actions for s in action.option_strings}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_takes_format_and_only_the_options_it_reads(command, full_parser):
    want = {"-h", "--help", "--format", *OWN_OPTIONS[command]}
    assert _option_strings(_subparsers(build_parser(command))[command]) == want
    assert _option_strings(_subparsers(full_parser)[command]) == want


def test_the_commands_have_21_settable_values_and_no_abbreviations(full_parser):
    subparsers = _subparsers(full_parser).values()
    assert sum(len(_option_strings(p)) - 2 for p in subparsers) == 21
    assert not full_parser.allow_abbrev
    assert not any(p.allow_abbrev for p in subparsers)


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_an_option_the_command_does_not_read_exits_2_before_any_handler(
        argv, monkeypatch, capsys):
    reached = []
    for name, (_, arguments) in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, name, (reached.append, arguments))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INVALID and out == "" and not reached
    assert err.endswith(f"cuntzcalc: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("command, option", [
    (name, option) for name in COMMANDS for option in (*OWN_OPTIONS[name], "--format")
])
def test_each_option_parses_spelled_apart_or_with_an_equals_sign(command, option, full_parser):
    value, parsed = OPTION_VALUES[option]
    apart = with_option(command, option, value)
    joined = [*required(command), f"{option}={value}"]
    for parser in (build_parser(command), full_parser):
        assert parser.parse_args(apart) == parser.parse_args(joined)
        assert getattr(parser.parse_args(joined), option[2:]) == parsed


def test_a_named_command_gets_only_its_subparser():
    for name in COMMANDS:
        assert _commands(build_parser(name)) == [name]
    for first in (None, "--help", "nonsense", "--seed"):
        assert _commands(build_parser(first)) == list(COMMANDS)


def test_main_builds_a_fresh_parser_on_every_call(monkeypatch, capsys):
    built = []

    def counting(command=None):
        parser = real(command)
        built.append((command, parser))
        return parser

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(2):
        assert main(["k0star", "/nonexistent/m.json"]) == EXIT_INVALID
    with pytest.raises(SystemExit):
        main([])
    assert [command for command, _ in built] == ["k0star", "k0star", None]
    assert len({id(parser) for _, parser in built}) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes under fuzzed argument lists

# values above every cap, so that validation refuses them before any work
OVERSIZE = (str(SAMPLE_BOUND_CAP + 1), str(VECTOR_STAGES_CAP + 1), str(10**30))
OPTIONS = {
    "--seed": ("0", "7", "-3", "x"),
    "--bound": ("1", "2", "3", "3", "0", "-1", "1/2", *OVERSIZE),
    "--stages": ("1", "2", "3", "3", "0", "-2", "x", *OVERSIZE),
    "--format": ("json", "table", "table", "xml"),
    "--out": ("@out", "@dir", "@nodir/out"),  # the last two cannot be written
}
JUNK = ("", "-", "--", "-z", "--nope", "1/0", "0.5", "1e3", "@missing", "@dir")
NAMES = (*COMMANDS, "nonsense", "Compare", "--help")
TOKENS = (*("@" + name for name in sorted(DOCS)), *JUNK)


def _docs(*kinds):
    return tuple(f"@{name}" for name, doc in sorted(DOCS.items()) if doc.get("kind") in kinds)


# the documents or words each positional usually gets
WORDS = {
    "model": _docs("wmodel", "pogroup"),
    "x": _docs("class"),
    "y": _docs("class"),
    "factor": ("2/3", "2", "0", "-1/2"),
    "values": ("1/2,1/3", "0,1", "1", "2/3,x"),
    "suite": SUITES,
    "invariant": _docs("invariant"),
    "morphism": _docs("morphism"),
    "target": _docs("target"),
    "schedule": _docs("schedule"),
}
# the largest size each guarded routine may start on: --stages and --bound
# up to 3 are sent, and the searches default to the multiplier 10
LIMITS = {
    "realize": ("stages", 3),
    "summable_decomposition": ("i_max", 3),
    "projection_sup_realization": ("i_max", 3),
    "is_weakly_unperforated": ("n_max", 10),
    "archimedean_witness": ("n_max", 10),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    run_case(["k0star", "@m2"], path)  # writes every golden document
    (path / "dir").mkdir()
    return path


@pytest.fixture(scope="module")
def guarded():
    """Make a realization or search that starts above the sizes the fuzz
    sends fail its run with exit 1: oversize values must stop at validation."""

    def guard(name):
        real = getattr(cli, name)
        param, limit = LIMITS[name]

        def checked(*args, **kwargs):
            size = inspect.signature(real).bind(*args, **kwargs).arguments[param]
            if size > limit:
                raise RuntimeError(f"{name} started with {param}={size}")
            return real(*args, **kwargs)

        return checked

    with pytest.MonkeyPatch.context() as mp:
        for name in LIMITS:
            mp.setattr(cli, name, guard(name))
        yield


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(NAMES))
    _, arguments = COMMANDS.get(command, (None, ()))
    tokens = [
        [draw(st.sampled_from(TOKENS if draw(st.integers(0, 4)) == 4 else WORDS[name]))]
        for name, kwargs in arguments
        if not name.startswith("--") and (not kwargs.get("nargs") or draw(st.booleans()))
    ]
    if draw(st.integers(0, 3)) == 3:
        tokens.append([draw(st.sampled_from(TOKENS))])
    # options mostly from the command's own, now and then one it refuses
    own = sorted({*OWN_OPTIONS.get(command, OPTIONS), "--format"})
    names = [draw(st.sampled_from(own if draw(st.integers(0, 5)) else sorted(OPTIONS)))
             for _ in range(draw(st.integers(0, 3)))]
    options = [[o, draw(st.sampled_from(OPTIONS[o]))] for o in names]
    # now and then an option goes before the command
    before = min(len(options), draw(st.integers(0, 3)) // 3)
    after = draw(st.permutations(tokens + options[before:]))
    return [*sum(options[:before], []), command, *sum(after, [])]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argvs())
# a report with an out document, whose --out cannot be written
@example(["add", "@z", "@z1", "@z1", "--out", "@dir"])
@example(["functor", "@inv", "--out", "@nodir/out"])
def test_fuzzed_argument_lists_exit_0_or_2(workdir, guarded, argv):
    paths = {f"@{name}": str(workdir / f"{name}.json") for name in DOCS}
    paths["@out"] = str(workdir / "out.json")
    paths["@missing"] = str(workdir / "missing.json")
    paths["@dir"] = str(workdir / "dir")
    paths["@nodir/out"] = str(workdir / "nodir" / "out.json")
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_INVALID), (argv, err.getvalue())
