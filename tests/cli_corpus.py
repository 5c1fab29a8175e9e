"""The CLI's argv corpora, in the standard library alone.

``DOCS`` and ``CASES`` are the golden corpus: the documents and the argv of
each case whose exit code, stdout and ``--out`` document
``tests/golden/cli_stdout.json`` pins, and ``run_case`` runs one case in
process.  ``CORPUS`` is every golden argv, each option a command does not
read (``REFUSED``), and the usual mistakes, on which the dispatch tests
hold the one-command parser to the full one, and ``parse`` gives what one
parser makes of one argv.  Nothing here imports pytest, so that
``tests/test_argv_bytes.py`` also runs without it.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

from cuntzcalc.cli import COMMANDS, main

TWO_TRACE = {
    "kind": "wmodel",
    "variant": "finite",
    "rank": 2,
    "states": [["1/2", "1/2"], ["1/4", "3/4"]],
    "unit": [1, 1],
}
INVARIANT = {
    "kind": "invariant",
    "k0": {"rank": 2, "states": [["1/2", "1/2"], ["1/4", "3/4"]], "unit": [1, 1]},
    "k1": {"free_rank": 1, "torsion": [2]},
    "trace_labels": ["a", "b"],
}
COLLAPSED = {
    "kind": "invariant",
    "k0": {"rank": 2, "states": [["3/8", "5/8"]], "unit": [1, 1]},
    "k1": {"free_rank": 1, "torsion": [2]},
}
K1_IDENTITY = {
    "source": {"free_rank": 1, "torsion": [2]},
    "target": {"free_rank": 1, "torsion": [2]},
    "matrix": [[1, 0], [0, 1]],
}


def pogroup(rank, cone, unit):
    return {"kind": "pogroup", "rank": rank, "cone": cone, "unit": unit}


def proj(*values):
    return {"kind": "class", "type": "proj", "values": list(values)}


def soft(*values):
    return {"kind": "class", "type": "soft", "values": list(values)}


def step(partition, interval_values, point_values):
    return {
        "kind": "target",
        "type": "step",
        "partition": partition,
        "interval_values": interval_values,
        "point_values": point_values,
    }


DOCS = {
    "m2": TWO_TRACE,
    "z": {"kind": "wmodel", "variant": "finite", "rank": 1, "states": [[1]], "unit": [1]},
    "pi": {"kind": "wmodel", "variant": "purely-infinite"},
    "p10": proj(1, 0),
    "p11": proj(1, 1),
    "p21": proj(2, 1),
    "p2m1": proj(2, -1),
    "s_half": soft("1/2", "3/5"),
    "s_big": soft("3/4", "4/5"),
    "s_small": soft("1/4", "1/4"),
    "z1": proj(1),
    "z_soft": soft("5/4"),
    "pi0": proj(0),
    "pi1": proj(1),
    "simp1": pogroup(1, {"type": "simplicial"}, [1]),
    "simp2": pogroup(2, {"type": "simplicial"}, [1, 2]),
    "states2": pogroup(
        2, {"type": "strict-states", "states": [["1/3", "1/3"], ["1/4", "1/2"]]}, [2, 1]
    ),
    "gen23": pogroup(
        1, {"type": "generated", "generators": [[2], [3]], "coeff_bound": 24}, [2]
    ),
    "lex": pogroup(2, {"type": "lexicographic"}, [1, 0]),
    "inv": INVARIANT,
    "mor": {
        "kind": "morphism",
        "source": INVARIANT,
        "target": COLLAPSED,
        "theta0": [[1, 0], [0, 1]],
        "theta1": K1_IDENTITY,
        "gamma": [["1/2"], ["1/2"]],
    },
    "bad_mor": {
        "kind": "morphism",
        "source": INVARIANT,
        "target": COLLAPSED,
        "theta0": [[1, 0], [0, 1]],
        "theta1": K1_IDENTITY,
        "gamma": [["1/3"], ["1/3"]],
    },
    "vec": {"kind": "target", "type": "vector", "values": ["2/3", "1/5", "1"]},
    "denoms": {"kind": "schedule", "denominators": [2, 6, 30]},
    "sizes": {"kind": "schedule", "sizes": [3, 6, 12]},
    "step2": step(["0", "1/3", "1"], ["3/4", "5/8"], ["0", "1/2", "5/8"]),
    "step3": step(
        ["0", "1/4", "2/3", "1"], ["1", "3/5", "7/8"], ["3/4", "0", "1/2", "7/8"]
    ),
    # step targets whose realizations exercise one merge shape each (see CASES)
    "step_cross": step(["0", "1/2", "1"], ["3/8", "3/4"], ["0", "3/8", "0"]),
    "step_inside": step(
        ["0", "1/3", "1/2", "5/6", "1"], ["5/8", "1/8", "7/8", "1"],
        ["5/8", "1/8", "0", "7/8", "0"],
    ),
    "step_touch": step(
        ["0", "3/10", "2/5", "7/10", "1"], ["3/4", "7/8", "5/8", "1/8"],
        ["0", "3/4", "5/8", "1/8", "1/8"],
    ),
    "step_thirds": step(["0", "1/3", "1/2", "1"], ["3/8", "7/8", "1/2"], ["0", "3/8", "0", "0"]),
    "sizes_3_9_27": {"kind": "schedule", "sizes": [3, 9, 27]},
    # step targets with large integer forms: partition points at 1/99991 and
    # 99990/99991, values over primes near 10^8, crossing merges at each size
    "step_large": step(
        ["0", "1/99991", "99990/99991", "1"],
        ["33333331/99999989", "87654321/100000007", "45678901/99999971"],
        ["0", "33333331/99999989", "45678901/99999971", "45678901/99999971"],
    ),
    "step_large_cross": step(
        ["0", "1/99991", "50000/99991", "99990/99991", "1"],
        ["99999970/99999971", "7/100000007", "66666667/100000037", "33333334/100000039"],
        ["99999970/99999971", "7/100000007", "7/100000007", "33333334/100000039",
         "33333334/100000039"],
    ),
    # values 1/3 and 26/27 sit on the grid of every size in (3, 9, 27)
    "step_large_on_grid": step(
        ["0", "1/99991", "1/3", "99990/99991", "1"],
        ["87654321/100000007", "1/3", "71234567/99999941", "26/27"],
        ["0", "1/3", "1/3", "71234567/99999941", "26/27"],
    ),
    "not_a_doc": {"kind": "nonsense"},
    "m3": {
        "kind": "wmodel",
        "variant": "finite",
        "rank": 3,
        "states": [["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"], ["-1/4", "1/2", "3/4"]],
        "unit": [1, 1, 1],
    },
    "m4": {
        "kind": "wmodel",
        "variant": "finite",
        "rank": 4,
        "states": [
            ["1/4", "1/4", "1/4", "1/4"],
            ["1/2", "1/4", "1/4", "0"],
            ["0", "1/3", "1/3", "1/3"],
            ["2/5", "-1/5", "2/5", "2/5"],
        ],
        "unit": [1, 1, 1, 1],
    },
    # trace scales 6, 10 and 4, against soft denominators 7, 11 and 13
    "m6": {
        "kind": "wmodel",
        "variant": "finite",
        "rank": 2,
        "states": [["1/2", "1/3"], ["1/2", "-1/5"], ["1/2", "1/4"]],
        "unit": [2, 0],
    },
    "m6_p11": proj(1, 1),
    "m6_above": soft("6/7", "4/13", "10/13"),
    "m6_below": soft("5/7", "3/11", "9/13"),
    # one trace at scale 6
    "z6": {"kind": "wmodel", "variant": "finite", "rank": 1, "states": [["1/6"]], "unit": [6]},
    "s_seventh": soft("1/7"),
    "s_fifth": soft("1/5"),
    # soft profiles that meet another class's profile at some trace
    "s_one": soft("1", "1"),
    "s_half_up": soft("1/2", "4/5"),
    # rank-3 strict-state cones whose rows have the coprime denominators 3, 5, 7
    "states357": pogroup(
        3,
        {"type": "strict-states", "states": [["1/3", "1/3", "1/3"], ["2/5", "1/5", "2/5"],
                                             ["1/7", "3/7", "3/7"]]},
        [1, 1, 1],
    ),
    "states357_budget": pogroup(
        3,
        {"type": "strict-states", "states": [["-2/3", "1/3", "0"], ["6/5", "-1", "4/5"],
                                             ["11/7", "-2/7", "-1/7"]]},
        [3, 9, 8],
    ),
    "m357": {
        "kind": "wmodel",
        "variant": "finite",
        "rank": 3,
        "states": [["1/3", "1/3", "1/3"], ["2/5", "1/5", "2/5"], ["1/7", "3/7", "3/7"]],
        "unit": [1, 1, 1],
    },
    "m357_p211": proj(2, 1, 1),
    # rank 7, past the candidate boxes any walk may take at the default bound:
    # both cones are decided by theorem
    "states7": pogroup(
        7,
        {"type": "strict-states", "states": [[1, 0, 0, 0, 0, 0, 0],
                                             ["1/3", "1/3", "1/3", 0, 0, 0, 0]]},
        [1, 1, 1, 1, 1, 1, 1],
    ),
    "m7": {
        "kind": "wmodel",
        "variant": "finite",
        "rank": 2,
        "states": [[f"{k}/8", f"{8 - k}/8"] for k in range(1, 8)],
        "unit": [1, 1],
    },
    # rank 5, walked: e1 and (0, 1, 1, 1, 1) span a cone that both searches
    # test point by point, about 170,000 membership questions at --bound 10
    "gen5": pogroup(
        5, {"type": "generated", "generators": [[1, 0, 0, 0, 0], [0, 1, 1, 1, 1]]},
        [1, 1, 1, 1, 1],
    ),
}

SUITES = (
    "order-axioms",
    "strict-cone",
    "weak-unperforation",
    "archimedean",
    "oracle-agreement",
)

# case name -> argv; "@name" stands for the path of DOCS[name], "@out" for
# the --out file
CASES = {
    "compare-neither": ["compare", "@m2", "@p10", "@s_half"],
    "compare-soft-below-proj": ["compare", "@m2", "@s_small", "@p11"],
    "compare-proj-proj": ["compare", "@m2", "@p10", "@p21"],
    "compare-z": ["compare", "@z", "@z1", "@z_soft"],
    "compare-pi": ["compare", "@pi", "@pi0", "@pi1"],
    "compare-pi-unit-zero": ["compare", "@pi", "@pi1", "@pi0"],
    "compare-table": ["compare", "@m2", "@s_big", "@p11", "--format", "table"],
    "compare-wrong-kind": ["compare", "@p10", "@p10", "@p10"],
    "compare-zero": ["compare", "@z", "@pi0", "@z1"],
    "compare-wrong-rank": ["compare", "@m2", "@p10", "@pi1"],
    "compare-off-cone": ["compare", "@m2", "@p10", "@p2m1"],
    "add-mixed-out": ["add", "@m2", "@p10", "@s_big", "--out", "@out"],
    "add-proj": ["add", "@m2", "@p10", "@p11"],
    "add-pi": ["add", "@pi", "@pi1", "@pi1"],
    "add-pi-zero": ["add", "@pi", "@pi0", "@pi0"],
    "scale-out": ["scale", "@m2", "@s_big", "2/3", "--out", "@out"],
    "scale-proj": ["scale", "@m2", "@p11", "2"],
    "scale-pi": ["scale", "@pi", "@pi1", "2"],
    "soften-out": ["soften", "@m2", "@p21", "--out", "@out"],
    "soften-pi": ["soften", "@pi", "@pi1"],
    "complement-proj": ["complement", "@m2", "@p10", "@p21"],
    "complement-soft": ["complement", "@m2", "@s_small", "@p11"],
    "complement-table": ["complement", "@m2", "@p10", "@s_big", "--format", "table"],
    "complement-not-below": ["complement", "@m2", "@p21", "@p10"],
    "complement-pi": ["complement", "@pi", "@pi0", "@pi1"],
    "complement-pi-not-below": ["complement", "@pi", "@pi1", "@pi0"],
    "k0star": ["k0star", "@m2"],
    "k0star-pi": ["k0star", "@pi"],
    "order-unit": ["order-unit", "@m2", "1/2,1/3"],
    "order-unit-zero-entry": ["order-unit", "@m2", "0,1"],
    "order-unit-negative": ["order-unit", "@m2", "0,-1"],
    "order-unit-table": ["order-unit", "@z", "1/7", "--format", "table"],
    "order-unit-pi": ["order-unit", "@pi", "1"],
    "functor": ["functor", "@inv"],
    "functor-morphism-out": ["functor", "@inv", "@mor", "--out", "@out"],
    "functor-wrong-source": ["functor", "@m2", "@mor"],
    "morphism-check-valid": ["morphism-check", "@mor"],
    "morphism-check-invalid": ["morphism-check", "@bad_mor"],
    "realize-dyadic": ["realize", "@vec", "--stages", "4"],
    "realize-denominators": ["realize", "@vec", "@denoms", "--stages", "3"],
    "realize-dyadic-table": ["realize", "@vec", "--stages", "5", "--format", "table"],
    "realize-dyadic-too-few-stages": ["realize", "@vec", "--stages", "3"],
    "realize-step": ["realize", "@step2", "--stages", "3"],
    "realize-step-sizes-table": [
        "realize", "@step3", "@sizes", "--stages", "3", "--format", "table",
    ],
    "realize-no-stages": ["realize", "@step2"],
    "realize-vector-sizes": ["realize", "@vec", "@sizes", "--stages", "2"],
    "goodearl": ["goodearl", "@step3", "--stages", "2"],
    "goodearl-sizes": ["goodearl", "@step2", "@sizes", "--stages", "3"],
    "goodearl-vector": ["goodearl", "@vec", "--stages", "2"],
    # a merge of an old entry with a bump that inserts a crossing point
    "realize-step-crossing": ["realize", "@step_cross", "--stages", "3"],
    # stages 2 and 3 reach their sup increment only at bump knots strictly
    # inside a segment of the old entry
    "goodearl-increment-inside-segment": ["goodearl", "@step_inside", "--stages", "3"],
    # at stage 4 an old entry's kink at 14/45 touches the bump's ramp from
    # above without crossing it
    "realize-step-touching": ["realize", "@step_touch", "--stages", "4"],
    "goodearl-sizes-3-9-27": ["goodearl", "@step_thirds", "@sizes_3_9_27", "--stages", "3"],
    # large numerators and denominators through every order test of a realization
    "realize-large-integers": ["realize", "@step_large", "--stages", "4"],
    "goodearl-large-integers-3-9-27": [
        "goodearl", "@step_large_cross", "@sizes_3_9_27", "--stages", "3",
    ],
    "realize-large-integers-on-grid-table": [
        "realize", "@step_large_on_grid", "@sizes_3_9_27", "--stages", "3", "--format", "table",
    ],
    "unknown-kind": ["k0star", "@not_a_doc"],
    "check-table": ["check", "@m2", "strict-cone", "--bound", "50", "--format", "table"],
}
for _suite in SUITES:
    # archimedean keeps its default scale, 10, above the rank-2 enumeration bound
    bound = [] if _suite == "archimedean" else ["--bound", "6"]
    CASES[f"check-m2-{_suite}"] = ["check", "@m2", _suite] + bound
    CASES[f"check-pi-{_suite}"] = ["check", "@pi", _suite]
for _doc in ("simp1", "simp2", "states2", "gen23", "lex"):
    CASES[f"check-{_doc}-weak-unperforation"] = ["check", "@" + _doc, "weak-unperforation"]
    CASES[f"check-{_doc}-archimedean"] = ["check", "@" + _doc, "archimedean"]
CASES["check-z-archimedean"] = ["check", "@z", "archimedean"]
# at --bound 1 the walks on a generated or lexicographic cone have nothing to
# test (no y below the multiplier, no multiple of x but x), so they exit 2; a
# simplicial cone is still decided
for _doc in ("gen23", "lex", "simp2"):
    for _suite in ("archimedean", "weak-unperforation"):
        CASES[f"check-{_doc}-{_suite}-bound-1"] = ["check", "@" + _doc, _suite, "--bound", "1"]
CASES["check-m2-order-axioms-default"] = ["check", "@m2", "order-axioms", "--seed", "5"]
CASES["check-m2-oracle-agreement-default"] = ["check", "@m2", "oracle-agreement"]
CASES["check-pogroup-order-axioms"] = ["check", "@simp2", "order-axioms"]
# larger models: pools that mix projections the rank-3 cone rejects with soft classes
CASES["check-m3-order-axioms"] = ["check", "@m3", "order-axioms", "--seed", "11"]
CASES["check-m4-oracle-agreement"] = [
    "check", "@m4", "oracle-agreement", "--bound", "2000", "--seed", "12",
]
# soft denominators coprime to the trace scales
CASES["compare-coprime-proj-below-soft"] = ["compare", "@m6", "@m6_p11", "@m6_above"]
CASES["compare-coprime-soft-below-proj"] = ["compare", "@m6", "@m6_p11", "@m6_below"]
CASES["compare-coprime-soft-soft"] = ["compare", "@m6", "@m6_above", "@m6_below"]
CASES["compare-seventh-below-sixth"] = ["compare", "@z6", "@s_seventh", "@z1"]
CASES["compare-sixth-below-fifth"] = ["compare", "@z6", "@z1", "@s_fifth"]
CASES["add-coprime-proj-soft"] = ["add", "@m6", "@m6_p11", "@m6_above"]
CASES["add-coprime-soft-soft"] = ["add", "@m6", "@m6_above", "@m6_below"]
CASES["add-seventh-sixth"] = ["add", "@z6", "@z1", "@s_seventh"]
CASES["check-m6-order-axioms"] = ["check", "@m6", "order-axioms", "--bound", "60"]
CASES["check-m6-strict-cone"] = ["check", "@m6", "strict-cone", "--bound", "60"]
CASES["check-m6-oracle-agreement"] = ["check", "@m6", "oracle-agreement", "--bound", "600"]
# complement in every mixed and soft branch, with zero and touching gaps
CASES["complement-proj-below-soft"] = ["complement", "@m2", "@p10", "@s_big"]
CASES["complement-soft-soft"] = ["complement", "@m2", "@s_small", "@s_big"]
CASES["complement-soft-equals-proj"] = ["complement", "@m2", "@s_one", "@p11"]
CASES["complement-soft-soft-touching"] = ["complement", "@m2", "@s_half", "@s_half_up"]
CASES["complement-coprime-proj-below-soft"] = ["complement", "@m6", "@m6_p11", "@m6_above"]
CASES["complement-coprime-soft-below-proj"] = ["complement", "@m6", "@m6_below", "@m6_p11"]
# state rows at the coprime scales 3, 5 and 7: an archimedean witness, a search
# that reaches the pair budget, and conversions that read every row's scale
for _doc in ("states357", "states357_budget"):
    CASES[f"check-{_doc}-weak-unperforation"] = ["check", "@" + _doc, "weak-unperforation"]
    CASES[f"check-{_doc}-archimedean"] = ["check", "@" + _doc, "archimedean"]
CASES["soften-coprime-rows"] = ["soften", "@m357", "@m357_p211"]
for _doc in ("states7", "m7"):
    CASES[f"check-{_doc}-weak-unperforation"] = ["check", "@" + _doc, "weak-unperforation"]
    CASES[f"check-{_doc}-archimedean"] = ["check", "@" + _doc, "archimedean"]
for _suite in ("weak-unperforation", "archimedean"):
    CASES[f"check-gen5-{_suite}"] = ["check", "@gen5", _suite, "--bound", "10"]
CASES["check-m357-strict-cone"] = ["check", "@m357", "strict-cone", "--bound", "60"]


def run_case(argv, workdir: Path) -> dict:
    """Exit code, stdout and --out document of one case."""
    out_path = workdir / "out.json"
    if out_path.exists():
        out_path.unlink()
    paths = {}
    for name, doc in DOCS.items():
        path = workdir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(doc), encoding="utf-8")
        paths["@" + name] = str(path)
    paths["@out"] = str(out_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([paths.get(a, a) for a in argv])
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "out": written}


# command -> the options its handler reads, besides --format
OWN_OPTIONS = {
    "compare": (),
    "add": ("--out",),
    "scale": ("--out",),
    "soften": ("--out",),
    "complement": ("--out",),
    "k0star": (),
    "order-unit": (),
    "check": ("--seed", "--bound"),
    "functor": ("--out",),
    "morphism-check": (),
    "realize": ("--stages",),
    "goodearl": ("--stages",),
}
# a value each option accepts, and the value it parses to
OPTION_VALUES = {
    "--seed": ("3", 3),
    "--bound": ("4", 4),
    "--stages": ("2", 2),
    "--out": ("o.json", "o.json"),
    "--format": ("table", "table"),
}


def required(command):
    """The command and words for its required positionals, with no option."""
    _, arguments = COMMANDS[command]
    words = [SUITES[0] if arg == "suite" else f"{arg}.json"
             for arg, kwargs in arguments if not arg.startswith("--") and not kwargs.get("nargs")]
    return [command, *words]


def with_option(command, option, value):
    return [*required(command), option, value]


REFUSED = [
    # every option that a command does not read
    *(with_option(name, option, value)
      for name in COMMANDS
      for option, (value, _) in OPTION_VALUES.items()
      if option not in (*OWN_OPTIONS[name], "--format")),
    # an abbreviation of each option, on a command that takes the option
    with_option("check", "--se", "3"),
    with_option("check", "--bo", "4"),
    with_option("realize", "--st", "2"),
    with_option("compare", "--fo", "table"),
    with_option("add", "--ou", "o.json"),
]

CORPUS = [list(argv) for _, argv in sorted(CASES.items())] + REFUSED + [
    [],
    ["--help"],
    ["-h"],
    *([name, "--help"] for name in COMMANDS),
    ["nonsense", "m.json"],
    ["Check", "m.json", "archimedean"],
    ["check", "m.json", "bogus-suite"],
    ["check", "m.json"],
    ["compare", "m.json", "x.json"],
    ["k0star"],
    ["k0star", "m.json", "extra.json"],
    ["realize", "t.json", "s.json", "extra.json", "--stages", "2"],
    ["--seed", "3", "k0star", "m.json"],
    ["--format", "table", "compare", "m.json", "x.json", "y.json"],
    ["compare", "m.json", "x.json", "y.json", "--format", "xml"],
    ["realize", "t.json", "--stages", "two"],
    ["scale", "m.json", "x.json", "--bogus", "2"],
    ["check", "m.json", "archimedean", "--bo", "3"],
]


def parse(parser: argparse.ArgumentParser, argv):
    """The namespace, or the exit code; with all that was printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()
