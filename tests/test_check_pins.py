"""Pinned failing reports of the three sampling suites.

A passing suite reports ``"failures": []``, which says nothing about the
classes it drew.  Here each suite runs with the rule it reads broken, so
its report lists the drawn classes (or their differences), and the whole
``details`` is pinned at two seeds.  A change to how the suites draw, even
one that keeps every verdict, shows up as a changed list.

The model has a state row with a negative entry, so ``random_proj_class``
rejects some candidate vectors, and two traces, so soft classes carry two
random fractions.
"""

import json

import pytest
from support import broken_gamma, cut_order, lax_oracle, mixed_sign_model

from cuntzcalc import cli
from cuntzcalc import documents as docs
from cuntzcalc.cli import DEFAULT_SEED, EXIT_OK, main
from cuntzcalc.wmodel import WModel

MODEL = mixed_sign_model()


def _break(monkeypatch, suite):
    if suite == "order-axioms":
        monkeypatch.setattr(cli, "element_leq", cut_order)
    elif suite == "strict-cone":
        monkeypatch.setattr(WModel, "gamma", broken_gamma(WModel.gamma))
    else:
        monkeypatch.setattr(cli, "_oracle_leq", lax_oracle(cli._oracle_leq))


PINS = [
    (
        "order-axioms",
        DEFAULT_SEED,
        None,
        {
            "checked": 26,
            "failures": [
                "transitivity: Soft(1, 1/2), Soft(4/3, 3/4), Proj(2, 2, 3)",
                "transitivity: Soft(4/3, 3/4), Proj(2, 1, 2), Proj(2, 3, 2)",
                "transitivity: Proj(2, 1, 1), Proj(2, 3, 2), Soft(5/2, 5)",
                "transitivity: Soft(1, 1/2), Soft(8/5, 1), Proj(2, 2, 3)",
                "transitivity: Soft(1, 1/4), Soft(1, 1/2), Soft(8/5, 1)",
            ],
        },
    ),
    (
        "order-axioms",
        5,
        None,
        {
            "checked": 26,
            "failures": [
                "transitivity: Proj(0, 3, 2), Soft(3/2, 3/4), Soft(3, 5/6)",
                "transitivity: Proj(2, 1, 2), Proj(3, 1, 1), Soft(7/2, 4)",
            ],
        },
    ),
    (
        "order-axioms",
        5,
        300,
        {
            "checked": 302,
            "failures": [
                "transitivity: Proj(0, 3, 0), Proj(1, 2, 0), Proj(3, 1, 0)",
                "transitivity: Proj(0, 2, 0), Soft(1, 2), Proj(3, 2, 0)",
                "transitivity: Soft(7/8, 6/7), Proj(1, 2, 1), Proj(2, 2, 0)",
                "transitivity: Proj(0, 2, 0), Soft(1, 8/5), Proj(2, 2, 2)",
                "transitivity: Soft(1/2, 6/7), Proj(0, 3, 1), Proj(2, 0, 1)",
            ],
        },
    ),
    (
        "strict-cone",
        DEFAULT_SEED,
        None,
        {
            "checked": 500,
            "failures": [
                ["-17/4", "-5/2"],
                ["-3/4", "-1/2"],
                ["-53/12", "-3"],
                ["-6", "-4"],
                ["-19/4", "-39/14"],
            ],
        },
    ),
    (
        "strict-cone",
        5,
        None,
        {
            "checked": 500,
            "failures": [
                ["-5/4", "-25/6"],
                ["-83/20", "-67/14"],
                ["-13/3", "-11/4"],
                ["-3", "-15/4"],
                ["-13/4", "-26/7"],
            ],
        },
    ),
    (
        "oracle-agreement",
        DEFAULT_SEED,
        None,
        {
            "checked": 2000,
            "failures": [
                ["Proj(2, 0, 2)", "Soft(7/4, 1)"],
                ["Proj(1, 1, 1)", "Soft(8/5, 1)"],
                ["Proj(2, 0, 2)", "Soft(7/4, 1)"],
                ["Proj(1, 1, 1)", "Soft(7/4, 1)"],
                ["Proj(1, 1, 1)", "Soft(8/5, 1)"],
            ],
        },
    ),
    (
        "oracle-agreement",
        5,
        None,
        {
            "checked": 2000,
            "failures": [
                ["Proj(3, 3, 1)", "Soft(7/2, 4)"],
                ["Proj(1, 1, 1)", "Soft(1, 7/2)"],
                ["Proj(0, 3, 2)", "Soft(2, 1/2)"],
                ["Proj(0, 3, 2)", "Soft(2, 1/2)"],
            ],
        },
    ),
]


@pytest.mark.parametrize(
    "suite, seed, bound, details",
    PINS,
    ids=[f"{s}-{seed}-{b or 'default'}" for s, seed, b, _ in PINS],
)
def test_broken_rule_report_is_pinned(
    tmp_path, capsys, monkeypatch, suite, seed, bound, details
):
    path = tmp_path / "m.json"
    path.write_text(docs.dump_document(docs.encode_wmodel(MODEL)), encoding="utf-8")
    _break(monkeypatch, suite)
    argv = ["check", str(path), suite, "--seed", str(seed)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["details"] == dict(details, verdict="fail")
