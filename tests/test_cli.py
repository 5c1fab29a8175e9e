"""End-to-end tests for the command-line front end.

Each test drives ``main(argv)`` in process the way a shell would, with
documents written to a temp directory, then reads the JSON report back
from captured stdout.  Timing noise lives on stderr by contract, so
stdout must be byte-identical across runs with the same inputs.
"""

import collections
import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from support import (
    broken_gamma,
    cut_order,
    integers_invariant,
    lax_oracle,
    mixed_sign_model,
    reference_oracle_agreement,
    reference_oracle_leq,
    reference_order_axioms,
    reference_strict_cone,
    shaped_k0model,
    two_trace_model,
    w_of_z,
)

from cuntzcalc import cli, sampling, wmodel
from cuntzcalc import documents as docs
from cuntzcalc.cli import (
    DEFAULT_SEED,
    EXIT_INVALID,
    EXIT_OK,
    SEARCH_BOUND_CAP,
    SUITES,
    main,
)
from cuntzcalc.elliott import functor_g_obj
from cuntzcalc.goodearl import RealizationSchedule, StepFn
from cuntzcalc.linalg import matvec
from cuntzcalc.ordmon import StrictStateCone
from cuntzcalc.wmodel import (
    CuntzClass,
    K0Model,
    WModel,
    purely_infinite,
)


def proj_doc(*values: int) -> dict:
    return {"kind": "class", "type": "proj", "values": list(values)}


def soft_doc(*values: str) -> dict:
    return {"kind": "class", "type": "soft", "values": list(values)}


@pytest.fixture()
def workspace(tmp_path):
    """Write documents by name, returning their paths as strings."""

    def put(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(docs.dump_document(doc), encoding="utf-8")
        return str(path)

    put.dir = tmp_path
    return put


@pytest.fixture()
def run(capsys):
    def _run(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def report_of(out: str) -> dict:
    return json.loads(out)


class TestCompare:
    def test_soft_one_sits_below_the_unit_projection(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", soft_doc("1"))
        y = workspace("y.json", proj_doc(1))
        code, out, _ = run("compare", model, x, y)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["x_leq_y"] is True
        assert report["y_leq_x"] is False
        assert report["verdict"] == "≤ only"
        assert report["rules"]["x_vs_y"] == "soft-proj (non-strict pointwise)"
        assert report["rules"]["y_vs_x"] == "proj-soft (strict pointwise)"

    def test_equal_classes_compare_both_ways(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(2))
        code, out, _ = run("compare", model, x, x)
        assert code == EXIT_OK
        assert report_of(out)["verdict"] == "≤ and ≥"

    def test_incomparable_pair(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        x = workspace("x.json", proj_doc(1, 0))
        y = workspace("y.json", soft_doc("1/2", "3/5"))
        code, out, _ = run("compare", model, x, y)
        assert code == EXIT_OK
        assert report_of(out)["verdict"] == "neither"

    def test_purely_infinite_everything_below_the_unit(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(purely_infinite()))
        zero = workspace("zero.json", proj_doc(0))
        unit = workspace("unit.json", proj_doc(1))
        code, out, _ = run("compare", model, zero, unit)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "≤ only"
        assert report["rules"]["x_vs_y"] == "purely-infinite"

    def test_stdout_is_deterministic_and_timing_goes_to_stderr(
        self, workspace, run
    ):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", soft_doc("1"))
        y = workspace("y.json", proj_doc(1))
        code1, out1, err1 = run("compare", model, x, y)
        code2, out2, err2 = run("compare", model, x, y)
        assert (code1, code2) == (EXIT_OK, EXIT_OK)
        assert out1 == out2
        assert "# elapsed" in err1 and "# elapsed" in err2
        assert "elapsed" not in out1


class TestPointwiseCommands:
    def test_add_mixes_into_the_soft_part_and_writes_the_out_doc(
        self, workspace, run
    ):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(1))
        y = workspace("y.json", soft_doc("1/2"))
        out_path = workspace.dir / "sum.json"
        code, out, _ = run("add", model, x, y, "--out", str(out_path))
        assert code == EXIT_OK
        report = report_of(out)
        assert report["result"] == soft_doc("3/2")
        kind, written = docs.load_document(out_path.read_text(encoding="utf-8"))
        assert kind == "class"
        assert written == CuntzClass.soft((Fraction(3, 2),))

    def test_scale_soft_class(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", soft_doc("2/3"))
        code, out, _ = run("scale", model, x, "3/2")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["factor"] == "3/2"
        assert report["result"] == soft_doc("1")

    def test_scale_rejects_projections(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(1))
        code, _, err = run("scale", model, x, "1/2")
        assert code == EXIT_INVALID
        assert "error:" in err

    def test_soften_reads_off_the_trace_profile(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        x = workspace("x.json", proj_doc(2, 0))
        code, out, _ = run("soften", model, x)
        assert code == EXIT_OK
        assert report_of(out)["result"] == soft_doc("1", "1/2")

    def test_complement_found_and_recovering(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(1))
        y = workspace("y.json", soft_doc("3/2"))
        code, out, _ = run("complement", model, x, y)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "found"
        assert report["z"] == soft_doc("1/2")
        assert report["recovers_y"] is True

    def test_complement_and_compare_convert_each_operand_once(
        self, workspace, run, monkeypatch
    ):
        # complement reads x <= y and the gap off one conversion of (x, y);
        # only the recovers_y check, an add of x and z, converts x again
        converted = collections.Counter()
        image = WModel._image

        def counted(self, c):
            converted[c] += 1
            return image(self, c)

        monkeypatch.setattr(WModel, "_image", counted)
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        x = workspace("x.json", proj_doc(1, 0))
        y = workspace("y.json", soft_doc("3/4", "4/5"))
        code, out, _ = run("complement", model, x, y)
        assert code == EXIT_OK
        assert report_of(out)["z"] == soft_doc("1/4", "11/20")
        px, sy = CuntzClass.proj((1, 0)), CuntzClass.soft(("3/4", "4/5"))
        assert converted == {px: 2, sy: 1, CuntzClass.soft(("1/4", "11/20")): 1}
        converted.clear()
        code, out, _ = run("compare", model, x, y)
        assert code == EXIT_OK
        assert report_of(out)["verdict"] == "≤ only"
        assert converted == {px: 1, sy: 1}

    def test_complement_none_when_the_gap_touches_zero(self, workspace, run):
        # Gap (0, 1/4) is neither zero nor strictly positive.
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        x = workspace("x.json", soft_doc("1/2", "1/2"))
        y = workspace("y.json", soft_doc("1/2", "3/4"))
        code, out, _ = run("complement", model, x, y)
        assert code == EXIT_OK
        assert report_of(out) == {"command": "complement", "verdict": "none"}

    def test_complement_requires_the_order_premise(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(2))
        y = workspace("y.json", proj_doc(1))
        code, _, err = run("complement", model, x, y)
        assert code == EXIT_INVALID
        assert "complement requires" in err


class TestStarCommands:
    def test_k0star_reports_rank_and_unit_image(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("k0star", model)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["n"] == 2
        assert report["unit_image"] == ["1", "1"]

    def test_order_unit_true_comes_with_a_margin(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("order-unit", model, "1/2,1/3")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["is_order_unit"] is True
        assert report["epsilon"] == "1/3"

    def test_order_unit_false_on_the_cone_boundary(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("order-unit", model, "3/10,0")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["is_order_unit"] is False
        assert "epsilon" not in report

    def test_order_unit_outside_the_cone_is_invalid(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, err = run("order-unit", model, "0,-1")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == (
            "error: order unit test expects a vector in the difference cone"
        )

    @pytest.mark.parametrize("model, values", [
        (two_trace_model(), "1/2"),
        (purely_infinite(), "1"),
    ], ids=["m2", "pi"])
    def test_order_unit_of_the_wrong_length_is_invalid(self, workspace, run, model, values):
        path = workspace("m.json", docs.encode_wmodel(model))
        code, out, err = run("order-unit", path, values)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == "error: vector has the wrong length for this group"

    def test_order_unit_names_the_refused_value(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, err = run("order-unit", model, "1,x")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == "error: values[1]: bad rational string 'x'"


class TestCheckSuites:
    def test_order_axioms_pass_on_the_integer_model(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, out, _ = run("check", model, "order-axioms")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is True
        assert report["seed"] == DEFAULT_SEED
        assert report["details"]["verdict"] == "pass"
        assert report["details"]["failures"] == []

    def test_oracle_agreement_on_two_traces(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("check", model, "oracle-agreement", "--bound", "300")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is True
        assert report["details"]["checked"] == 300

    def test_oracle_agreement_catches_a_non_strict_proj_soft_rule(
        self, workspace, run, monkeypatch
    ):
        strict = cli.element_leq

        def lax(x, y):
            (kx, gx), (ky, gy) = x, y
            if kx is not None and ky is None:
                return all(a <= b for a, b in zip(gx, gy))
            return strict(x, y)

        monkeypatch.setattr(cli, "element_leq", lax)
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, out, _ = run("check", model, "oracle-agreement")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is False
        assert report["details"]["verdict"] == "fail"
        assert report["details"]["failures"]
        for x, y in report["details"]["failures"]:
            assert x.startswith("Proj(") and y.startswith("Soft(")

    def test_order_axioms_catch_a_total_relation(self, workspace, run, monkeypatch):
        monkeypatch.setattr(cli, "element_leq", lambda x, y: True)
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, out, _ = run("check", model, "order-axioms")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is False
        assert report["details"]["failures"]
        assert report["details"]["failures"][0].startswith("antisymmetry: ")

    @pytest.mark.parametrize(
        "owner, name, broken, kind",
        [
            # the strict model order: never x <= x
            (
                cli,
                "element_leq",
                lambda x, y: x != y and wmodel.element_leq(x, y),
                "not reflexive at ",
            ),
            # the model order cut to y <= 2x: reflexive and antisymmetric, not
            # transitive
            (
                cli,
                "element_leq",
                lambda x, y: wmodel.element_leq(x, y)
                and all(b <= 2 * a for a, b in zip(x[1], y[1])),
                "transitivity: ",
            ),
            # z - x in place of x + z reverses the order of the sums
            (
                WModel,
                "element_sum",
                lambda self, x, y: (None, tuple(b - a for a, b in zip(x[1], y[1]))),
                "add-compatibility: ",
            ),
        ],
    )
    def test_order_axioms_catch_each_broken_axiom(
        self, workspace, run, monkeypatch, owner, name, broken, kind
    ):
        monkeypatch.setattr(owner, name, broken)
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, out, _ = run("check", model, "order-axioms")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is False
        assert report["details"]["verdict"] == "fail"
        failures = report["details"]["failures"]
        assert failures and all(f.startswith(kind) for f in failures)

    def test_order_axioms_compare_each_pool_pair_once(self, workspace, run, monkeypatch):
        # one conversion of the 26 pool classes, then at most one rule
        # evaluation per pool pair plus one per add-compatibility draw, whose
        # sums lie outside the pool: 1,361 evaluations at the default seed
        conversions, rules, compares = [], [], []
        elements, rule, compare = WModel.elements, cli.element_leq, WModel.compare

        def converted(self, classes):
            conversions.append(len(classes))
            return elements(self, classes)

        def ruled(x, y):
            rules.append((x, y))
            return rule(x, y)

        def compared(self, x, y):
            compares.append((x, y))
            return compare(self, x, y)

        monkeypatch.setattr(WModel, "elements", converted)
        monkeypatch.setattr(cli, "element_leq", ruled)
        monkeypatch.setattr(WModel, "compare", compared)
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, out, _ = run("check", model, "order-axioms")
        assert code == EXIT_OK
        details = report_of(out)["details"]
        assert details == {"checked": 26, "failures": [], "verdict": "pass"}
        assert conversions == [26]
        assert len(rules) <= 26**2 + 1200
        assert compares == []

    def test_strict_cone_asks_each_question_once(self, monkeypatch):
        # the class table tests each candidate once, and the suite's memos,
        # keyed by the drawn objects, form each image once and ask each
        # ordered pair once; the wrappers keep every object they see, so no
        # id is reused while they count.  A projection repeats as the same
        # object, so each distinct one is imaged once and each ordered pair
        # of them compared once; a soft class is drawn afresh each time.
        model = mixed_sign_model()
        candidates, images, compares = [], [], []
        member, gamma, compare = K0Model.cone_member, WModel.gamma, WModel.compare

        def tested(self, v):
            candidates.append(tuple(v))
            return member(self, v)

        def imaged(self, x):
            images.append(x)
            return gamma(self, x)

        def compared(self, x, y):
            compares.append((x, y))
            return compare(self, x, y)

        monkeypatch.setattr(K0Model, "cone_member", tested)
        monkeypatch.setattr(WModel, "gamma", imaged)
        monkeypatch.setattr(WModel, "compare", compared)
        # 400 pairs draw fewer classes and candidates than the table takes
        details = cli._suite_strict_cone(model, DEFAULT_SEED, 400)
        assert details == {"checked": 400, "failures": []}
        assert len(set(candidates)) == len(candidates) <= 4**3
        assert len({id(x) for x in images}) == len(images)
        projections = [x.values for x in images if x.is_proj]
        assert len(set(projections)) == len(projections) < 4**3
        assert len({(id(x), id(y)) for x, y in compares}) == len(compares)
        pairs = [(x.values, y.values) for x, y in compares if x.is_proj and y.is_proj]
        assert pairs and len(set(pairs)) == len(pairs)
        assert len(images) < 2 * 400 and len(compares) < 400

    def test_oracle_agreement_converts_once_and_reads_the_raw_states(self, monkeypatch):
        # one conversion of the pool; the oracle's vectors come from the
        # state matrix, never from the cone's integer rows that the model's
        # own elements read
        model = mixed_sign_model()
        conversions, reads, inside = [], [], []
        elements, states, rows = WModel.elements, cli._oracle_states, StrictStateCone.rows

        def converted(self, classes):
            conversions.append(len(classes))
            return elements(self, classes)

        def oracle_states(model, pool):
            inside.append(True)
            try:
                return states(model, pool)
            finally:
                inside.pop()

        def read_rows(cone):
            reads.append(bool(inside))
            return rows.__get__(cone)

        monkeypatch.setattr(WModel, "elements", converted)
        monkeypatch.setattr(cli, "_oracle_states", oracle_states)
        monkeypatch.setattr(StrictStateCone, "rows", property(read_rows))
        details = cli._suite_oracle_agreement(model, DEFAULT_SEED, 2000)
        assert details == {"checked": 2000, "failures": []}
        assert conversions == [32]
        assert reads and not any(reads)

    def test_order_axioms_memos_stay_lazy_on_a_large_pool(
        self, workspace, run, monkeypatch
    ):
        # a table of every pool pair would hold 4·10^8 entries here; the
        # memos hold only what the reflexivity pass and the draws ask for
        rules = []
        rule = cli.element_leq

        def ruled(x, y):
            rules.append(None)
            return rule(x, y)

        monkeypatch.setattr(cli, "element_leq", ruled)
        k0 = K0Model(
            4,
            (
                ("1/4", "1/4", "1/4", "1/4"),
                ("1/2", "1/4", "1/8", "1/8"),
                ("1/8", "1/8", "1/4", "1/2"),
            ),
            (1, 1, 1, 1),
        )
        model = workspace("m.json", docs.encode_wmodel(WModel(k0)))
        code, out, _ = run("check", model, "order-axioms", "--bound", "20000")
        assert code == EXIT_OK
        details = report_of(out)["details"]
        assert details == {"checked": 20002, "failures": [], "verdict": "pass"}
        assert len(rules) <= 20002 + 2 * 400 + 4 * 1200

    def test_strict_cone_suite_needs_the_finite_variant(self, workspace, run):
        finite = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("check", finite, "strict-cone")
        assert code == EXIT_OK
        assert report_of(out)["passed"] is True

        infinite = workspace("pi.json", docs.encode_wmodel(purely_infinite()))
        code, _, err = run("check", infinite, "strict-cone")
        assert code == EXIT_INVALID
        assert "finite" in err

    def test_star_cone_suites_on_a_model(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        code, out, _ = run("check", model, "weak-unperforation")
        assert code == EXIT_OK
        assert report_of(out)["details"]["verdict"] == "holds-on-sample"

        code, out, _ = run("check", model, "archimedean")
        assert code == EXIT_OK
        assert report_of(out)["details"]["verdict"] == "none"

    def test_integers_are_archimedean(self, workspace, run):
        doc = {"kind": "pogroup", "rank": 1, "cone": {"type": "simplicial"}, "unit": [1]}
        group = workspace("g.json", doc)
        code, out, _ = run("check", group, "archimedean")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is True
        assert report["details"] == {"failures": [], "verdict": "none"}

    def test_perforated_group_yields_a_counterexample(self, workspace, run):
        # 2x and 3x generate the cone, so 2x is positive while x is not.
        doc = {
            "kind": "pogroup",
            "rank": 1,
            "cone": {
                "type": "generated",
                "generators": [[2], [3]],
                "coeff_bound": 24,
            },
            "unit": [2],
        }
        group = workspace("g.json", doc)
        code, out, _ = run("check", group, "weak-unperforation")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is False
        assert report["details"]["verdict"] == "counterexample"
        assert report["details"]["failures"] == [{"x": [1], "n": 2}]

    def test_lexicographic_order_is_not_archimedean(self, workspace, run):
        doc = {
            "kind": "pogroup",
            "rank": 2,
            "cone": {"type": "lexicographic"},
            "unit": [1, 1],
        }
        group = workspace("g.json", doc)
        code, out, _ = run("check", group, "archimedean")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["passed"] is False
        assert report["details"]["verdict"] == "witness"
        # (0, 1) stays below (1, 1) at every multiple yet is not below zero.
        assert report["details"]["failures"] == [{"x": [0, 1], "y": [1, 1]}]

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_refused(self, workspace, run, suite, bound):
        # refused before the model is read: a missing path says the same
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        for path in (model, str(workspace.dir / "missing.json")):
            code, out, err = run("check", path, suite, "--bound", bound)
            assert code == EXIT_INVALID
            assert out == ""
            assert err.splitlines()[0] == "error: --bound must be at least 1"

    @pytest.mark.parametrize("suite", ["weak-unperforation", "archimedean"])
    def test_search_bound_is_capped(self, workspace, run, suite):
        # refused before any search starts; the capped search itself never runs
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        too_big = str(SEARCH_BOUND_CAP + 1)
        code, out, err = run("check", model, suite, "--bound", too_big)
        assert code == EXIT_INVALID
        assert out == ""
        assert f"at most {SEARCH_BOUND_CAP}" in err

    def test_group_documents_only_take_group_suites(self, workspace, run):
        doc = {
            "kind": "pogroup",
            "rank": 1,
            "cone": {"type": "simplicial"},
            "unit": [1],
        }
        group = workspace("g.json", doc)
        code, _, err = run("check", group, "order-axioms")
        assert code == EXIT_INVALID
        assert "wmodel" in err

    def test_purely_infinite_star_is_degenerate(self, workspace, run):
        model = workspace("pi.json", docs.encode_wmodel(purely_infinite()))
        code, _, err = run("check", model, "weak-unperforation")
        assert code == EXIT_INVALID
        assert "zero group" in err

    @pytest.mark.parametrize("suite, document, code, first_line", [
        ("order-axioms", "pogroup", EXIT_INVALID,
         "error: suite 'order-axioms' needs a wmodel document"),
        ("order-axioms", "infinite", EXIT_OK, None),
        ("order-axioms", "finite", EXIT_OK, None),
        ("strict-cone", "pogroup", EXIT_INVALID,
         "error: suite 'strict-cone' needs a wmodel document"),
        ("strict-cone", "infinite", EXIT_INVALID, "error: strict-cone needs a finite model"),
        ("strict-cone", "finite", EXIT_OK, None),
        ("weak-unperforation", "pogroup", EXIT_OK, None),
        ("weak-unperforation", "infinite", EXIT_INVALID,
         "error: the purely infinite model has a zero group"),
        ("weak-unperforation", "finite", EXIT_OK, None),
        ("archimedean", "pogroup", EXIT_OK, None),
        ("archimedean", "infinite", EXIT_INVALID,
         "error: the purely infinite model has a zero group"),
        ("archimedean", "finite", EXIT_OK, None),
        ("oracle-agreement", "pogroup", EXIT_INVALID,
         "error: suite 'oracle-agreement' needs a wmodel document"),
        ("oracle-agreement", "infinite", EXIT_INVALID,
         "error: oracle-agreement needs a finite model"),
        ("oracle-agreement", "finite", EXIT_OK, None),
    ])
    def test_each_suite_on_each_document(
        self, workspace, run, suite, document, code, first_line
    ):
        # first_line None: a report on stdout, and only the timing on stderr
        doc = {
            "pogroup": {"kind": "pogroup", "rank": 1, "cone": {"type": "simplicial"},
                        "unit": [1]},
            "infinite": docs.encode_wmodel(purely_infinite()),
            "finite": docs.encode_wmodel(two_trace_model()),
        }[document]
        path = workspace(f"{document}.json", doc)
        got, out, err = run("check", path, suite)
        assert got == code
        if first_line is None:
            assert report_of(out)["suite"] == suite
            assert err.startswith("# elapsed ") and len(err.splitlines()) == 1
        else:
            assert out == ""
            assert err.splitlines()[0] == first_line

    @pytest.mark.parametrize("suite, document, seedings", [
        ("weak-unperforation", "pogroup", 0),
        ("weak-unperforation", "finite", 0),
        ("archimedean", "pogroup", 0),
        ("archimedean", "finite", 0),
        ("order-axioms", "finite", 1),
        ("strict-cone", "finite", 1),
        ("oracle-agreement", "finite", 1),
    ])
    def test_only_the_sampling_suites_seed_a_generator(
        self, workspace, run, monkeypatch, suite, document, seedings
    ):
        seeds = []

        def seeding(seed):
            seeds.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(cli, "rng_for", seeding)
        doc = {
            "pogroup": {"kind": "pogroup", "rank": 1, "cone": {"type": "simplicial"},
                        "unit": [1]},
            "finite": docs.encode_wmodel(two_trace_model()),
        }[document]
        path = workspace(f"{document}.json", doc)
        code, out, _ = run("check", path, suite, "--seed", "5")
        assert code == EXIT_OK
        assert report_of(out)["seed"] == 5
        assert seeds == [5] * seedings

    def test_unknown_suite_is_a_parser_error(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        with pytest.raises(SystemExit) as excinfo:
            main(["check", model, "bogus"])
        assert excinfo.value.code == 2


def collapse_pair() -> dict:
    """A morphism document: two-trace source, one-trace target, traces
    averaged evenly."""
    k1 = {"free_rank": 0, "torsion": []}
    return {
        "kind": "morphism",
        "source": {
            "kind": "invariant",
            "k0": {"rank": 2, "states": [["1/2", "1/2"], ["1/4", "3/4"]], "unit": [1, 1]},
            "k1": k1,
            "trace_labels": ["tau1", "tau2"],
        },
        "target": {
            "kind": "invariant",
            "k0": {"rank": 2, "states": [["3/8", "5/8"]], "unit": [1, 1]},
            "k1": k1,
            "trace_labels": ["tau1"],
        },
        "theta0": [[1, 0], [0, 1]],
        "theta1": {"source": k1, "target": k1, "matrix": []},
        "gamma": [["1/2"], ["1/2"]],
    }


class TestFunctor:
    def test_integers_invariant_maps_to_the_integer_model(self, workspace, run):
        inv = workspace("inv.json", docs.encode_invariant(integers_invariant()))
        out_path = workspace.dir / "model.json"
        code, out, _ = run("functor", inv, "--out", str(out_path))
        assert code == EXIT_OK
        report = report_of(out)
        assert report["model"] == docs.encode_wmodel(w_of_z())
        kind, written = docs.load_document(out_path.read_text(encoding="utf-8"))
        assert kind == "wmodel"
        assert written == w_of_z()

    def test_morphism_induces_a_map_of_models(self, workspace, run):
        doc = collapse_pair()
        inv = workspace("inv.json", doc["source"])
        mor_path = workspace("mor.json", doc)
        code, out, _ = run("functor", inv, mor_path)
        assert code == EXIT_OK
        induced = report_of(out)["induced"]
        assert induced["theta0"] == [[1, 0], [0, 1]]
        assert induced["gamma"] == [["1/2"], ["1/2"]]
        assert induced["target_model"] == docs.encode_wmodel(
            functor_g_obj(docs.decode_invariant(doc["target"]))
        )

    def test_morphism_source_must_match_the_invariant(self, workspace, run):
        doc = collapse_pair()
        other = workspace("inv.json", doc["target"])
        mor_path = workspace("mor.json", doc)
        code, _, err = run("functor", other, mor_path)
        assert code == EXIT_INVALID
        assert "differs" in err

    @pytest.mark.parametrize(
        "change",
        [{"k1": {"free_rank": 1, "torsion": []}}, {"trace_labels": ["a", "b"]}],
        ids=["k1", "trace-labels"],
    )
    def test_morphism_source_differing_in_one_field_is_refused(
        self, workspace, run, change
    ):
        # the same K0 group and states, so only the changed field tells them apart
        doc = collapse_pair()
        inv = workspace("inv.json", {**doc["source"], **change})
        mor_path = workspace("mor.json", doc)
        code, out, err = run("functor", inv, mor_path)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == "error: morphism source differs from the invariant"

    def test_morphism_check_valid(self, workspace, run):
        mor_path = workspace("mor.json", collapse_pair())
        code, out, _ = run("morphism-check", mor_path)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "valid"
        assert report["problems"] == []

    def test_morphism_check_flags_a_gamma_of_the_wrong_shape(self, workspace, run):
        doc = collapse_pair()
        doc["gamma"] = [["1/2"]]  # one source trace row, the source has two
        mor_path = workspace("mor.json", doc)
        code, out, _ = run("morphism-check", mor_path)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "invalid"
        assert report["problems"] == ["gamma must be (source traces) x (target traces)"]

    def test_morphism_check_flags_non_convex_trace_map(self, workspace, run):
        doc = collapse_pair()
        doc["gamma"] = [["1/2"], ["1/4"]]
        mor_path = workspace("mor.json", doc)
        code, out, _ = run("morphism-check", mor_path)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "invalid"
        assert report["problems"]


TWO_LEVEL_TARGET = {
    "kind": "target",
    "type": "step",
    "partition": ["0", "1/2", "1"],
    "interval_values": ["1/2", "1"],
    "point_values": ["1/2", "1/2", "1"],
}


class TestRealize:
    def test_vector_target_dyadic_staircase(self, workspace, run):
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": ["1"]}
        )
        code, out, _ = run("realize", target, "--stages", "3")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["mode"] == "dyadic"
        assert report["increment_norm_total"] == "7/8"
        assert report["table"]["rows"] == [
            [1, "1/2", "1/2", "1/2"],
            [2, "3/4", "1/4", "1/4"],
            [3, "7/8", "1/8", "1/8"],
        ]

    def test_tiny_vector_coordinate_is_refused_promptly(self, workspace, run):
        # the first positive stage of 1/10^4250 is 14120; it comes from bit
        # lengths; stepping through 14,120 stages of 201 coordinates took 30 s
        values = ["1"] * 200 + ["1/1" + "0" * 4250]
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": values}
        )
        started = time.perf_counter()
        code, out, err = run("realize", target, "--stages", "6")
        assert time.perf_counter() - started < 5
        assert code == EXIT_INVALID
        assert out == ""
        assert "error: need at least stage 14120 for this target" in err

    def test_vector_target_with_denominator_schedule(self, workspace, run):
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": ["1"]}
        )
        schedule = workspace(
            "s.json", {"kind": "schedule", "denominators": [2, 4, 8]}
        )
        code, out, _ = run("realize", target, schedule, "--stages", "3")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["mode"] == "projection-sup"
        assert report["table"]["rows"] == [
            [1, 2, "1/2", "1/2"],
            [2, 4, "3/4", "1/4"],
            [3, 8, "7/8", "1/8"],
        ]

    def test_vector_target_rejects_a_sizes_schedule(self, workspace, run):
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": ["1"]}
        )
        schedule = workspace("s.json", {"kind": "schedule", "sizes": [2, 4, 8]})
        code, _, err = run("realize", target, schedule, "--stages", "3")
        assert code == EXIT_INVALID
        assert "denominator schedule" in err

    def test_sizes_past_the_denominator_cap_are_read(self, workspace, run):
        # the 2^30 cap is the denominators spelling's; an unused size above it
        # leaves the report of the stages asked for as it is
        target = workspace("t.json", TWO_LEVEL_TARGET)
        reports = []
        for sizes in ([2, 4], [2, 4, 2**31]):
            schedule = workspace("s.json", {"kind": "schedule", "sizes": sizes})
            code, out, _ = run("realize", target, schedule, "--stages", "2")
            assert code == EXIT_OK
            reports.append(out)
        assert reports[0] == reports[1]
        assert report_of(reports[1])["verdict"] == "pass"

    def test_step_target_passes_all_stage_checks(self, workspace, run):
        target = workspace("t.json", TWO_LEVEL_TARGET)
        code, out, _ = run("realize", target, "--stages", "3")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["mode"] == "step"
        assert report["verdict"] == "pass"
        columns = report["table"]["columns"]
        for row in report["table"]["rows"]:
            checks = dict(zip(columns, row))
            assert checks["increment_ok"] == "true"
            assert checks["monotone"] == "true"
            assert checks["gap_ok"] == "true"
            assert checks["dimension_exact"] == "true"

    def test_goodearl_command_matches_realize_on_steps(self, workspace, run):
        target = workspace("t.json", TWO_LEVEL_TARGET)
        schedule = workspace("s.json", {"kind": "schedule", "sizes": [2, 4, 8]})
        code, out, _ = run("goodearl", target, schedule, "--stages", "3")
        assert code == EXIT_OK
        report = report_of(out)
        assert report["command"] == "goodearl"
        assert report["verdict"] == "pass"
        assert [row[1] for row in report["table"]["rows"]] == [2, 4, 8]

    def test_goodearl_rejects_vector_targets(self, workspace, run):
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": ["1"]}
        )
        code, _, err = run("goodearl", target, "--stages", "3")
        assert code == EXIT_INVALID
        assert "step target" in err
        # before the schedule is read
        code, _, err = run("goodearl", target, "/nonexistent/s.json", "--stages", "3")
        assert code == EXIT_INVALID
        assert err.splitlines()[0] == "error: goodearl needs a step target"

    def test_stages_flag_is_required(self, workspace, run):
        target = workspace("t.json", TWO_LEVEL_TARGET)
        for command in ("realize", "goodearl"):
            code, _, err = run(command, target)
            assert code == EXIT_INVALID
            assert err.splitlines()[0] == f"error: {command} needs --stages >= 1"


class TestOutputPlumbing:
    def test_table_format_renders_tsv(self, workspace, run):
        target = workspace(
            "t.json", {"kind": "target", "type": "vector", "values": ["1"]}
        )
        code, out, _ = run(
            "realize", target, "--stages", "3", "--format", "table"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "stage\tlevel\tincrement\tsup_gap"
        assert len(lines) == 4
        assert lines[1].split("\t") == ["1", "1/2", "1/2", "1/2"]

    def test_flat_table_format_for_reports_without_tables(
        self, workspace, run
    ):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(1))
        code, out, _ = run("compare", model, x, x, "--format", "table")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "key\tvalue"
        assert "verdict\t≤ and ≥" in lines

    def test_unknown_document_kind(self, workspace, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}', encoding="utf-8")
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, _, err = run("compare", model, str(bad), str(bad))
        assert code == EXIT_INVALID
        assert "unknown document kind" in err

    def test_wrong_document_kind_for_the_slot(self, workspace, run):
        x = workspace("x.json", proj_doc(1))
        code, _, err = run("compare", x, x, x)
        assert code == EXIT_INVALID
        assert "expected a wmodel" in err

    def test_broken_json_is_invalid_not_internal(self, workspace, run, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, _, err = run("compare", model, str(broken), str(broken))
        assert code == EXIT_INVALID
        assert "invalid JSON" in err

    def test_bom_led_document_is_refused_as_json_loads_refuses_it(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace.dir / "bom.json"
        x.write_text("\ufeff" + json.dumps(proj_doc(1)), encoding="utf-8")
        code, out, err = run("compare", model, str(x), str(x))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == ("error: invalid JSON: Unexpected UTF-8 BOM (decode "
                                       "using utf-8-sig): line 1 column 1 (char 0)")

    def test_missing_file_is_invalid(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, _, err = run("compare", model, "/nonexistent/x.json", model)
        assert code == EXIT_INVALID
        assert "error:" in err

    def test_unwritable_out_path_exits_2_before_the_report(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace("x.json", proj_doc(1))
        missing = workspace.dir / "missing" / "out.json"
        for path, reason in ((missing, "No such file or directory"),
                             (workspace.dir, "Is a directory")):
            code, out, err = run("add", model, x, x, "--out", str(path))
            assert code == EXIT_INVALID
            assert out == ""
            assert err.startswith("error: ") and reason in err.splitlines()[0]
        assert not missing.parent.exists()

    @pytest.mark.parametrize("values, message", [
        ("[" * 10**5 + "]" * 10**5, "error: invalid JSON: maximum recursion depth exceeded"),
        # json refuses to convert it: the int_max_str_digits limit is 4300 digits
        ("[" + "1" * 5000 + "]", "error: invalid JSON: an integer has more than 4300 digits"),
    ], ids=["nested-100000-deep", "integer-of-5000-digits"])
    def test_oversize_json_is_invalid_not_internal(self, workspace, run, values, message):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        x = workspace.dir / "x.json"
        doc = '{"kind": "class", "type": "proj", "values": ' + values + "}"
        x.write_text(doc, encoding="utf-8")
        code, out, err = run("compare", model, str(x), str(x))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0].startswith(message)

    @pytest.mark.parametrize("ctype, values, factor, first_line", [
        ("soft", '["' + "x" * 5000 + '", "1"]', "2",
         "error: values[0]: bad rational string '" + "x" * 39 + "... (5002 characters)"),
        ("soft", '["1e' + "9" * 5000 + '", "1"]', "2",
         "error: values[0]: exponents are not accepted in rationals: '1e" + "9" * 37
         + "... (5004 characters)"),
        ("soft", "[" + json.dumps(["1"] * 3000) + ', "1"]', "2",
         "error: values[0]: expected a rational, got [" + "'1', " * 7
         + "'1',... (15000 characters)"),
        ("proj", '["1/' + "3" * 3000 + '", 1]', "2",
         "error: values[0]: expected an integer, got 1/" + "3" * 38 + "... (3002 characters)"),
        ("soft", "[1." + "0" * 5000 + ", 1]", "2",
         "error: floats are not accepted in documents: 1." + "0" * 38
         + "... (5002 characters)"),
        ("soft", '["1", "1"]', "x" * 5000,
         "error: bad rational string '" + "x" * 39 + "... (5002 characters)"),
    ], ids=["string", "exponent", "list", "integer", "float", "factor"])
    def test_oversize_values_are_named_by_prefix_and_length(
        self, workspace, run, ctype, values, factor, first_line
    ):
        model = workspace("m.json", docs.encode_wmodel(two_trace_model()))
        x = workspace.dir / "x.json"
        doc = '{"kind": "class", "type": "%s", "values": %s}' % (ctype, values)
        x.write_text(doc, encoding="utf-8")
        code, out, err = run("scale", model, str(x), factor)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.splitlines()[0] == first_line
        assert all(len(line) < 200 for line in err.splitlines())


TWO_TRACE_DOC = {
    "kind": "wmodel",
    "variant": "finite",
    "rank": 2,
    "states": [["1/2", "1/2"], ["1/4", "3/4"]],
    "unit": [1, 1],
    "trace_labels": ["a", "b"],
}


def generated_group(generators) -> dict:
    return {
        "kind": "pogroup",
        "rank": 2,
        "unit": [1, 1],
        "cone": {"type": "generated", "generators": generators},
    }


def simplicial_group(rank: int, unit) -> dict:
    return {"kind": "pogroup", "rank": rank, "unit": unit, "cone": {"type": "simplicial"}}


def step_target(partition, interval_values, point_values) -> dict:
    return {
        "kind": "target",
        "type": "step",
        "partition": partition,
        "interval_values": interval_values,
        "point_values": point_values,
    }


# a state that takes the value 1/2 on the unit
HALF_STATE_INVARIANT = {
    "kind": "invariant",
    "k0": {"rank": 1, "states": [["1/2"]], "unit": [1]},
    "k1": {"free_rank": 0, "torsion": []},
}

# (argv with "DOC" for the document, document, the first stderr line)
DOCUMENT_CHECKS = {
    "non-integer-unit": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "unit": ["1/2", 1]},
        "error: unit[0]: expected an integer, got 1/2",
    ),
    # a scalar of the wrong JSON type is refused by its field, and an element
    # by its index
    "array-rank": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "rank": [2]},
        "error: rank: expected a rational, got [2]",
    ),
    "array-in-unit": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "unit": [[1], 1]},
        "error: unit[0]: expected a rational, got [1]",
    ),
    "array-in-state-row": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "states": [[["1"], "1/2"], ["1/4", "3/4"]]},
        "error: states[0][0]: expected a rational, got ['1']",
    ),
    "repeated-trace-labels": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "trace_labels": ["a", "a"]},
        "error: invalid wmodel document: labels must be distinct and match the "
        "trace count",
    ),
    "repeated-invariant-trace-labels": (
        ("functor", "DOC"),
        {**collapse_pair()["source"], "trace_labels": ["a", "a"]},
        "error: invalid invariant document: labels must be distinct and match the "
        "trace count",
    ),
    "too-few-invariant-trace-labels": (
        ("functor", "DOC"),
        {**collapse_pair()["source"], "trace_labels": ["a"]},
        "error: invalid invariant document: labels must be distinct and match the "
        "trace count",
    ),
    "string-trace-labels": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "trace_labels": "ab"},
        "error: trace_labels must be a list of strings",
    ),
    "object-and-list-trace-labels": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "trace_labels": [{"x": 1}, [2]]},
        "error: trace_labels must be a list of strings",
    ),
    "integer-trace-labels": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "trace_labels": [1, 2]},
        "error: trace_labels must be a list of strings",
    ),
    "string-invariant-trace-labels": (
        ("functor", "DOC"),
        {**collapse_pair()["source"], "trace_labels": "ab"},
        "error: trace_labels must be a list of strings",
    ),
    "no-generators": (
        ("check", "DOC", "archimedean"),
        generated_group([]),
        "error: invalid pogroup document: a generated cone needs at least one "
        "generator",
    ),
    "generators-of-mixed-rank": (
        ("check", "DOC", "archimedean"),
        generated_group([[1, 0], [1]]),
        "error: invalid pogroup document: generators of mixed rank",
    ),
    "zero-generator": (
        ("check", "DOC", "archimedean"),
        generated_group([[1, 0], [0, 0]]),
        "error: invalid pogroup document: zero generator is redundant, drop it",
    ),
    **{
        f"rank-1-generators-of-both-signs-{suite}": (
            ("check", "DOC", suite),
            {**generated_group([[2], [-3]]), "rank": 1, "unit": [2]},
            "error: invalid pogroup document: rank-1 generators of both signs span the "
            "subgroup 1Z, not a positive cone",
        )
        for suite in ("weak-unperforation", "archimedean")
    },
    "rank-1-generators-of-both-signs-4Z": (
        ("check", "DOC", "archimedean"),
        {**generated_group([[4], [8], [-12]]), "rank": 1, "unit": [4]},
        "error: invalid pogroup document: rank-1 generators of both signs span the "
        "subgroup 4Z, not a positive cone",
    ),
    # -g in the table of sums puts g and -g both in the cone: it holds a line
    **{
        f"generators-spanning-a-line-{suite}": (
            ("check", "DOC", suite),
            {**generated_group([[1, 0], [-1, 0], [0, 1]]), "unit": [0, 1]},
            "error: invalid pogroup document: the cone holds the generator [1, 0] and its "
            "negation, so it contains a line, not a positive cone",
        )
        for suite in ("weak-unperforation", "archimedean")
    },
    "negation-a-sum-of-two-generators": (
        ("check", "DOC", "archimedean"),
        generated_group([[1, 0], [-1, 1], [0, -1]]),
        "error: invalid pogroup document: the cone holds the generator [1, 0] and its "
        "negation, so it contains a line, not a positive cone",
    ),
    "rank-zero-group": (
        ("check", "DOC", "archimedean"),
        simplicial_group(0, []),
        "error: invalid pogroup document: rank must be at least 1",
    ),
    "zero-unit-group": (
        ("check", "DOC", "archimedean"),
        simplicial_group(2, [0, 0]),
        "error: invalid pogroup document: order unit must be nonzero",
    ),
    "unit-of-the-wrong-length": (
        ("check", "DOC", "archimedean"),
        simplicial_group(2, [1, 1, 1]),
        "error: invalid pogroup document: order unit has the wrong rank",
    ),
    "strict-states-group-without-states": (
        ("check", "DOC", "archimedean"),
        {**simplicial_group(2, [1, 1]), "cone": {"type": "strict-states", "states": []}},
        "error: invalid pogroup document: a strict-state cone needs at least one state",
    ),
    "wmodel-without-states": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "states": []},
        "error: invalid wmodel document: a strict-state cone needs at least one state",
    ),
    "partition-short-of-one": (
        ("realize", "DOC", "--stages", "2"),
        step_target(["0", "1/2", "3/4"], ["1/2", "1"], ["1/2", "1/2", "1"]),
        "error: invalid target document: partition must run from 0 to 1",
    ),
    "partition-repeats-a-point": (
        ("realize", "DOC", "--stages", "2"),
        step_target(
            ["0", "1/2", "1/2", "1"], ["1/2", "1", "1"], ["1/2", "1/2", "1", "1"]
        ),
        "error: invalid target document: partition must strictly increase",
    ),
    "negative-step-value": (
        ("realize", "DOC", "--stages", "2"),
        step_target(["0", "1/2", "1"], ["-1/2", "1"], ["-1/2", "-1/2", "1"]),
        "error: invalid target document: values must be non-negative",
    ),
    "step-value-counts-off-the-partition": (
        ("realize", "DOC", "--stages", "2"),
        step_target(["0", "1/2", "1"], ["1/2"], ["1/2", "1/2", "1"]),
        "error: invalid target document: value counts do not match the partition",
    ),
    # the partition point is written 2/4; the message names it in lowest terms
    "step-point-value-above-its-pieces": (
        ("realize", "DOC", "--stages", "2"),
        step_target(["0", "2/4", "1"], ["1/2", "1/2"], ["1/2", "3/4", "1/2"]),
        "error: invalid target document: not lower semicontinuous at 1/2: point value "
        "3/4 exceeds an adjacent interval value",
    ),
    "zero-size": (
        ("realize", "TARGET", "DOC", "--stages", "2"),
        {"kind": "schedule", "sizes": [0, 2]},
        "error: invalid schedule document: schedule entries must be positive",
    ),
    "denominator-past-the-cap": (
        ("realize", "TARGET", "DOC", "--stages", "2"),
        {"kind": "schedule", "denominators": [2, 2**31]},
        "error: invalid schedule document: denominators must be at most 1073741824",
    ),
    "step-target-with-denominators": (
        ("realize", "TARGET", "DOC", "--stages", "2"),
        {"kind": "schedule", "denominators": [2, 4]},
        "error: step targets take a sizes schedule",
    ),
    # the first stage's step_approximant refuses a value above 1
    "step-value-above-one": (
        ("realize", "DOC", "--stages", "2"),
        step_target(["0", "1/2", "1"], ["1/2", "3/2"], ["1/2", "1/2", "3/2"]),
        "error: realization targets take values in [0, 1]",
    ),
    "goodearl-step-value-above-one": (
        ("goodearl", "DOC", "--stages", "2"),
        step_target(["0", "1/2", "1"], ["1/2", "3/2"], ["1/2", "1/2", "3/2"]),
        "error: realization targets take values in [0, 1]",
    ),
    # a string or an object where an array belongs is refused, not read by
    # characters or keys, and one where an object belongs is refused by name
    "string-vector-values": (
        ("realize", "DOC", "--stages", "2"),
        {"kind": "target", "type": "vector", "values": "12"},
        "error: values must be an array, not a string",
    ),
    "string-denominators": (
        ("realize", "TARGET", "DOC", "--stages", "2"),
        {"kind": "schedule", "denominators": "36"},
        "error: denominators must be an array, not a string",
    ),
    "string-state-rows": (
        ("compare", "DOC", "DOC", "DOC"),
        {**TWO_TRACE_DOC, "states": ["10", "01"], "unit": "11"},
        "error: states[0] must be an array, not a string",
    ),
    "object-unit": (
        ("k0star", "DOC"),
        {**TWO_TRACE_DOC, "unit": {"1": 1, "2": 1}},
        "error: unit must be an array, not an object",
    ),
    "string-cone": (
        ("check", "DOC", "archimedean"),
        {**simplicial_group(2, [1, 1]), "cone": "type"},
        "error: cone must be an object, not a string",
    ),
    "empty-array-k0": (
        ("functor", "DOC"),
        {**collapse_pair()["source"], "k0": []},
        "error: k0 must be an object, not an array",
    ),
    # K0Model refuses such a state when the document is decoded
    "invariant-state-not-one-on-the-unit": (
        ("functor", "DOC"),
        HALF_STATE_INVARIANT,
        "error: invalid invariant document: every state must take the value 1 on "
        "the order unit",
    ),
    **{
        f"morphism-{end}-state-not-one-on-the-unit": (
            ("morphism-check", "DOC"),
            {**collapse_pair(), end: HALF_STATE_INVARIANT},
            "error: invalid morphism document: every state must take the value 1 on "
            "the order unit",
        )
        for end in ("source", "target")
    },
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_CHECKS))
def test_document_input_checks_exit_2(workspace, run, case):
    argv, doc, message = DOCUMENT_CHECKS[case]
    paths = {"DOC": workspace("doc.json", doc), "TARGET": workspace("t.json", TWO_LEVEL_TARGET)}
    code, out, err = run(*(paths.get(a, a) for a in argv))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.splitlines()[0] == message


def test_gap_check_on_integer_forms_matches_the_fraction_test(monkeypatch):
    # each stage's gap check is 0 <= f(x) - g(x) <= 1/n; the report decides it
    # on integer forms, so compare that predicate with the Fraction one
    checks = []

    def spy(f, g, holds):
        checks.append(holds)
        return real(f, g, holds)

    real = cli.step_witnesses
    monkeypatch.setattr(cli, "step_witnesses", spy)
    half = Fraction(1, 2)
    target = StepFn((0, half, 1), (half, 1), (half, half, 1))  # TWO_LEVEL_TARGET
    sizes = (3, 6, 12)
    report = cli._step_realize_report(target, RealizationSchedule(sizes), 3, "realize")
    assert report["verdict"] == "pass" and len(checks) == len(sizes)
    rng = random.Random(24)
    tiny = Fraction(1, 10**17)
    for holds, n in zip(checks, sizes):
        gap = Fraction(1, n)
        av = [Fraction(rng.randint(0, 99), rng.randint(1, 99)) for _ in range(300)]
        cases = [(a, a + d) for a in av for d in (0, gap, -tiny, tiny, gap - tiny, gap + tiny)]
        cases += [(a, b) for a, b in zip(av, reversed(av))]
        for a, fv in cases:  # step_witnesses hands the predicate integer forms
            got = holds(fv.as_integer_ratio(), a.as_integer_ratio())
            assert got == (0 <= fv - a <= gap), (n, fv, a)


def test_oracle_states_equal_the_fraction_matrix_vector_product():
    # the oracle brings the state rows and the pool's soft values to one
    # denominator q and sums integer products; on rows with negative and
    # non-dyadic entries, each vector must be q times the plain Fraction
    # product (or the soft values), every entry an int, and q the least
    # denominator that clears every state entry and soft value
    rng = random.Random(32)
    entries = set()
    for _ in range(200):
        rank, n = rng.randint(1, 4), rng.randint(1, 3)
        unit = tuple(rng.randint(1, 4) for _ in range(rank))
        rows = []
        for _ in range(n):  # each row takes the value 1 on the unit
            weights = [rng.randint(-5, 6) for _ in range(rank)]
            total = sum(w * u for w, u in zip(weights, unit))
            if total < 1:
                weights[0] += 1 - total
                total = sum(w * u for w, u in zip(weights, unit))
            rows.append(tuple(Fraction(w, total) for w in weights))
        entries.update(q for row in rows for q in row)
        model = WModel(K0Model(rank, tuple(rows), unit))
        pool = [CuntzClass.proj(tuple(rng.randint(-6, 6) for _ in range(rank)))
                for _ in range(5)]
        pool += [CuntzClass.soft(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                       for _ in range(n)))
                 for _ in range(rng.randint(0, 3))]
        q, states = cli._oracle_states(model, pool)
        assert len(states) == len(pool)
        for c, s in zip(pool, states):
            exact = matvec(model.k0.state_matrix, c.values) if c.is_proj else c.values
            assert s == tuple(q * e for e in exact), (rows, c)
            assert all(type(e) is int for e in s), (rows, c)
        cleared = [e for row in rows for e in row]
        cleared += [v for c in pool if c.is_soft for v in c.values]
        # the least positive integer that clears every one is their lcm
        assert q == math.lcm(*[e.denominator for e in cleared]), (rows, pool)
    assert any(q < 0 for q in entries)
    assert any(q.denominator % 2 and q.denominator > 1 for q in entries)


# (K0 rank, traces) of the models the benchmark's order-checks workload draws
ORDER_SHAPES = ((1, 1), (2, 2), (3, 2), (3, 3), (4, 4))
DIFFERENTIAL_MODELS = [
    WModel(shaped_k0model(random.Random(index), rank, traces))
    for index, (rank, traces) in enumerate(ORDER_SHAPES)
] + [mixed_sign_model()]
# the states -I reject every candidate in {0, ..., 3}^3 but 0, so its
# rejections fill a small class table and later classes are made afresh
REJECTING_MODEL = WModel(K0Model(
    3, tuple(tuple(-int(i == j) for j in range(3)) for i in range(3)), (-1, -1, -1)))


@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken"])
@pytest.mark.parametrize("suite", ["order-axioms", "strict-cone", "oracle-agreement"])
def test_sampling_suites_report_what_one_draw_at_a_time_reports(
    monkeypatch, suite, broken
):
    # each suite draws its integers in runs and decides a pool pair once; the
    # reference draws each value through random.Random's own methods and
    # decides every draw afresh.  Their whole reports and the generators'
    # final states must agree, also with the rule each suite reads broken
    # so that its failures name what it drew.  The suite takes a seed, and
    # cli.rng_for hands it the generator whose final state is read.
    reference = {
        "order-axioms": reference_order_axioms,
        "strict-cone": reference_strict_cone,
        "oracle-agreement": reference_oracle_agreement,
    }[suite]
    if broken and suite == "order-axioms":
        monkeypatch.setattr(cli, "element_leq", cut_order)
    elif broken and suite == "strict-cone":
        monkeypatch.setattr(WModel, "gamma", broken_gamma(WModel.gamma))
    elif broken:
        monkeypatch.setattr(cli, "_oracle_leq", lax_oracle(cli._oracle_leq))
        reference = functools.partial(
            reference_oracle_agreement, oracle=lax_oracle(reference_oracle_leq)
        )
    runner = cli.SUITE_TABLE[suite][0]
    cap = sampling.TABLE_CAP
    cases = [(model, seed, bound, cap) for model in DIFFERENTIAL_MODELS
             for seed in range(8) for bound in (1, 2, 400)]
    if suite == "oracle-agreement":  # two full runs of draws and part of a third
        cases.append((DIFFERENTIAL_MODELS[3], 5, 2 * cli.PAIRS_PER_RUN + 3, cap))
    # the class table and the memos full after three entries: later classes
    # are made, imaged and compared afresh, and a memo keeps what it keys
    cases += [(model, seed, 400, 3) for model in DIFFERENTIAL_MODELS for seed in range(2)]
    cases += [(REJECTING_MODEL, seed, 100, 3) for seed in range(2)]
    failing = 0
    for model, seed, bound, cap in cases:
        monkeypatch.setattr(sampling, "TABLE_CAP", cap)
        ours, theirs = random.Random(seed), random.Random(seed)
        monkeypatch.setattr(cli, "rng_for", {seed: ours}.__getitem__)
        details = runner(model, seed, bound)
        assert details == reference(model, theirs, bound), (model, seed, bound, cap)
        assert ours.getstate() == theirs.getstate(), (model, seed, bound, cap)
        failing += bool(details["failures"])
    assert bool(failing) == broken
