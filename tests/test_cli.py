"""End-to-end tests for the command-line front end.

Each test drives ``main(argv)`` in process the way a shell would, with
documents written to a temp directory, then reads the JSON report back
from captured stdout.  Timing noise lives on stderr by contract, so
stdout must be byte-identical across runs with the same inputs.
"""

import json
from fractions import Fraction

import pytest

from cuntzcalc import documents as docs
from cuntzcalc.cli import DEFAULT_SEED, EXIT_INVALID, EXIT_OK, main
from cuntzcalc.elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
    functor_g_obj,
)
from cuntzcalc.wmodel import (
    CuntzClass,
    K0Model,
    TraceSimplex,
    WModel,
    purely_infinite,
    w_of_z,
)


def two_trace_model() -> WModel:
    k0 = K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1))
    return WModel(k0, TraceSimplex(2))


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
        code, _, err = run("order-unit", model, "0,-1")
        assert code == EXIT_INVALID
        assert "error:" in err


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

    def test_unknown_suite_is_a_parser_error(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        with pytest.raises(SystemExit) as excinfo:
            main(["check", model, "bogus"])
        assert excinfo.value.code == 2


def integers_invariant() -> ElliottInvariant:
    k0 = K0Model(1, ((1,),), (1,))
    return ElliottInvariant(k0, AbelianGroupData(0), TraceSimplex(1))


def collapse_pair():
    """Two-trace source, one-trace target, traces averaged evenly."""
    source = ElliottInvariant(
        K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1)),
        AbelianGroupData(0),
        TraceSimplex(2),
    )
    target = ElliottInvariant(
        K0Model(2, (("3/8", "5/8"),), (1, 1)),
        AbelianGroupData(0),
        TraceSimplex(1),
    )
    theta1 = AbelianGroupHom(AbelianGroupData(0), AbelianGroupData(0), ())
    mor = InvariantMorphism(
        ((1, 0), (0, 1)), theta1, (("1/2",), ("1/2",))
    )
    return mor, source, target


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
        mor, source, target = collapse_pair()
        inv = workspace("inv.json", docs.encode_invariant(source))
        mor_path = workspace(
            "mor.json", docs.encode_morphism(mor, source, target)
        )
        code, out, _ = run("functor", inv, mor_path)
        assert code == EXIT_OK
        induced = report_of(out)["induced"]
        assert induced["theta0"] == [[1, 0], [0, 1]]
        assert induced["gamma"] == [["1/2"], ["1/2"]]
        assert induced["target_model"] == docs.encode_wmodel(
            functor_g_obj(target)
        )

    def test_morphism_source_must_match_the_invariant(self, workspace, run):
        mor, source, target = collapse_pair()
        other = workspace("inv.json", docs.encode_invariant(target))
        mor_path = workspace(
            "mor.json", docs.encode_morphism(mor, source, target)
        )
        code, _, err = run("functor", other, mor_path)
        assert code == EXIT_INVALID
        assert "differs" in err

    def test_morphism_check_valid(self, workspace, run):
        mor, source, target = collapse_pair()
        mor_path = workspace(
            "mor.json", docs.encode_morphism(mor, source, target)
        )
        code, out, _ = run("morphism-check", mor_path)
        assert code == EXIT_OK
        report = report_of(out)
        assert report["verdict"] == "valid"
        assert report["problems"] == []

    def test_morphism_check_flags_non_convex_trace_map(self, workspace, run):
        mor, source, target = collapse_pair()
        doc = docs.encode_morphism(mor, source, target)
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

    def test_stages_flag_is_required(self, workspace, run):
        target = workspace("t.json", TWO_LEVEL_TARGET)
        code, _, err = run("realize", target)
        assert code == EXIT_INVALID
        assert "--stages" in err


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

    def test_missing_file_is_invalid(self, workspace, run):
        model = workspace("m.json", docs.encode_wmodel(w_of_z()))
        code, _, err = run("compare", model, "/nonexistent/x.json", model)
        assert code == EXIT_INVALID
        assert "error:" in err
