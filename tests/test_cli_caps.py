"""Size caps of the command-line front end, checked before any work starts.

Every case here is refused (or let through) by validation alone: the
sampling, realization and decomposition routines, and the candidate
enumeration of ordmon's weak-unperforation and archimedean walks, are
replaced by stubs that fail the test if a refused request reaches them, so
no capped computation ever runs.  Cones decided by theorem (simplicial,
strict-state, and a wmodel's simplicial K0* group) walk nothing, so they are
answered at any rank, with the enumeration still stubbed.
"""

import json
import time

import pytest
from support import two_trace_model

from cuntzcalc import cli, ordmon
from cuntzcalc import documents as docs
from cuntzcalc.cli import (
    EXIT_INVALID,
    EXIT_OK,
    SAMPLE_BOUND_CAP,
    STEP_SIZE_CAP,
    VECTOR_STAGES_CAP,
    main,
)
from cuntzcalc.goodearl import RealizationSchedule
from cuntzcalc.ordmon import (
    COEFF_VECTORS_CAP,
    SEARCH_WORK_CAP,
    SUMS_WORDS_CAP,
    box_bound,
    box_size,
)
from cuntzcalc.wmodel import K0Model, WModel

STEP_TARGET = {
    "kind": "target",
    "type": "step",
    "partition": ["0", "1/2", "1"],
    "interval_values": ["1/2", "1"],
    "point_values": ["1/2", "1/2", "1"],
}
VECTOR_TARGET = {"kind": "target", "type": "vector", "values": ["2/3", "1/5"]}
SAMPLING_SUITES = ("order-axioms", "strict-cone", "oracle-agreement")
SEARCH_SUITES = ("weak-unperforation", "archimedean")
STUB_MESSAGE = "validation passed"


def _stub(*args, **kwargs):
    raise ValueError(STUB_MESSAGE)


@pytest.fixture()
def stubbed(monkeypatch):
    """Stub out every routine that does the capped work."""
    for name in (
        "random_class",
        "realize",
        "summable_decomposition",
        "projection_sup_realization",
    ):
        monkeypatch.setattr(cli, name, _stub)
    monkeypatch.setattr(ordmon, "_int_vectors_by_norm", _stub)
    dyadic = RealizationSchedule.dyadic

    def bounded_dyadic(stages):
        # the default schedule is built up to the first size past the cap at most
        if stages > STEP_SIZE_CAP.bit_length():
            _stub()
        return dyadic(stages)

    monkeypatch.setattr(RealizationSchedule, "dyadic", bounded_dyadic)


@pytest.fixture()
def put(tmp_path):
    def _put(name: str, doc: dict) -> str:
        path = tmp_path / name
        path.write_text(docs.dump_document(doc), encoding="utf-8")
        return str(path)

    return _put


@pytest.fixture()
def run(capsys):
    def _run(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.mark.parametrize("suite", SAMPLING_SUITES)
def test_sampling_bound_above_the_cap_is_refused(stubbed, put, run, suite):
    model = put("m.json", docs.encode_wmodel(two_trace_model()))
    code, out, err = run("check", model, suite, "--bound", str(SAMPLE_BOUND_CAP + 1))
    assert code == EXIT_INVALID
    assert out == ""
    assert f"at most {SAMPLE_BOUND_CAP}" in err
    assert STUB_MESSAGE not in err


@pytest.mark.parametrize("suite", SAMPLING_SUITES)
def test_sampling_bound_at_the_cap_reaches_sampling(stubbed, put, run, suite):
    model = put("m.json", docs.encode_wmodel(two_trace_model()))
    code, _, err = run("check", model, suite, "--bound", str(SAMPLE_BOUND_CAP))
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


@pytest.mark.parametrize("command", ["realize", "goodearl"])
@pytest.mark.parametrize("stages", ["13", "30", str(10**9)])
def test_dyadic_step_stages_past_the_size_cap_are_refused(
    stubbed, put, run, command, stages
):
    target = put("t.json", STEP_TARGET)
    code, out, err = run(command, target, "--stages", stages)
    assert code == EXIT_INVALID
    assert out == ""
    assert f"stage sizes at most {STEP_SIZE_CAP}" in err
    assert STUB_MESSAGE not in err


@pytest.mark.parametrize("command", ["realize", "goodearl"])
def test_sizes_schedule_past_the_size_cap_is_refused(stubbed, put, run, command):
    target = put("t.json", STEP_TARGET)
    schedule = put("s.json", {"kind": "schedule", "sizes": [2, 2 * STEP_SIZE_CAP]})
    code, out, err = run(command, target, schedule, "--stages", "2")
    assert code == EXIT_INVALID
    assert out == ""
    assert f"stage sizes at most {STEP_SIZE_CAP}" in err
    assert STUB_MESSAGE not in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--stages", "12"],  # dyadic sizes up to 4096
        ["@sizes", "--stages", "2"],
        ["@too_big", "--stages", "1"],  # only the stages asked for count
    ],
)
def test_step_sizes_within_the_cap_reach_realize(stubbed, put, run, extra):
    paths = {
        "@sizes": put("s.json", {"kind": "schedule", "sizes": [2, STEP_SIZE_CAP]}),
        "@too_big": put("b.json", {"kind": "schedule", "sizes": [2, 2 * STEP_SIZE_CAP]}),
    }
    target = put("t.json", STEP_TARGET)
    code, _, err = run("realize", target, *[paths.get(a, a) for a in extra])
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


@pytest.mark.parametrize("with_schedule", [False, True])
def test_vector_stages_above_the_cap_are_refused(stubbed, put, run, with_schedule):
    target = put("t.json", VECTOR_TARGET)
    schedule = []
    if with_schedule:
        schedule = [put("s.json", {"kind": "schedule", "denominators": [2, 4, 8]})]
    stages = str(VECTOR_STAGES_CAP + 1)
    code, out, err = run("realize", target, *schedule, "--stages", stages)
    assert code == EXIT_INVALID
    assert out == ""
    assert f"--stages at most {VECTOR_STAGES_CAP}" in err


def test_vector_stages_at_the_cap_reach_the_decomposition(stubbed, put, run):
    target = put("t.json", VECTOR_TARGET)
    code, _, err = run("realize", target, "--stages", str(VECTOR_STAGES_CAP))
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


def simplicial_group(rank: int) -> dict:
    cone = {"type": "simplicial"}
    return {"kind": "pogroup", "rank": rank, "cone": cone, "unit": [1] * rank}


def strict_state_group(rank: int) -> dict:
    """One state, the first coordinate: its theorem witness is
    x = (0, -1, ..., -1) against the unit (1, ..., 1)."""
    cone = {"type": "strict-states", "states": [[1] + [0] * (rank - 1)]}
    return {"kind": "pogroup", "rank": rank, "cone": cone, "unit": [1] * rank}


def trace_model(n: int) -> dict:
    """Its K0* group, which both searches run on, has rank n."""
    k0 = K0Model(1, ((1,),) * n, (1,))
    return docs.encode_wmodel(WModel(k0))


def generated_group(generators, coeff_bound: int) -> dict:
    cone = {"type": "generated", "generators": generators, "coeff_bound": coeff_bound}
    unit = [sum(column) for column in zip(*generators)]  # in the cone
    return {"kind": "pogroup", "rank": len(unit), "cone": cone, "unit": unit}


def walked_group(rank: int) -> dict:
    """A generated cone of ``rank`` with one generator, 25 coefficient
    vectors: both searches walk its candidate box."""
    return generated_group([[1] * rank], 24)


def test_default_boxes_and_the_work_cap_bound_the_multiplier():
    assert [box_bound(rank) for rank in range(1, 9)] == [12, 8, 6, 4, 3, 3, 3, 3]
    # the largest n_max each rank takes at its default box: none from rank 8
    largest = {rank: SEARCH_WORK_CAP // box_size(rank, box_bound(rank))
               for rank in range(5, 9)}
    assert largest == {5: 119, 6: 16, 7: 2, 8: 0}


@pytest.mark.parametrize("suite", SEARCH_SUITES)
def test_search_size_at_the_work_cap_reaches_the_search(stubbed, put, run, suite):
    # rank 5 enumerates 7^5 - 1 = 16,806 candidates: 119 multiples fit
    group = put("g.json", walked_group(5))
    code, _, err = run("check", group, suite, "--bound", "119")
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


@pytest.mark.parametrize("suite", SEARCH_SUITES)
@pytest.mark.parametrize(
    "doc, bound, rank, n_max",
    [
        (walked_group(5), ["--bound", "120"], 5, 120),
        (walked_group(7), [], 7, 10),  # 823,542 candidates at the default bound 10
        # search sizes past the 4,300 digits Python prints of an int
        (walked_group(6_000), [], 6_000, 10),
    ],
    ids=["rank-5-bound-120", "rank-7", "rank-6000"],
)
def test_search_size_above_the_work_cap_is_refused(
    stubbed, put, run, suite, doc, bound, rank, n_max
):
    model = put("m.json", doc)
    code, out, err = run("check", model, suite, *bound)
    assert code == EXIT_INVALID
    assert out == ""
    assert (f"the search on rank {rank} with multiplier {n_max} would try more than "
            f"{SEARCH_WORK_CAP} candidate multiples") in err
    assert STUB_MESSAGE not in err  # refused before the first candidate


@pytest.mark.parametrize("suite", SEARCH_SUITES)
def test_search_refusal_at_rank_20000_is_quick(stubbed, put, run, suite):
    model = put("m.json", walked_group(20_000))
    start = time.perf_counter()
    code, out, err = run("check", model, suite)
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert out == ""
    assert (f"the search on rank 20000 with multiplier 10 would try more than "
            f"{SEARCH_WORK_CAP} candidate multiples") in err


def big_entry_group(bits: int) -> dict:
    """A rank-5 cone with one generator of entries 2^bits at coeff_bound 999:
    1,000 sums of 5 entries, each up to 999 * 2^bits, of bits + 10 bits."""
    return generated_group([[2**bits] * 5], 999)


SUMS_TABLE_ERROR = (f"error: invalid pogroup document: the table of sums of at most "
                    f"{{}} generators would take more than {SUMS_WORDS_CAP} words")


@pytest.mark.parametrize(
    "doc, first_line",
    [
        # 25 sums of 20,000 entries, each up to 24 and so one word
        (walked_group(20_000), f"error: the search on rank 20000 with multiplier 10 "
                               f"would try more than {SEARCH_WORK_CAP} candidate multiples"),
        (walked_group(20_001), SUMS_TABLE_ERROR.format(24)),
        # 6,390 bits and a sign fill 100 words, 6,400 and a sign 101
        (big_entry_group(6_380), "error: " + STUB_MESSAGE),
        (big_entry_group(6_390), SUMS_TABLE_ERROR.format(999)),
    ],
    ids=["rank-20000-at-the-cap", "rank-20001-past-the-cap", "big-entries-at-the-cap",
         "big-entries-past-the-cap"],
)
def test_table_of_sums_is_capped_by_its_words(stubbed, put, run, doc, first_line):
    model = put("m.json", doc)
    start = time.perf_counter()
    code, out, err = run("check", model, "weak-unperforation")
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert out == ""
    assert err.splitlines()[0] == first_line


@pytest.mark.parametrize(
    "doc",
    [
        generated_group([[2], [3]], 24),
        {"kind": "pogroup", "rank": 2, "cone": {"type": "lexicographic"}, "unit": [1, 0]},
    ],
    ids=["generated-2-3", "lexicographic"],
)
def test_archimedean_walk_at_bound_1_is_refused(stubbed, put, run, doc):
    # y stays below the multiplier in max-norm, so at 1 no pair is left to test
    code, out, err = run("check", put("g.json", doc), "archimedean", "--bound", "1")
    assert code == EXIT_INVALID
    assert out == ""
    assert "the archimedean search needs a multiplier of at least 2, not 1" in err
    assert STUB_MESSAGE not in err  # refused before the first candidate


@pytest.mark.parametrize(
    "doc",
    [
        generated_group([[2], [3]], 24),
        {"kind": "pogroup", "rank": 2, "cone": {"type": "lexicographic"}, "unit": [1, 0]},
    ],
    ids=["generated-2-3", "lexicographic"],
)
def test_weak_unperforation_walk_at_bound_1_is_refused(stubbed, put, run, doc):
    # x is taken outside the cone, so at 1 its only multiple, x, is outside too
    code, out, err = run("check", put("g.json", doc), "weak-unperforation", "--bound", "1")
    assert code == EXIT_INVALID
    assert out == ""
    assert "the weak-unperforation search needs a multiplier of at least 2, not 1" in err
    assert STUB_MESSAGE not in err  # refused before the first candidate


def _theorem_verdict(suite: str, doc: dict) -> dict:
    """The details a search suite reports on a cone decided by theorem."""
    if suite == "weak-unperforation":
        return {"verdict": "holds-on-sample", "failures": []}
    if doc["kind"] == "pogroup" and doc["cone"]["type"] == "strict-states":
        x = [0] + [-1] * (doc["rank"] - 1)
        return {"verdict": "witness", "failures": [{"x": x, "y": doc["unit"]}]}
    return {"verdict": "none", "failures": []}


def _assert_answered(run, model: str, suite: str, doc: dict, *bound: str) -> None:
    code, out, err = run("check", model, suite, *bound)
    assert code == EXIT_OK, err
    report = json.loads(out)
    want = _theorem_verdict(suite, doc)
    assert report["details"] == want
    assert report["passed"] is (want["verdict"] != "witness")


@pytest.mark.parametrize("suite", SEARCH_SUITES)
@pytest.mark.parametrize(
    "doc, bound",
    [
        (simplicial_group(5), ["--bound", "120"]),
        (simplicial_group(7), []),
        (strict_state_group(7), []),
        (trace_model(7), []),
        (strict_state_group(5), ["--bound", str(cli.SEARCH_BOUND_CAP)]),
        (simplicial_group(6_000), []),
        (trace_model(6_000), []),
    ],
    ids=["rank-5-bound-120", "rank-7", "strict-states-rank-7", "seven-traces",
         "strict-states-bound-cap", "rank-6000", "6000-traces"],
)
def test_theorem_cone_is_answered_without_a_walk(stubbed, put, run, suite, doc, bound):
    _assert_answered(run, put("m.json", doc), suite, doc, *bound)


@pytest.mark.parametrize("suite", SEARCH_SUITES)
@pytest.mark.parametrize(
    "make", [simplicial_group, trace_model, strict_state_group],
    ids=["simplicial", "traces", "strict-states"],
)
def test_theorem_verdict_at_rank_20000_is_quick(stubbed, put, run, suite, make):
    doc = make(20_000)
    model = put("m.json", doc)
    start = time.perf_counter()
    _assert_answered(run, model, suite, doc)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "doc",
    [
        generated_group([[1]], COEFF_VECTORS_CAP - 1),  # exactly the cap
        generated_group([[2], [3]], 24),  # 325 vectors
        generated_group([[1, -1], [0, 1], [2, 1]], 27),  # 4,060 vectors
    ],
    ids=["one-generator-at-cap", "two-three-at-24", "three-generators-at-27"],
)
def test_generated_cone_within_the_vector_cap_reaches_the_search(stubbed, put, run, doc):
    group = put("g.json", doc)
    code, _, err = run("check", group, "weak-unperforation")
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


@pytest.mark.parametrize(
    "doc",
    [
        generated_group([[1]], COEFF_VECTORS_CAP),  # cap + 1
        generated_group([[1, -1], [0, 1], [2, 1]], 28),  # 4,495 vectors
        generated_group([[1, -1], [0, 1], [2, 1]], 60),  # took 24 s uncapped
        generated_group([[1]] * 3, 10**18),
        generated_group([[1]], -1),
    ],
    ids=["one-generator-past-cap", "three-generators-at-28", "three-generators-at-60",
         "huge-bound", "negative-bound"],
)
def test_generated_cone_past_the_vector_cap_is_refused(stubbed, put, run, doc):
    group = put("g.json", doc)
    code, out, err = run("check", group, "weak-unperforation")
    assert code == EXIT_INVALID
    assert out == ""
    assert f"at most {COEFF_VECTORS_CAP} coefficient vectors" in err
    assert STUB_MESSAGE not in err
