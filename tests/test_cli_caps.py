"""Size caps of the command-line front end, checked before any work starts.

Every case here is refused (or let through) by validation alone: the
sampling, search, realization and decomposition routines are replaced by stubs that
fail the test if a refused request reaches them, so no capped computation
ever runs.
"""

import time

import pytest

from cuntzcalc import cli
from cuntzcalc import documents as docs
from cuntzcalc.cli import (
    EXIT_INVALID,
    SAMPLE_BOUND_CAP,
    SEARCH_WORK_CAP,
    STEP_SIZE_CAP,
    VECTOR_STAGES_CAP,
    main,
)
from cuntzcalc.goodearl import RealizationSchedule
from cuntzcalc.ordmon import COEFF_VECTORS_CAP
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
        "is_weakly_unperforated",
        "archimedean_witness",
        "realize",
        "summable_decomposition",
        "projection_sup_realization",
    ):
        monkeypatch.setattr(cli, name, _stub)
    monkeypatch.setattr(RealizationSchedule, "dyadic", _stub)


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


def two_trace_model() -> WModel:
    k0 = K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1))
    return WModel(k0)


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


def trace_model(n: int) -> dict:
    """Its K0* group, which both searches run on, has rank n."""
    k0 = K0Model(1, ((1,),) * n, (1,))
    return docs.encode_wmodel(WModel(k0))


@pytest.mark.parametrize("suite", SEARCH_SUITES)
def test_search_size_at_the_work_cap_reaches_the_search(stubbed, put, run, suite):
    # rank 5 enumerates 7^5 - 1 = 16,806 candidates: 119 multiples fit
    group = put("g.json", simplicial_group(5))
    code, _, err = run("check", group, suite, "--bound", "119")
    assert code == EXIT_INVALID
    assert STUB_MESSAGE in err


@pytest.mark.parametrize("suite", SEARCH_SUITES)
@pytest.mark.parametrize(
    "doc, bound",
    [
        (simplicial_group(5), ["--bound", "120"]),
        (simplicial_group(7), []),  # 823,542 candidates at the default bound 10
        (trace_model(7), []),
        # search sizes past the 4,300 digits Python prints of an int
        (simplicial_group(6_000), []),
        (trace_model(6_000), []),
    ],
    ids=["rank-5-bound-120", "rank-7", "seven-traces", "rank-6000", "6000-traces"],
)
def test_search_size_above_the_work_cap_is_refused(stubbed, put, run, suite, doc, bound):
    model = put("m.json", doc)
    code, out, err = run("check", model, suite, *bound)
    assert code == EXIT_INVALID
    assert out == ""
    assert f"more than {SEARCH_WORK_CAP}" in err
    assert STUB_MESSAGE not in err


@pytest.mark.parametrize("suite", SEARCH_SUITES)
@pytest.mark.parametrize("make", [simplicial_group, trace_model], ids=["simplicial", "traces"])
def test_search_refusal_at_rank_20000_is_quick(stubbed, put, run, suite, make):
    model = put("m.json", make(20_000))
    start = time.perf_counter()
    code, out, err = run("check", model, suite)
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert out == ""
    assert (f"{suite} on rank 20000 with --bound 10 would search more than "
            f"{SEARCH_WORK_CAP} candidate multiples") in err


def generated_group(generators, coeff_bound: int) -> dict:
    cone = {"type": "generated", "generators": generators, "coeff_bound": coeff_bound}
    unit = [sum(column) for column in zip(*generators)]  # in the cone
    return {"kind": "pogroup", "rank": len(unit), "cone": cone, "unit": unit}


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
