"""The four workloads: seeded request lists and the check for each request.

A run's request list has the same commands, shapes and counts in every run
of a workload, with values drawn from the run's own seeded stream, and at
least 100 requests.  A request is an argv for ``cuntzcalc`` plus a check of
its report.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import inputs as gen
import oracles as ok
from inputs import Model


@dataclass
class Request:
    argv: list
    check: Callable[[dict], Optional[str]]
    # an untimed check of the RealizationResult the request's realize returned
    post: Optional[Callable[[object], Optional[str]]] = None
    # a fault of the program that makes this request fail on every run
    known_fault: Optional[str] = None


class Docs:
    """Writes documents for one request list into its own directory."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.count = 0

    def put(self, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"d{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        return path


# ---------------------------------------------------------------------------
# pointwise: many short commands, per-invocation work dominates

POINTWISE_SHAPES = ((1, 1), (2, 2), (3, 2), (4, 3))  # (K0 rank, traces)
DENOMINATOR_CHAINS = ((3, 6, 12, 24), (2, 10, 50), (5, 15, 45, 90))


def _comparable_pair(rng, model: Model, case: int):
    """x <= y by construction, one of four rule cases."""
    if case == 0:
        x = gen.random_proj(rng, model)
        return x, gen.proj(a + 2 * u for a, u in zip(x[1], model.unit))
    if case == 1:
        x = gen.random_proj(rng, model)
        return x, gen.soft(s + gen.random_fraction(rng) for s in model.states(x[1]))
    if case == 2:
        x = gen.random_soft(rng, model)
        return x, gen.soft(v + gen.random_fraction(rng) for v in x[1])
    y = gen.random_proj(rng, model)
    return gen.soft(s / 2 for s in model.states(y[1])), y


def pointwise_round(rng, docs: Docs) -> list:
    reqs = []

    def req(argv, check):
        reqs.append(Request(argv, check))

    for idx, (rank, traces) in enumerate(POINTWISE_SHAPES):
        m = Model.random(rng, rank, traces)
        mp = docs.put(m.doc())
        pairs = [
            (gen.random_proj(rng, m), gen.random_proj(rng, m)),
            (gen.random_proj(rng, m), gen.random_soft(rng, m)),
            (gen.random_soft(rng, m), gen.random_proj(rng, m)),
            (gen.random_soft(rng, m), gen.random_soft(rng, m)),
        ]
        for x, y in pairs:
            xp, yp = docs.put(gen.class_doc(x)), docs.put(gen.class_doc(y))
            req(["compare", mp, xp, yp], lambda r, m=m, x=x, y=y: ok.check_compare(m, x, y, r))
        for x, y in pairs[:2]:
            xp, yp = docs.put(gen.class_doc(x)), docs.put(gen.class_doc(y))
            want = ok.add(m, x, y)
            req(["add", mp, xp, yp], lambda r, w=want: ok.check_class_result(w, r))
        s = gen.random_soft(rng, m)
        factor = gen.random_fraction(rng)
        want = gen.soft(factor * v for v in s[1])
        req(["scale", mp, docs.put(gen.class_doc(s)), gen.rat(factor)],
            lambda r, w=want: ok.check_class_result(w, r))
        p = gen.random_proj(rng, m)
        want = gen.soft(m.states(p[1]))
        req(["soften", mp, docs.put(gen.class_doc(p))],
            lambda r, w=want: ok.check_class_result(w, r))
        x, y = _comparable_pair(rng, m, idx)
        req(["complement", mp, docs.put(gen.class_doc(x)), docs.put(gen.class_doc(y))],
            lambda r, m=m, x=x, y=y: ok.check_complement(m, x, y, r))
        req(["k0star", mp], lambda r, m=m: ok.check_k0star(m, r))
        d = tuple(rng.choice((0, gen.random_fraction(rng))) for _ in range(traces))
        req(["order-unit", mp, ",".join(gen.rats(d))], lambda r, d=d: ok.check_order_unit(d, r))

    pi = docs.put(gen.PURELY_INFINITE_DOC)
    zero, one = docs.put(gen.class_doc(gen.proj([0]))), docs.put(gen.class_doc(gen.proj([1])))
    req(["compare", pi, zero, one], lambda r: ok.check_compare_pi(False, True, r))
    req(["compare", pi, one, zero], lambda r: ok.check_compare_pi(True, False, r))
    req(["add", pi, one, one], lambda r: ok.check_class_result(gen.proj([1]), r))
    req(["k0star", pi], lambda r: ok.expect(r["n"] == 0, "purely infinite K0* is not zero"))

    for rank, traces, target_traces in ((2, 3, 2), (3, 2, 1)):
        m = Model.random(rng, rank, traces)
        inv = docs.put(m.invariant_doc(gen.random_k1(rng)))
        req(["functor", inv], lambda r, m=m: ok.check_functor(m, r))
        mor, source = gen.collapse_morphism_doc(rng, m, target_traces)
        mor_path, src_path = docs.put(mor), docs.put(source)
        req(["functor", src_path, mor_path], lambda r, m=m, d=mor: ok.check_functor(m, r, d))
        req(["morphism-check", mor_path], lambda r: ok.check_morphism(True, r))
        bad, _ = gen.collapse_morphism_doc(rng, m, target_traces, valid=False)
        req(["morphism-check", docs.put(bad)], lambda r: ok.check_morphism(False, r))

    for n in (2, 3):
        f = gen.vector_target(rng, n)
        tp = docs.put({"kind": "target", "type": "vector", "values": gen.rats(f)})
        req(["realize", tp, "--stages", "6"], lambda r, f=f: ok.check_vector_dyadic(f, 6, r))
        chain = rng.choice(DENOMINATOR_CHAINS)
        sp = docs.put({"kind": "schedule", "denominators": list(chain)})
        req(["realize", tp, sp, "--stages", str(len(chain))],
            lambda r, f=f, c=chain: ok.check_vector_denominators(f, c, r))
    return reqs


# ---------------------------------------------------------------------------
# order-checks: property suites, thousands of model comparisons per request

ORDER_SHAPES = ((1, 1), (2, 2), (3, 2), (3, 3), (4, 4))  # (K0 rank, traces)
# (suite, --bound, requests, shapes), cheapest first.  order-axioms makes a
# fixed number of comparisons; the other two take their sample count from
# --bound.  Sorted by cost, the 40 oracle-agreement and 40 strict-cone
# requests put the median inside the 16 near 30 ms (oracle-agreement on
# (2,2), strict-cone on (4,4)), and the 20 order-axioms requests on (1,1)
# are the costliest, with the 90th percentile in their middle.
ORDER_PLAN = (
    ("strict-cone", 100, 40, ORDER_SHAPES),
    ("oracle-agreement", 400, 40, ORDER_SHAPES),
    ("order-axioms", None, 20, ORDER_SHAPES[:1]),
)


def order_checks_list(rng, docs: Docs) -> list:
    reqs = []
    for suite, bound, count, shapes in ORDER_PLAN:
        for index in range(count):
            rank, traces = shapes[index % len(shapes)]
            argv = ["check", docs.put(Model.random(rng, rank, traces).doc()), suite,
                    "--seed", str(rng.randrange(2**31))]
            if bound is not None:
                argv += ["--bound", str(bound)]
            reqs.append(Request(argv, ok.check_suite_passed))
    return reqs


# ---------------------------------------------------------------------------
# searches: weak-unperforation and archimedean enumerations in ordmon

WEAK, ARCH = "weak-unperforation", "archimedean"
N_MAX = 10  # the suites' default --bound
RANK1_ARCHIMEDEAN = (
    "archimedean_witness searches y up to the enumeration bound 12 > n_max = 10, "
    "so on Z with the simplicial order it reports x = 1, y = 12 as a witness"
)


def searches_list(rng, docs: Docs) -> list:
    """100 requests.  Sorted by cost: 28 rank-1 and control searches near
    5 ms, 12 rank-2 strict-state searches, 46 searches of the 2-trace K0*
    group near 45 ms around the median, 7 rank-3 simplicial searches near
    0.1 s around the 90th percentile, and 7 searches from 0.2 to 2 s at the
    top.  The K0* group of a 2-trace model is the same for every model, and
    a simplicial cone's membership test ignores the unit, so the cost of the
    requests around both percentiles does not depend on the seed."""
    reqs = []

    def req(doc, suite, check, known_fault=None):
        reqs.append(Request(["check", docs.put(doc), suite], check, known_fault=known_fault))

    holds = partial(ok.check_search_verdict, "holds-on-sample")
    none = partial(ok.check_search_verdict, "none")
    # strict-state cones: n x in C iff x in C, so weak unperforation holds.
    # One state at ranks 3 and 4: about half the box lies outside a
    # half-space whatever its weights, so their cost does not follow the seed.
    for rank, count in ((1, 11), (2, 12), (3, 1), (4, 1)):
        for _ in range(count):
            states = 1 if rank >= 3 else 0
            req(gen.strict_state_pogroup_doc(rng, rank, states), WEAK, holds)
    # simplicial cones are weakly unperforated and archimedean at every rank;
    # their membership test ignores the unit, so these documents are fixed
    for rank in (1, 2, 3, 4):
        doc = gen.simplicial_pogroup_doc(rank, [1] * rank)
        req(doc, WEAK, holds)
        req(doc, ARCH, none, RANK1_ARCHIMEDEAN if rank == 1 else None)
    for _ in range(6):
        unit = [rng.randint(1, 3) for _ in range(3)]
        req(gen.simplicial_pogroup_doc(3, unit), WEAK, holds)
    # controls that find a witness early
    req(gen.PERFORATED_DOC, WEAK, ok.check_perforated)
    req(gen.LEXICOGRAPHIC_DOC, ARCH, partial(ok.check_lexicographic_witness, N_MAX))
    req(gen.LEXICOGRAPHIC_DOC, WEAK, holds)
    # wmodel documents, searched through their K0* group of rank = trace count
    for traces, count in ((1, 11), (2, 46)):
        for _ in range(count):
            req(Model.random(rng, rng.randint(1, 4), traces).doc(), WEAK, holds)
    req(Model.random(rng, rng.randint(1, 4), 2).doc(), ARCH, none)
    return reqs


# ---------------------------------------------------------------------------
# realize: Goodearl-type diagonal elements for step targets

# (command, step pieces, sizes, stages); None sizes is the dyadic default.
# Cheapest first.  A run's list holds REALIZE_ROUNDS copies of this plan on
# distinct targets; the two five-stage requests of each copy are the
# costliest 18 of 108, so the 90th percentile falls inside them.
REALIZE_PLAN = (
    ("realize", 2, None, 3),
    ("realize", 3, None, 3),
    ("goodearl", 2, (3, 6, 12), 3),
    ("realize", 3, (3, 6, 12), 3),
    ("goodearl", 2, None, 4),
    ("goodearl", 4, (3, 6, 12), 3),
    ("realize", 3, None, 4),
    ("goodearl", 3, (3, 9, 27), 3),
    ("realize", 4, None, 4),
    ("goodearl", 3, (2, 6, 12, 24), 4),
    ("realize", 4, None, 5),
    ("goodearl", 4, None, 5),
)
REALIZE_ROUNDS = 9


class StepTargets:
    """Distinct step targets: no target repeats within a request list."""

    def __init__(self):
        self.seen = set()

    def draw(self, rng, pieces: int) -> dict:
        while True:
            doc = gen.step_target(rng, pieces)
            key = json.dumps(doc, sort_keys=True)
            if key not in self.seen:
                self.seen.add(key)
                return doc


def realize_list(rng, docs: Docs, rounds: int = REALIZE_ROUNDS) -> list:
    targets = StepTargets()
    reqs = []
    for _ in range(rounds):
        for command, pieces, sizes, stages in REALIZE_PLAN:
            target = targets.draw(rng, pieces)
            argv = [command, docs.put(target)]
            if sizes is None:
                sizes = tuple(2**i for i in range(1, stages + 1))
            else:
                argv.append(docs.put({"kind": "schedule", "sizes": list(sizes)}))
            argv += ["--stages", str(stages)]
            reqs.append(
                Request(argv, partial(ok.check_step_report, sizes),
                        partial(ok.check_step_entries, target))
            )
    return reqs


class Workload:
    """The request list of a run, built from the run's seed alone.

    Every pass of a run replays the same list.  The program's caches do not
    outlive a ``cuntzcalc`` process, so the runner clears them before each
    request and a repeated request costs what a fresh one does.
    """

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.seed = seed
        self.root = root

    def requests(self) -> list:
        """The run's list in a seeded order, so that each cluster of similar
        requests spreads over the whole pass, not one stretch of it."""
        reqs = self._build("run")
        gen.rng_for(self.name, self.seed, "run/order").shuffle(reqs)
        return reqs

    def _build(self, tag: str, small: bool = False) -> list:
        rng = gen.rng_for(self.name, self.seed, tag)
        docs = Docs(os.path.join(self.root, tag))
        if self.name == "pointwise":
            return pointwise_round(rng, docs) + ([] if small else pointwise_round(rng, docs))
        if self.name == "order-checks":
            return order_checks_list(rng, docs)
        if self.name == "searches":
            return searches_list(rng, docs)
        return realize_list(rng, docs, 1 if small else REALIZE_ROUNDS)

    def warmup(self) -> list:
        """The cheapest requests of a list drawn from a stream no run list uses."""
        return self._build("warmup", small=True)[: WARMUP_REQUESTS[self.name]]


# each list builder puts its cheapest requests first
WARMUP_REQUESTS = {"pointwise": 60, "order-checks": 10, "searches": 9, "realize": 12}


WORKLOADS = ("pointwise", "order-checks", "searches", "realize")
