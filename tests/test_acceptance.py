"""Acceptance gate: twelve exact criteria, one verdict line each.

Every check is rational arithmetic with zero tolerance.  Expected values
come from oracles coded inline in this file (scalar order rules, brute
force margin search, interval counting), not from the code under test;
where a criterion bounds the runtime, the wall clock is asserted too.
Each test prints ``criterion NN PASS/FAIL: ...`` so a plain test run
reads as a checklist.
"""

import json
import math
import time
from fractions import Fraction

import pytest
from support import (
    Delegating,
    MeasureSpec,
    StepDensity,
    comparison_lemma_check,
    lebesgue,
    point_mass,
    random_invariant,
    random_wmodel,
    w_of_z,
)

from cuntzcalc import cli
from cuntzcalc.approx import first_stage, summable_decomposition
from cuntzcalc.cli import main
from cuntzcalc.documents import dump_document, encode_wmodel
from cuntzcalc.elliott import (
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
    WModelMorphism,
    compose_morphisms,
    compose_w_morphisms,
    functor_g_mor,
    functor_g_obj,
    identity_morphism,
)
from cuntzcalc.goodearl import (
    DiagonalElement,
    PLFn,
    RealizationSchedule,
    StepFn,
    _merge_slots,
    dim_fn,
    dimension_discrepancies,
    realize,
)
from cuntzcalc.linalg import identity, matmul, transpose, vneg, vscale, vsub
from cuntzcalc.ordmon import (
    NO,
    YES,
    GeneratedCone,
    LexicographicCone,
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
    archimedean_witness,
    cone_member,
    is_weakly_unperforated,
)
from cuntzcalc.sampling import random_class, random_soft_class, rng_for
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel

SEED = 20260819


def verdict(num: int, ok: bool, desc: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Order grid on the integer model


def test_criterion_01_integer_model_order_grid():
    model = w_of_z()
    classes = [CuntzClass.proj((k,)) for k in range(9)]
    classes += [CuntzClass.soft((Fraction(k, 16),)) for k in range(1, 129)]

    def scalar_oracle(x: CuntzClass, y: CuntzClass) -> bool:
        a, b = x.values[0], y.values[0]
        if x.is_proj and not y.is_proj:
            return a < b  # an integer sits below a soft value only strictly
        return a <= b

    started = time.perf_counter()
    mismatches = sum(
        1
        for x in classes
        for y in classes
        if model.compare(x, y) != scalar_oracle(x, y)
    )
    elapsed = time.perf_counter() - started
    verdict(
        1,
        mismatches == 0 and elapsed < 1.0,
        f"order grid of {len(classes)}^2 pairs matches the scalar oracle "
        f"({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Rule-unrolling oracle on random models


def rule_oracle(model, x: CuntzClass, y: CuntzClass) -> bool:
    """The four order rules, unrolled from the raw state matrix."""
    rows = model.k0.state_matrix

    def states(v):
        return [sum(r * c for r, c in zip(row, v)) for row in rows]

    if x.is_proj and y.is_proj:
        d = [b - a for a, b in zip(x.values, y.values)]
        return all(v == 0 for v in d) or all(s > 0 for s in states(d))
    if x.is_proj:
        if all(v == 0 for v in x.values):
            return True
        return all(s < g for s, g in zip(states(x.values), y.values))
    if y.is_proj:
        return all(f <= s for f, s in zip(x.values, states(y.values)))
    return all(f <= g for f, g in zip(x.values, y.values))


def test_criterion_02_random_models_agree_with_rule_oracle():
    rng = rng_for(SEED + 2)
    mismatches = 0
    for _ in range(20):
        model = random_wmodel(rng, max_rank=4, max_traces=4)
        pool = [random_class(rng, model) for _ in range(64)]
        pool += [model.zero_class, model.unit_class]
        for _ in range(10_000):
            x, y = rng.choice(pool), rng.choice(pool)
            if model.compare(x, y) != rule_oracle(model, x, y):
                mismatches += 1
    verdict(
        2,
        mismatches == 0,
        "20 random models x 10^4 pairs agree with the rule-unrolling oracle",
    )


# ---------------------------------------------------------------------------
# 3. The group map is order-preserving, into a cone that meets its negation
#    only at zero


def test_criterion_03_difference_cone_strictness():
    rng = rng_for(SEED + 3)
    in_cone = cli.all_nonnegative  # the difference cone the strict-cone suite reads
    unordered = violations = 0
    for _ in range(20):
        model = random_wmodel(rng, max_rank=4, max_traces=4)
        pool = [random_class(rng, model) for _ in range(40)]
        pool += [model.zero_class, model.unit_class]
        for _ in range(500):
            x, y = rng.choice(pool), rng.choice(pool)
            d = vsub(model.gamma(x), model.gamma(y))
            if model.compare(y, x) and not in_cone(d):
                unordered += 1
            if any(v != 0 for v in d):
                if in_cone(d) and in_cone(vneg(d)):
                    violations += 1
    verdict(
        3,
        unordered == 0 and violations == 0,
        "y <= x puts gamma(x) - gamma(y) in the difference cone, and no nonzero "
        "difference lies in the cone together with its negation",
    )


def _assert_strict_cone_suite_fails(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dump_document(encode_wmodel(random_wmodel(rng_for(SEED)))))
    capsys.readouterr()
    assert main(["check", str(path), "strict-cone"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["details"]["failures"]


def test_criterion_03_and_the_strict_cone_suite_catch_a_broken_gamma(
    monkeypatch, tmp_path, capsys
):
    gamma = WModel.gamma

    def broken(self, x):
        image = gamma(self, x)
        return vscale(2, image) if x.is_soft else vneg(image)

    monkeypatch.setattr(WModel, "gamma", broken)
    with pytest.raises(AssertionError, match="criterion 03 FAIL"):
        test_criterion_03_difference_cone_strictness()
    _assert_strict_cone_suite_fails(tmp_path, capsys)


def test_criterion_03_and_the_strict_cone_suite_catch_a_cone_that_is_not_pointed(
    monkeypatch, tmp_path, capsys
):
    # a cone that holds every vector holds each nonzero difference with its
    # negation, so only the pointedness halves of the two checks can fail
    monkeypatch.setattr(cli, "all_nonnegative", lambda d: True)
    with pytest.raises(AssertionError, match="criterion 03 FAIL"):
        test_criterion_03_difference_cone_strictness()
    _assert_strict_cone_suite_fails(tmp_path, capsys)


# ---------------------------------------------------------------------------
# 4. The group map does not depend on the auxiliary soft element


def test_criterion_04_group_map_ignores_auxiliary_soft():
    rng = rng_for(SEED + 4)
    disagreements = 0
    for _ in range(10):
        model = random_wmodel(rng, max_rank=4, max_traces=4)
        for _ in range(200):
            x = random_class(rng, model)
            c1 = random_soft_class(rng, model)
            c2 = random_soft_class(rng, model)
            via1 = vsub(model.add(x, c1).values, c1.values)
            via2 = vsub(model.add(x, c2).values, c2.values)
            if not (via1 == via2 == model.gamma(x)):
                disagreements += 1
    verdict(
        4,
        disagreements == 0,
        "group image computed through two auxiliary soft elements agrees",
    )


# ---------------------------------------------------------------------------
# 5. Weak unperforation of the difference-cone order


# the generic walk's candidate boxes in criterion 05, which keep it under 1 s
WALK_BOUNDS = {1: 12, 2: 8, 3: 5, 4: 3, 5: 2}


def test_criterion_05_weak_unperforation():
    clean = walked = True
    for n in range(1, 6):
        cone = StrictStateCone(identity(n))
        group = PoGroupModel(n, cone, (1,) * n)
        witness = is_weakly_unperforated(group, n_max=20)
        clean = clean and witness is None
        generic = PoGroupModel(n, Delegating(cone), (1,) * n)
        walk = is_weakly_unperforated(generic, n_max=20, enumeration_bound=WALK_BOUNDS[n])
        walked = walked and walk is None
    perforated = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    control = is_weakly_unperforated(
        perforated, n_max=20, enumeration_bound=12
    )
    verdict(
        5,
        clean and walked and control == ((1,), 2),
        "the strict-state cones of the identity rows at ranks 1..5 are weakly "
        "unperforated (theorem: n·min(R·x) has the sign of min(R·x), so nx lies "
        "outside whenever x does); the generic walk agrees for n <= 20 over the "
        "boxes of bounds 12, 8, 5, 3, 2; the perforated control is flagged "
        "with x=1, n=2",
    )


# ---------------------------------------------------------------------------
# 6. The Archimedean property, decided by theorem, with a lexicographic control


def _verified_witness(group, found, n_max):
    """found = (x, y) with -x outside the cone and y - n·x inside for every
    n <= n_max, each by ``cone_member``."""
    if found is None:
        return False
    x, y = found
    ok = cone_member(group, vneg(x)) is NO
    for n in range(1, n_max + 1):
        ok = ok and cone_member(group, vsub(y, vscale(n, x))) is YES
    return ok


def test_criterion_06_archimedean():
    clean = True
    for n in range(1, 6):
        group = PoGroupModel(n, SimplicialCone(n), (1,) * n)
        witness = archimedean_witness(group, n_max=20)
        clean = clean and witness is None
    strict = True
    for n in range(1, 6):
        group = PoGroupModel(n, StrictStateCone(identity(n)), (1,) * n)
        found = archimedean_witness(group, n_max=20)
        if n == 1:
            strict = strict and found is None
        else:
            strict = strict and _verified_witness(group, found, 20)
    lex = PoGroupModel(2, LexicographicCone(), (1, 1))
    found = archimedean_witness(lex, n_max=20, enumeration_bound=8)
    control = _verified_witness(lex, found, 20)
    verdict(
        6,
        clean and strict and control,
        "no witness on the simplicial cones at ranks 1..5 (theorem: nx <= y for "
        "every n forces x <= 0); the strict-state cone of the identity rows has "
        "none at rank 1 and a witness verified for n <= 20 at ranks 2..5 "
        "(theorem: a strict-state cone is archimedean iff its rank is 1); the "
        "lexicographic control yields a verified witness",
    )


# ---------------------------------------------------------------------------
# 7. Order units equal the brute-force margin search


def test_criterion_07_order_unit_margin(tmp_path, capsys):
    rng = rng_for(SEED + 7)
    epsilons = [Fraction(1, 2**k) for k in range(13)]
    paths = {}
    for n in range(1, 6):  # Z^n paired with n traces by the coordinate states
        model = WModel(K0Model(n, identity(n), (1,) * n))
        paths[n] = tmp_path / f"m{n}.json"
        paths[n].write_text(dump_document(encode_wmodel(model)))
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 5)
        d = tuple(
            Fraction(0)
            if rng.random() < 0.25
            else Fraction(rng.randint(1, 8), rng.randint(1, 256))
            for _ in range(n)
        )
        brute = any(all(v >= eps for v in d) for eps in epsilons)
        code = main(["order-unit", str(paths[n]), ",".join(map(str, d))])
        report = json.loads(capsys.readouterr().out)
        margin = Fraction(report["epsilon"]) if "epsilon" in report else None
        want = min(d) if brute else None
        if code != 0 or report["is_order_unit"] != brute or margin != want:
            mismatches += 1
    verdict(
        7,
        mismatches == 0,
        "the order-unit command equals the brute-force margin search on 10^3 draws "
        "over 1 to 5 traces, with epsilon the least coordinate",
    )


# ---------------------------------------------------------------------------
# 8. Functor laws and invariant recovery


def random_invariant_arrow(rng, source: ElliottInvariant):
    """A trace-collapsing, coordinate-permuting morphism out of ``source``.

    The target lattice is the unique one making the compatibility square
    commute: states are the collapsed source states with columns permuted,
    the unit is the permuted unit, K1 is carried by the identity.
    """
    rank = source.k0.rank
    n_src = source.k0.trace_count
    n_tgt = rng.randint(1, 3)
    columns = []
    for _ in range(n_tgt):
        weights = [Fraction(rng.randint(1, 6)) for _ in range(n_src)]
        total = sum(weights)
        columns.append([w / total for w in weights])
    gamma = tuple(
        tuple(columns[j][i] for j in range(n_tgt)) for i in range(n_src)
    )
    perm = list(range(rank))
    rng.shuffle(perm)
    theta0 = tuple(
        tuple(1 if j == perm[i] else 0 for j in range(rank))
        for i in range(rank)
    )
    collapsed = matmul(transpose(gamma), source.k0.state_matrix)
    states = tuple(
        tuple(row[perm[k]] for k in range(rank)) for row in collapsed
    )
    unit = tuple(source.k0.unit[perm[i]] for i in range(rank))
    target = ElliottInvariant(K0Model(rank, states, unit), source.k1)
    mor = InvariantMorphism(
        theta0, AbelianGroupHom.identity_on(source.k1), gamma
    )
    return mor, target


def test_criterion_08_functor_laws_and_recovery():
    rng = rng_for(SEED + 8)
    ok = True
    for _ in range(100):
        inv_a = random_invariant(rng)
        first, inv_b = random_invariant_arrow(rng, inv_a)
        later, inv_c = random_invariant_arrow(rng, inv_b)

        model_a = functor_g_obj(inv_a)
        ident = functor_g_mor(identity_morphism(inv_a), inv_a, inv_a)
        ok = ok and ident == WModelMorphism(
            model_a,
            model_a,
            identity(inv_a.k0.rank),
            identity(inv_a.k0.trace_count),
        )

        g_first = functor_g_mor(first, inv_a, inv_b)
        g_later = functor_g_mor(later, inv_b, inv_c)
        composite = compose_morphisms(later, first)
        ok = ok and functor_g_mor(composite, inv_a, inv_c) == (
            compose_w_morphisms(g_later, g_first)
        )

        # Basis projections read the state matrix back off the group map.
        recovered = transpose(
            tuple(
                model_a.gamma(
                    CuntzClass.proj(
                        tuple(
                            1 if i == j else 0
                            for i in range(inv_a.k0.rank)
                        )
                    )
                )
                for j in range(inv_a.k0.rank)
            )
        )
        ok = ok and recovered == inv_a.k0.state_matrix
    verdict(
        8,
        ok,
        "identities and composites are preserved on 100 random pairs; "
        "state matrices are recovered exactly",
    )


# ---------------------------------------------------------------------------
# 9. Dyadic decomposition invariants


def test_criterion_09_dyadic_decomposition():
    rng = rng_for(SEED + 9)
    started = time.perf_counter()
    ok = True
    for _ in range(100):
        n = rng.randint(1, 5)
        f = tuple(
            Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(n)
        )
        report = summable_decomposition(f, 20)
        indices = [st.index for st in report.stages]
        ok = ok and indices == list(range(first_stage(f), 21))
        prev = None
        total = Fraction(0)
        for st in report.stages:
            g = st.level
            ok = ok and all(a < b for a, b in zip(g, f))
            ok = ok and max(b - a for a, b in zip(g, f)) <= Fraction(
                2, 2**st.index
            )
            if prev is None:
                ok = ok and st.increment == g
            else:
                ok = ok and all(a < b for a, b in zip(prev, g))
                ok = ok and st.increment == vsub(g, prev)
            total += max(st.increment)
            prev = g
        ok = ok and total == report.increment_norm_total
        ok = ok and total <= max(f) + 2
    elapsed = time.perf_counter() - started
    verdict(
        9,
        ok and elapsed < 5.0,
        f"100 targets, stages up to 20: domination, monotonicity, gap and "
        f"summability hold ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 10. Realized diagonals hit their dimension targets exactly


GRID = [Fraction(j, 999) for j in range(1000)]

STEP_TARGETS = [
    StepFn((0, 1), (1,), (1, 1)),
    StepFn((0, 1), ("1/2",), ("1/2", "1/2")),
    StepFn((0, "1/2", 1), ("1/2", 1), ("1/2", "1/2", 1)),
    StepFn(
        (0, "1/3", "2/3", 1),
        ("1/4", "1/2", "3/4"),
        ("1/4", "1/4", "1/2", "3/4"),
    ),
    StepFn((0, "1/2", 1), (0, 1), (0, 0, 1)),
    StepFn(
        tuple(Fraction(k, 7) for k in range(8)),
        tuple(Fraction(k, 8) for k in range(1, 8)),
        (Fraction(1, 8),) + tuple(Fraction(k, 8) for k in range(1, 8)),
    ),
    StepFn(
        (0, "1/4", "3/4", 1),
        ("3/4", "1/4", "5/8"),
        ("1/2", "1/4", "1/4", "1/2"),
    ),
    StepFn((0, "1/2", 1), ("1/16", "1/8"), ("1/16", "1/16", "1/8")),
    StepFn(
        (0, "2/5", "4/5", 1),
        ("1/3", "2/3", 1),
        ("1/3", "1/3", "2/3", 1),
    ),
    StepFn((0, "15/16", 1), ("1/2", 1), ("1/2", "1/2", 1)),
]


def grid_dimensions(element: DiagonalElement) -> list[Fraction]:
    """Dimension at every grid point, by interval counting.

    Sweeps each entry's cozero intervals once with a difference array, so
    the count at j/999 is exactly the number of entries nonzero there.
    """
    bump = [0] * (len(GRID) + 1)
    for entry in element.entries:
        for iv in entry.cozero().intervals:
            lo, hi = iv.left * 999, iv.right * 999
            start = 0 if iv.left_closed else math.floor(lo) + 1
            end = 999 if iv.right_closed else math.ceil(hi) - 1
            if start <= end:
                bump[start] += 1
                bump[end + 1] -= 1
    counts: list[Fraction] = []
    acc = 0
    for j in range(len(GRID)):
        acc += bump[j]
        counts.append(Fraction(acc, element.size))
    return counts


def test_criterion_10_realized_dimension_identity():
    rng = rng_for(SEED + 10)
    started = time.perf_counter()
    ok = True
    schedule = RealizationSchedule.dyadic(8)
    for f in STEP_TARGETS:
        result = realize(f, schedule, 8)
        ok = ok and dimension_discrepancies(result) == []
        f_vals = [f(p) for p in GRID]
        prev = None
        for stage in result.stages:
            n = stage.size
            approx_vals = [stage.approximant(p) for p in GRID]
            staircase = [
                Fraction(max(1, math.ceil(n * v)) - 1, n) for v in f_vals
            ]
            ok = ok and approx_vals == staircase
            ok = ok and grid_dimensions(stage.element) == approx_vals
            for j in rng.sample(range(len(GRID)), 5):
                measured = dim_fn(stage.element, point_mass(GRID[j]))
                ok = ok and measured == approx_vals[j]
            ok = ok and all(
                0 <= fv - av <= Fraction(1, n)
                for fv, av in zip(f_vals, approx_vals)
            )
            ok = ok and stage.monotone
            ok = ok and stage.sup_increment <= Fraction(1, 2**stage.index)
            if prev is not None and n <= 32:
                embedded = _merge_slots(list(prev.entries), n)
                spots = [Fraction(j, 40) for j in range(41)]
                grid_sup = max(
                    abs(new(p) - old(p))
                    for new, old in zip(stage.element.entries, embedded)
                    for p in spots
                )
                ok = ok and grid_sup <= stage.sup_increment
            prev = stage.element
    elapsed = time.perf_counter() - started
    verdict(
        10,
        ok and elapsed < 30.0,
        f"10 step targets, 8 dyadic stages: dimension identity checked exactly "
        f"on [0, 1] and at 1000 grid points, gaps within 1/n, increments "
        f"within 2^-i ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 11. Strict dimension drop across a spectral gap


def tent(peak: Fraction, height: Fraction) -> PLFn:
    return PLFn((0, peak, 1), (0, height, 0))


def random_full_measure(rng) -> MeasureSpec:
    """Atom-free with strictly positive density, total mass one."""
    if rng.random() < 0.5:
        return lebesgue()
    cuts = sorted(
        {Fraction(rng.randint(1, 15), 16) for _ in range(rng.randint(1, 3))}
    )
    breaks = [Fraction(0)] + cuts + [Fraction(1)]
    raw = [Fraction(rng.randint(1, 6)) for _ in range(len(breaks) - 1)]
    total = sum(w * (b - a) for w, a, b in zip(raw, breaks, breaks[1:]))
    densities = [w / total for w in raw]
    return MeasureSpec(1, (), StepDensity(tuple(breaks), tuple(densities)))


def test_criterion_11_comparison_strictness():
    rng = rng_for(SEED + 11)
    all_strict = True
    for _ in range(100):
        height = Fraction(rng.randint(2, 16), 16)
        entries = [tent(Fraction(rng.randint(1, 7), 8), height)]
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.4:
                entries.append(PLFn.zero())
            else:
                lower = Fraction(rng.randint(1, 16), 16) * height
                entries.append(tent(Fraction(rng.randint(1, 7), 8), lower))
        rng.shuffle(entries)
        a = DiagonalElement(len(entries), tuple(entries))
        eps, eta, delta = height / 4, height / 2, 3 * height / 4
        mu = random_full_measure(rng)
        all_strict = all_strict and comparison_lemma_check(
            a, eps, eta, delta, mu
        )
    verdict(
        11,
        all_strict,
        "100 randomized spectral gaps: the cutdown dimension drops strictly",
    )


# ---------------------------------------------------------------------------
# 12. Complements add back; refusals show a pinched coordinate


def draw_ordered_pair(rng, model):
    mode = rng.random()
    if mode < 0.25 and model.k0.trace_count >= 2:
        # Steered: a soft gap that touches zero at some coordinate.
        x = random_soft_class(rng, model)
        keep = [rng.random() < 0.5 for _ in range(model.k0.trace_count)]
        if all(keep):
            keep[rng.randrange(model.k0.trace_count)] = False
        if not any(keep):
            keep[rng.randrange(model.k0.trace_count)] = True
        bumps = tuple(
            Fraction(0) if kept else Fraction(rng.randint(1, 4), 8)
            for kept in keep
        )
        return x, CuntzClass.soft(tuple(v + b for v, b in zip(x.values, bumps)))
    if mode < 0.4:
        # Steered: a soft class strictly under a projection's profile.
        y = model.unit_class
        theta = Fraction(rng.randint(1, 7), 8)
        x = CuntzClass.soft(vscale(theta, model.gamma(y)))
        return x, y
    x, y = random_class(rng, model), random_class(rng, model)
    if model.compare(x, y):
        return x, y
    if model.compare(y, x):
        return y, x
    return None


def test_criterion_12_complementation():
    rng = rng_for(SEED + 12)
    models = [random_wmodel(rng, max_rank=4, max_traces=4) for _ in range(10)]
    ok = True
    checked = exact_sums = soft_matches = refusals = 0
    while checked < 1000:
        model = rng.choice(models)
        pair = draw_ordered_pair(rng, model)
        if pair is None:
            continue
        x, y = pair
        checked += 1
        z = model.complement(x, y)
        if z is None:
            refusals += 1
            diff = vsub(model.gamma(y), x.values)
            ok = ok and x.is_soft
            ok = ok and any(v == 0 for v in diff)
            ok = ok and any(v != 0 for v in diff)
            continue
        total = model.add(x, z)
        if total.is_proj or y.is_soft:
            exact_sums += 1
            ok = ok and total == y
        else:
            # Addition with a soft operand lands in the soft part, so the
            # sum is matched against the projection's trace profile.
            soft_matches += 1
            ok = ok and total == model.soften(y)
    ok = ok and exact_sums > 0 and soft_matches > 0 and refusals > 0
    verdict(
        12,
        ok,
        f"10^3 ordered pairs: {exact_sums} exact sums, {soft_matches} "
        f"profile matches, {refusals} refusals with pinched coordinates",
    )
