"""Ordered groups: cones, Smith reduction, states and order falsifiers.

The Smith reduction is cross-checked against an independent oracle built
from determinantal divisors (gcds of k x k minors).
"""

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import pytest

from cuntzcalc import ordmon
from cuntzcalc.cli import _enum_bound
from cuntzcalc.linalg import identity, vsub
from cuntzcalc.ordmon import (
    BOUND_EXCEEDED,
    NO,
    YES,
    GeneratedCone,
    LexicographicCone,
    OrderStructure,
    PoGroupModel,
    PositiveCone,
    SimplicialCone,
    StrictStateCone,
    archimedean_witness,
    cone_member,
    is_almost_unperforated,
    is_weakly_unperforated,
    smith_diagonal,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel, w_of_z


# ---------------------------------------------------------------------------
# three-valued membership


def test_membership_bool_and_definite():
    assert bool(YES) is True
    assert bool(NO) is False
    assert YES.definite is True
    assert NO.definite is False
    assert BOUND_EXCEEDED.definite is None
    with pytest.raises(ValueError):
        bool(BOUND_EXCEEDED)


# ---------------------------------------------------------------------------
# stock cones


def test_simplicial_membership():
    model = PoGroupModel(2, SimplicialCone(2), (1, 1))
    assert cone_member(model, (0, 0)) is YES
    assert cone_member(model, (2, 0)) is YES
    assert cone_member(model, (1, -1)) is NO


def test_strict_state_membership():
    states = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    model = PoGroupModel(2, StrictStateCone(states), (1, 1))
    assert cone_member(model, (0, 0)) is YES
    assert cone_member(model, (1, 1)) is YES
    # first state vanishes on (1, -1), so it is not in the strict cone
    assert cone_member(model, (1, -1)) is NO
    rank_one = PoGroupModel(1, StrictStateCone(((1,),)), (1,))
    assert cone_member(rank_one, (-1,)) is NO


def test_generated_cone_membership_with_definite_no():
    model = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    assert cone_member(model, (5,)) is YES
    assert cone_member(model, (7,)) is YES
    # every generator has coordinate sum >= 2, so the bounded search is
    # exhaustive for a target of sum 1
    assert cone_member(model, (1,)) is NO


def test_generated_cone_mixed_signs_cannot_certify_no():
    model = PoGroupModel(2, GeneratedCone(((1, -1), (0, 1)), coeff_bound=6), (1, 0))
    assert cone_member(model, (1, 0)) is YES
    assert cone_member(model, (-1, 0)) is BOUND_EXCEEDED


def test_lexicographic_membership():
    model = PoGroupModel(2, LexicographicCone(), (1, 0))
    assert cone_member(model, (0, 1)) is YES
    assert cone_member(model, (0, -1)) is NO
    assert cone_member(model, (1, -5)) is YES


def test_leq_is_cone_membership_of_the_difference():
    model = PoGroupModel(2, SimplicialCone(2), (1, 1))
    assert cone_member(model, vsub((2, 2), (1, 2))) is YES
    assert cone_member(model, vsub((1, 2), (2, 2))) is NO


def test_model_validation():
    with pytest.raises(ValueError):
        PoGroupModel(2, SimplicialCone(2), (1, -1))  # unit outside the cone
    with pytest.raises(ValueError):
        PoGroupModel(3, LexicographicCone(), (1, 0, 0))
    with pytest.raises(ValueError, match="the cone needs rank 3, not 2"):
        PoGroupModel(2, SimplicialCone(3), (1, 1))
    unit_message = "every state must take the value 1 on the order unit"
    with pytest.raises(ValueError, match=unit_message):
        # states must normalize the unit to 1
        PoGroupModel(1, StrictStateCone(((Fraction(1, 2),),)), (1,))
    # rows at scale 12: the unit is tested against the scale, not against 1
    thirds_quarters = (("1/3", "1/3"), ("1/4", "1/2"))
    PoGroupModel(2, StrictStateCone(thirds_quarters), (2, 1))
    with pytest.raises(ValueError, match=unit_message):
        PoGroupModel(2, StrictStateCone(thirds_quarters), (1, 2))


# ---------------------------------------------------------------------------
# Smith reduction


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1 if j % 2 else 1) * mat[0][j] * _det(minor)
    return total


def _invariant_factors(columns, m):
    """Oracle: d_k = gcd(k x k minors) / gcd((k-1) x (k-1) minors)."""
    r = len(columns)
    b = [[col[i] for col in columns] for i in range(m)]
    prev = 1
    out = []
    for k in range(1, min(m, r) + 1):
        dk = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(r), k):
                sub = [[b[i][j] for j in cols] for i in rows]
                dk = math.gcd(dk, _det(sub))
        if dk == 0:
            out.append(0)
            prev = 0
        else:
            out.append(dk // prev)
            prev = dk
    return out


SMITH_CASES = [
    (((2,),), 1),
    (((1, 1),), 2),
    (((2, 0), (0, 3)), 2),
    (((4, 6),), 2),
    (((2, 4), (6, 8)), 2),
    (((0, 0),), 2),
]


@pytest.mark.parametrize("columns,m", SMITH_CASES)
def test_smith_matches_determinantal_divisors(columns, m):
    diag, u = smith_diagonal(columns, m)
    assert list(diag) == _invariant_factors(columns, m)
    assert _det([list(row) for row in u]) in (1, -1)


def test_smith_matches_oracle_on_seeded_matrices():
    rng = random.Random(20260819)
    for _ in range(25):
        m = rng.randint(1, 4)
        r = rng.randint(1, 4)
        columns = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)]
        diag, u = smith_diagonal(columns, m)
        assert list(diag) == _invariant_factors(columns, m), columns
        assert _det([list(row) for row in u]) in (1, -1)


# ---------------------------------------------------------------------------
# order-property falsifiers


def test_natural_numbers_are_almost_unperforated():
    structure = OrderStructure(
        elements=lambda bound: range(bound + 1),
        add=lambda a, b: a + b,
        leq=lambda a, b: a <= b,
    )
    assert is_almost_unperforated(structure, n_max=4, enumeration_bound=6) is None


def test_integer_halfline_classes_are_almost_unperforated():
    model = w_of_z()
    pool = [CuntzClass.proj((k,)) for k in range(3)]
    pool += [CuntzClass.soft((Fraction(k, 2),)) for k in range(1, 5)]
    structure = OrderStructure(
        elements=lambda bound: pool,
        add=model.add,
        leq=model.compare,
    )
    assert is_almost_unperforated(structure, n_max=3, enumeration_bound=0) is None


def test_almost_unperforation_flags_the_gap_cone():
    # 3 * 0 <= 2 * 1 as 2 lies in the cone generated by 2 and 3; 0 <= 1 fails
    model = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    structure = OrderStructure(
        elements=lambda bound: [(k,) for k in range(bound + 1)],
        add=lambda a, b: tuple(p + q for p, q in zip(a, b)),
        leq=lambda a, b: cone_member(model, vsub(b, a)),
    )
    witness = is_almost_unperforated(structure, n_max=3, enumeration_bound=4)
    assert witness == ((0,), (1,), 2)


def test_weak_unperforation_counterexample_in_gap_cone():
    # 2 and 3 generate a cone missing 1, so x = 1 doubles into the cone
    model = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    assert is_weakly_unperforated(model, n_max=3, enumeration_bound=2) == ((1,), 2)


def test_weak_unperforation_clean_on_stock_cones():
    simplicial = PoGroupModel(2, SimplicialCone(2), (1, 1))
    assert is_weakly_unperforated(simplicial, n_max=3, enumeration_bound=2) is None
    states = PoGroupModel(1, StrictStateCone(((1,),)), (1,))
    assert is_weakly_unperforated(states, n_max=3, enumeration_bound=3) is None


def test_archimedean_clean_on_simplicial():
    model = PoGroupModel(2, SimplicialCone(2), (1, 1))
    assert archimedean_witness(model, n_max=4, enumeration_bound=2) is None


def test_archimedean_clean_on_the_integers_above_the_scale(count_images):
    # y up to the enumeration bound 12 would dominate 10 x = 10 by size alone;
    # m = n_max - 1 = 9 keeps every y below it, on the generic loop too
    simplicial = PoGroupModel(1, SimplicialCone(1), (1,))
    for group in (simplicial, PoGroupModel(1, Delegating(simplicial.cone), (1,))):
        assert archimedean_witness(group, n_max=10, enumeration_bound=12) is None
    # the simplicial cone returns at once, without imaging a vector
    assert count_images == []
    # on the strict-state Z every candidate x = k > 0 has the limit 10k + 1
    # above the top 9, so each of the 24 vectors is imaged once, in order,
    # and no y image is built
    states = PoGroupModel(1, StrictStateCone(((1,),)), (1,))
    assert archimedean_witness(states, n_max=10, enumeration_bound=12) is None
    assert count_images == list(ordmon._int_vectors_by_norm(1, 12))


@pytest.fixture()
def count_cone_member(monkeypatch):
    """Count the searches' calls of ``ordmon.cone_member``."""
    calls = []

    def counting(model, x):
        calls.append(x)
        return real(model, x)

    real = ordmon.cone_member
    monkeypatch.setattr(ordmon, "cone_member", counting)
    return calls


@pytest.fixture()
def count_candidates(monkeypatch):
    """The size of the enumeration each ``_int_vectors_by_norm`` call opens;
    the search draws from it lazily and may stop early."""
    sizes = []

    def counting(rank, bound):
        sizes.append(sum(1 for _ in real(rank, bound)))
        return real(rank, bound)

    real = ordmon._int_vectors_by_norm
    monkeypatch.setattr(ordmon, "_int_vectors_by_norm", counting)
    return sizes


@pytest.fixture()
def count_images(monkeypatch):
    """The vectors, in order, whose image ``ordmon.row_image`` computes."""
    vectors = []

    def counting(rows, x):
        vectors.append(x)
        return real(rows, x)

    real = ordmon.row_image
    monkeypatch.setattr(ordmon, "row_image", counting)
    return vectors


def _pairs_counted(search):
    """Run ``search()`` and read ``archimedean_witness``'s ``tested`` as it
    returns: the pairs it tested, plus the pairs of every candidate row it
    counted without testing.  A search that returns before it starts
    counting, as on a simplicial cone, examined no pair."""
    code = archimedean_witness.__code__
    counts = []

    def local(frame, event, arg):
        if event == "return":
            counts.append(frame.f_locals.get("tested", 0))
        return local

    def start(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        result = search()
    finally:
        sys.settrace(previous)
    assert len(counts) == 1
    return result, counts[0]


def _pairs_examined(search):
    """Run ``search()`` and count the pairs it examined before it returned.

    A row counted in bulk can carry the count past the budget; the pair
    walk it stands for stops at the budget, so the count is capped there.
    """
    result, tested = _pairs_counted(search)
    return result, min(tested, ordmon.ARCHIMEDEAN_PAIR_BUDGET)


@dataclass(frozen=True)
class Delegating(PositiveCone):
    """The inner cone's membership without its half-space form, so the
    searches take the generic per-n ``cone_member`` loop."""

    inner: PositiveCone

    @property
    def width(self) -> int:
        return self.inner.width

    def member(self, x):
        return self.inner.member(x)


def test_archimedean_search_work_is_pinned(
    count_cone_member, count_candidates, count_images
):
    # a simplicial cone is archimedean: no work at all
    simplicial = PoGroupModel(3, SimplicialCone(3), (1, 1, 1))
    search = partial(archimedean_witness, simplicial, n_max=10, enumeration_bound=6)
    assert _pairs_counted(search) == (None, 0)
    assert count_candidates == []
    assert count_images == []
    assert count_cone_member == []
    # a strict-state cone at the scales 3, 5 and 7 stops at the pair budget
    # with nothing found: 13^3 - 1 = 2,196 candidates, all of them ys too
    # (max-norm 6 < 10); the 92nd candidate row is the first whose end
    # passes the budget, and each of those 92 candidates and each y is
    # imaged once
    states = StrictStateCone([
        (Fraction(-2, 3), Fraction(1, 3), 0),
        (Fraction(6, 5), -1, Fraction(4, 5)),
        (Fraction(11, 7), Fraction(-2, 7), Fraction(-1, 7)),
    ])
    budget = PoGroupModel(3, states, (3, 9, 8))
    search = partial(archimedean_witness, budget, n_max=10, enumeration_bound=6)
    assert _pairs_examined(search) == (None, 200_000)
    count_images.clear()
    count_candidates.clear()
    assert _pairs_counted(search) == (None, 92 * 2_196)
    assert count_candidates == [2_196, 2_196]
    box = list(ordmon._int_vectors_by_norm(3, 6))
    assert sorted(count_images) == sorted(box[:92] + box)
    assert count_cone_member == []  # the images decide every pair
    # the lexicographic control stays on the generic loop: 3 candidate rows
    # of 288 pairs, then the witness at the first y of the fourth
    count_candidates.clear()
    lex = PoGroupModel(2, LexicographicCone(), (1, 0))
    search = partial(archimedean_witness, lex, n_max=20, enumeration_bound=8)
    assert _pairs_examined(search) == (((0, 1), (1, 1)), 865)
    assert count_candidates == [288]
    assert len(count_cone_member) == 1_172


def test_weak_unperforation_search_work_is_pinned(count_cone_member, count_candidates):
    # a half-space cone is weakly unperforated by its docstring's theorem:
    # no candidate is enumerated and no membership asked
    model = PoGroupModel(4, StrictStateCone(identity(4)), (1, 1, 1, 1))
    assert is_weakly_unperforated(model, n_max=10, enumeration_bound=4) is None
    assert count_candidates == []
    assert count_cone_member == []
    # nor a simplicial cone
    simplicial = PoGroupModel(4, SimplicialCone(4), (1, 1, 1, 1))
    assert is_weakly_unperforated(simplicial, n_max=10, enumeration_bound=4) is None
    assert count_candidates == []
    assert count_cone_member == []
    # the generic loop still walks 9^4 - 1 = 6,560 candidates
    generic = PoGroupModel(4, Delegating(model.cone), (1, 1, 1, 1))
    assert is_weakly_unperforated(generic, n_max=10, enumeration_bound=4) is None
    assert count_candidates == [6_560]
    assert len(count_cone_member) == 69_600


def _random_half_space_model(rng, rank):
    """A simplicial or strict-state group; states have signed integer
    weights and are often rank-deficient (fewer states than the rank, or a
    repeated row)."""
    unit = tuple(rng.randint(1, 4) for _ in range(rank))
    if rng.random() < 0.25:
        return PoGroupModel(rank, SimplicialCone(rank), unit)
    rows = []
    while len(rows) < rng.randint(1, 3):
        if rows and rng.random() < 0.3:
            row = rng.choice(rows)
        else:
            weights = [rng.randint(-6, 6) for _ in range(rank)]
            on_unit = sum(w * u for w, u in zip(weights, unit))
            if on_unit == 0:
                continue
            row = tuple(Fraction(w, on_unit) for w in weights)
        rows.append(row)
    return PoGroupModel(rank, StrictStateCone(rows), unit)


def test_half_space_searches_match_the_generic_loop(monkeypatch):
    rng = random.Random(20061010)
    witnesses = 0
    for _ in range(160):
        rank = rng.randint(1, 3)
        model = _random_half_space_model(rng, rank)
        generic = PoGroupModel(rank, Delegating(model.cone), model.unit)
        n_max = rng.choice((1, 2, 3, 5, 10))
        bound = rng.randint(1, 4)
        monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", rng.randint(1, 3000))
        found = archimedean_witness(model, n_max, bound)
        assert found == archimedean_witness(generic, n_max, bound), model
        witnesses += found is not None
        assert is_weakly_unperforated(model, n_max, bound) is None
        assert is_weakly_unperforated(generic, n_max, bound) is None
    assert witnesses >= 20  # the comparison is not all None
    # budgets one below, at and one past the end of the k-th candidate row,
    # where rows counted in bulk meet the pair walk's budget exit
    rng = random.Random(20061018)
    witnesses = 0
    for _ in range(50):
        rank = rng.randint(1, 4)
        model = _random_half_space_model(rng, rank)
        generic = PoGroupModel(rank, Delegating(model.cone), model.unit)
        n_max = rng.choice((2, 3, 5, 10))
        bound = rng.randint(1, (4, 4, 3, 2)[rank - 1])
        row = (2 * min(bound, n_max - 1) + 1) ** rank - 1  # the ys
        k = rng.randint(1, 2)
        for budget in (k * row - 1, k * row, k * row + 1):
            monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", budget)
            found = _pairs_examined(partial(archimedean_witness, model, n_max, bound))
            want = _pairs_examined(partial(archimedean_witness, generic, n_max, bound))
            if isinstance(model.cone, SimplicialCone):  # it returns at once
                assert found == (None, 0) and want[0] is None, (model, budget)
            else:
                assert found == want, (model, budget)
            witnesses += found[0] is not None
        assert is_weakly_unperforated(generic, n_max, bound) is None
    assert witnesses >= 20


def test_half_space_archimedean_at_n_max_one():
    # y needs max-norm below n_max = 1, so no pair is examined at all
    model = PoGroupModel(2, StrictStateCone([(5, -1)]), (1, 4))
    generic = PoGroupModel(2, Delegating(model.cone), (1, 4))
    for group in (model, generic):
        search = partial(archimedean_witness, group, n_max=1, enumeration_bound=3)
        assert _pairs_examined(search) == (None, 0)
        assert is_weakly_unperforated(group, n_max=1, enumeration_bound=3) is None


def test_pair_budget_running_out_at_the_end_of_a_row(monkeypatch):
    # state 5a - b: candidates (1,1), (1,0), (1,-1) have no witness among the
    # 24 ys of max-norm <= 2, and (0,-1) meets its first y, (1,1), at n <= 3
    model = PoGroupModel(2, StrictStateCone([(5, -1)]), (1, 4))
    generic = PoGroupModel(2, Delegating(model.cone), (1, 4))
    for budget, want in ((72, None), (73, ((0, -1), (1, 1)))):
        monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", budget)
        for group in (model, generic):
            search = partial(archimedean_witness, group, n_max=3, enumeration_bound=2)
            assert _pairs_examined(search) == (want, budget)
    # on the strict identity rows the first four candidates, (1,1), (1,0),
    # (1,-1) and (0,1), each have a limit 3 + 1 above the top 2, so each row
    # of 24 ys is counted in bulk, and a budget that ends at a row still
    # counts the next one; the fifth, (0,-1), meets its first y, (1,1)
    identity_rows = PoGroupModel(2, StrictStateCone(identity(2)), (1, 1))
    for budget, want in ((47, (None, 48)), (48, (None, 72)), (49, (None, 72)),
                         (96, (None, 96)), (97, (((0, -1), (1, 1)), 97))):
        monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", budget)
        search = partial(archimedean_witness, identity_rows, n_max=3, enumeration_bound=2)
        assert _pairs_counted(search) == want
    # a simplicial cone counts nothing
    simplicial = PoGroupModel(2, SimplicialCone(2), (1, 1))
    search = partial(archimedean_witness, simplicial, n_max=3, enumeration_bound=2)
    assert _pairs_counted(search) == (None, 0)


def _layered_vectors_by_norm(rank, bound):
    """The enumeration as one layer per max-norm m, each generated apart."""
    for m in range(1, bound + 1):
        for v in itertools.product(range(m, -m - 1, -1), repeat=rank):
            if max(abs(c) for c in v) == m:
                yield v


def test_vectors_by_norm_keep_the_layered_order():
    for rank in range(1, 5):
        for bound in range(_enum_bound(rank) + 1):
            want = list(_layered_vectors_by_norm(rank, bound))
            assert list(ordmon._int_vectors_by_norm(rank, bound)) == want


def test_archimedean_fails_lexicographically():
    model = PoGroupModel(2, LexicographicCone(), (1, 0))
    witness = archimedean_witness(model, n_max=4, enumeration_bound=2)
    assert witness == ((0, 1), (1, 1))
    x, y = witness
    assert cone_member(model, tuple(-c for c in x)).definite is False
    for n in range(1, 5):
        gap = tuple(b - n * a for a, b in zip(x, y))
        assert cone_member(model, gap) is YES


# ---------------------------------------------------------------------------
# states


def test_evaluate_states_exactly():
    states = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    model = WModel(K0Model(2, states, (1, 1)))
    assert model.k0.cone.rows == ((2, 2), (1, 3)) and model.k0.cone.scale == 4
    assert model.gamma(CuntzClass.proj((2, 0))) == (Fraction(1), Fraction(1, 2))
    assert model.gamma(CuntzClass.proj((1, 2))) == (Fraction(3, 2), Fraction(7, 4))
    with pytest.raises(ValueError, match="must lie in the K0 cone"):
        model.gamma(CuntzClass.proj((1, -1)))  # the first state is 0 there
    with pytest.raises(ValueError, match="wrong K0 rank"):
        model.gamma(CuntzClass.proj((1, 0, 0)))


def _reference_states(rows, x):
    """Exact state values by plain Fraction arithmetic."""
    return tuple(sum((q * c for q, c in zip(row, x)), Fraction(0)) for row in rows)


def _random_state_model(rng, rank):
    """A K0 lattice with random rational state rows normalized on a unit."""
    unit = tuple(rng.randint(1, 9) for _ in range(rank))
    big = [2**61 - 1, 10**12 + 39, 3**25, 999_999_937]
    count = rng.randint(1, 4)
    rows = []
    while len(rows) < count:
        row = [
            Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 11, *big]))
            for _ in range(rank)
        ]
        on_unit = sum(q * u for q, u in zip(row, unit))
        if on_unit != 0:
            rows.append(tuple(q / on_unit for q in row))
    return K0Model(rank, rows, unit), rows


def test_integer_state_kernel_matches_fraction_reference():
    rng = random.Random(20061)
    for rank in range(1, 6):
        for _ in range(40):
            model, rows = _random_state_model(rng, rank)
            cone = model.cone
            probes = [(0,) * rank, model.unit]
            probes += [
                tuple(rng.randint(-30, 30) for _ in range(rank)) for _ in range(25)
            ]
            if rank > 1:
                # on the boundary of the first state: it is exactly 0 there
                ints = cone.rows[0]
                probes.append((ints[1], -ints[0]) + (0,) * (rank - 2))
            for x in probes:
                want = _reference_states(rows, x)
                image = tuple(sum(r * c for r, c in zip(row, x)) for row in cone.rows)
                assert tuple(Fraction(v, cone.scale) for v in image) == want
                inside = not any(x) or all(v > 0 for v in want)
                assert cone.member(x) is (YES if inside else NO)
                if inside:
                    assert WModel(model).gamma(CuntzClass.proj(x)) == want
