"""Ordered groups: cones, Smith reduction, states and order falsifiers.

The Smith reduction is cross-checked against an independent oracle built
from determinantal divisors (gcds of k x k minors).
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from support import (
    Delegating,
    OrderStructure,
    is_almost_unperforated,
    searched_member,
    w_of_z,
)

from cuntzcalc import ordmon
from cuntzcalc.linalg import identity, vneg, vscale, vsub
from cuntzcalc.ordmon import (
    BOUND_EXCEEDED,
    NO,
    YES,
    COEFF_VECTORS_CAP,
    GeneratedCone,
    LexicographicCone,
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
    archimedean_witness,
    box_bound,
    cone_member,
    is_weakly_unperforated,
    smith_diagonal,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel


# ---------------------------------------------------------------------------
# three-valued membership


def test_membership_bool():
    assert bool(YES) is True
    assert bool(NO) is False
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
    # outside the cone, yet with a generator of coordinate sum 0 no bound
    # certifies it, at the default bound too
    cone = GeneratedCone(((1, -1), (0, 1)))
    for x in ((-1, 0), (0, -1), (3, -5)):
        assert cone.member(x) is BOUND_EXCEEDED


def test_generated_cone_table_holds_the_sums_up_to_the_bound():
    cone = GeneratedCone(((2,), (3,)))
    assert cone.sums == {(0,)} | {(k,) for k in range(2, 73)}
    assert cone.member((1,)) is NO
    assert cone.member((72,)) is YES
    assert cone.member([72]) is YES  # any integer sequence, as before
    # 73 = 2 + 2 + ... + 3 takes 36 generators, past the bound 24, and the
    # coordinate sums certify NO only below 25 * 2 = 50
    assert cone.member((73,)) is BOUND_EXCEEDED
    assert GeneratedCone(((2,), (3,)), coeff_bound=0).sums == {(0,)}


def test_archimedean_walk_on_two_three_still_reads_its_bound():
    # at n = 72 every difference y + 72 with y <= 12 is past the table's 72
    # and above the certificate's 49, so no pair can be decided
    model = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    assert archimedean_witness(model, n_max=71) == ((-1,), (1,))
    assert archimedean_witness(model, n_max=72) is None


def _top_bound(g: int) -> int:
    """The largest coeff_bound that g generators admit."""
    bound = 0
    while math.comb(bound + 1 + g, g) <= COEFF_VECTORS_CAP:
        bound += 1
    return bound


def _combination(rng, gens, count: int) -> tuple:
    """The sum of ``count`` generators drawn with repetition."""
    return tuple(map(sum, zip((0,) * len(gens[0]), *rng.choices(gens, k=count))))


def test_table_of_sums_agrees_with_the_coefficient_search():
    # ranks 1-3, 1-4 generators with negative entries; the bound is the
    # largest g generators admit on every eighth cone, log-uniform below it
    # on the rest.  Points: a sum of at most the bound generators, the same
    # sum one step off along a coordinate, and a sum of up to three more
    # generators than the bound.  Every entry of a table of at most 40
    # points must be a YES of the search, and 8 sampled entries of a larger one.
    rng = random.Random(36)
    for i in range(32):
        rank = rng.randint(1, 3)
        g = 1 + i // 8 if i % 8 == 0 else rng.randint(1, 4)
        gens = []
        while len(gens) < g:
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(v):
                gens.append(v)
        top = _top_bound(g)
        bound = top if i % 8 == 0 else min(top, int(top ** rng.random()))
        cone = GeneratedCone(gens, bound)
        for _ in range(3):
            inside = _combination(rng, gens, rng.randint(0, bound))
            k = rng.randrange(rank)
            step = tuple(c + (j == k) * rng.choice((-1, 1)) for j, c in enumerate(inside))
            beyond = _combination(rng, gens, bound + rng.randint(1, 3))
            for x in (inside, step, beyond):
                assert cone.member(x) is searched_member(cone, x), (gens, bound, x)
        entries = sorted(cone.sums)
        if len(entries) > 40:
            entries = rng.sample(entries, 8)
        for x in entries:
            assert searched_member(cone, x) is YES, (gens, bound, x)


def test_lexicographic_membership():
    model = PoGroupModel(2, LexicographicCone(), (1, 0))
    assert cone_member(model, (0, 1)) is YES
    assert cone_member(model, (0, -1)) is NO
    assert cone_member(model, (1, -5)) is YES
    assert cone_member(model, (0, 0)) is YES


def test_leq_is_cone_membership_of_the_difference():
    model = PoGroupModel(2, SimplicialCone(2), (1, 1))
    assert cone_member(model, vsub((2, 2), (1, 2))) is YES
    assert cone_member(model, vsub((1, 2), (2, 2))) is NO


def test_cone_member_refuses_a_vector_of_the_wrong_rank():
    model = PoGroupModel(2, SimplicialCone(2), (1, 1))
    for x in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="^vector has the wrong rank$"):
            cone_member(model, x)


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


def _assert_smith_certificate(columns, m, diag, u):
    """U is unimodular and A = U·B is the certificate of the diagonal: row i
    of A is divisible by d_i, zero where d_i = 0 and past min(m, r), and
    d_1 | d_2 | ... with every d_i >= 0."""
    assert _det([list(row) for row in u]) in (1, -1)
    a = [[sum(u[i][k] * col[k] for k in range(m)) for col in columns] for i in range(m)]
    for i, row in enumerate(a):
        d = diag[i] if i < len(diag) else 0
        assert all(x % d == 0 for x in row) if d else not any(row), (columns, i)
    assert all(d >= 0 for d in diag), columns
    for d, after in zip(diag, diag[1:]):
        assert after % d == 0 if d else after == 0, columns


@pytest.mark.parametrize("columns,m", SMITH_CASES)
def test_smith_matches_determinantal_divisors(columns, m):
    diag, u = smith_diagonal(columns, m)
    assert list(diag) == _invariant_factors(columns, m)
    _assert_smith_certificate(columns, m, diag, u)


def test_smith_matches_oracle_on_seeded_matrices():
    rng = random.Random(20260819)
    for _ in range(25):
        m = rng.randint(1, 4)
        r = rng.randint(1, 4)
        columns = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)]
        diag, u = smith_diagonal(columns, m)
        assert list(diag) == _invariant_factors(columns, m), columns
        _assert_smith_certificate(columns, m, diag, u)


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


def test_archimedean_clean_on_the_integers_above_the_scale(
    count_cone_member, count_candidates
):
    # a simplicial cone returns at once, without a candidate
    simplicial = PoGroupModel(1, SimplicialCone(1), (1,))
    assert archimedean_witness(simplicial, n_max=10, enumeration_bound=12) is None
    assert count_candidates == [] and count_cone_member == []
    # y up to the enumeration bound 12 would dominate 10 x = 10 by size alone;
    # m = n_max - 1 = 9 keeps every y below it on the generic walk
    generic = PoGroupModel(1, Delegating(simplicial.cone), (1,))
    assert archimedean_witness(generic, n_max=10, enumeration_bound=12) is None
    # the strict-state Z is archimedean by theorem (rank 1): no search, and
    # the generic walk finds no witness either
    count_candidates.clear()
    count_cone_member.clear()
    states = PoGroupModel(1, StrictStateCone(((1,),)), (1,))
    assert archimedean_witness(states, n_max=10, enumeration_bound=12) is None
    assert count_candidates == [] and count_cone_member == []
    assert _cross_check_with_the_generic_walk(states, n_max=10, bound=12) is None


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


def _pairs_counted(search):
    """Run ``search()`` and read ``archimedean_witness``'s ``tested`` as it
    returns: the pairs it tested.  A search that returns before it starts
    counting, as on a simplicial or strict-state cone, examined no pair."""
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


def _assert_witness(model, witness, n_max):
    """x is not below zero, and n·x <= y for every n <= n_max."""
    x, y = witness
    assert cone_member(model, vneg(x)) is NO, (model, witness)
    for n in range(1, n_max + 1):
        assert cone_member(model, vsub(y, vscale(n, x))) is YES, (model, witness, n)


def _generic_walk(generic, n_max, bound, search=archimedean_witness):
    """The generic walk's answer.  Below n_max = 2 the archimedean walk has
    no y left to test, and the weak-unperforation walk no multiple of x but
    x; so either walk refuses, and that counts as finding no witness."""
    if n_max < 2:
        with pytest.raises(ValueError, match="multiplier of at least 2"):
            search(generic, n_max, bound)
        return None
    return search(generic, n_max, bound)


def _cross_check_with_the_generic_walk(model, n_max, bound):
    """Hold the theorem's answer on a strict-state cone against the generic
    walk through ``Delegating``: at rank 1 neither finds a witness; above it
    the theorem's witness is valid, and so is any witness the walk finds.
    Returns the walk's answer."""
    found = archimedean_witness(model, n_max, bound)
    generic = PoGroupModel(model.rank, Delegating(model.cone), model.unit)
    walked = _generic_walk(generic, n_max, bound)
    if model.rank == 1:
        assert found is None and walked is None, model
    else:
        _assert_witness(model, found, n_max)
        if walked is not None:
            _assert_witness(model, walked, n_max)
    return walked


def test_archimedean_search_work_is_pinned(
    count_cone_member, count_candidates, monkeypatch
):
    # a simplicial cone is archimedean: no work at all
    simplicial = PoGroupModel(3, SimplicialCone(3), (1, 1, 1))
    search = partial(archimedean_witness, simplicial, n_max=10, enumeration_bound=6)
    assert _pairs_counted(search) == (None, 0)
    assert count_candidates == []
    assert count_cone_member == []
    # a strict-state cone at the scales 3, 5 and 7 (rows at scale 105) is
    # not archimedean by theorem: the witness comes without a search, from
    # e_1 and the largest entry of R·e_1, 165
    states = StrictStateCone([
        (Fraction(-2, 3), Fraction(1, 3), 0),
        (Fraction(6, 5), -1, Fraction(4, 5)),
        (Fraction(11, 7), Fraction(-2, 7), Fraction(-1, 7)),
    ])
    group = PoGroupModel(3, states, (3, 9, 8))
    search = partial(archimedean_witness, group, n_max=10, enumeration_bound=6)
    assert _pairs_counted(search) == (((-26, -99, -88), (3, 9, 8)), 0)
    assert count_candidates == []
    assert count_cone_member == []
    # the generic walk, cut to 5,000 pairs, finds none to hold against it
    with monkeypatch.context() as cut:
        cut.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", 5_000)
        assert _cross_check_with_the_generic_walk(group, n_max=10, bound=6) is None
    # the lexicographic control stays on the generic loop: 3 candidate rows
    # of 288 pairs, then the witness at the first y of the fourth.  The y list
    # and the stream of x each open the box of max-norm 8, and -x is asked
    # only for the 4 x the walk reaches: 884 pair questions and 4 more
    count_candidates.clear()
    count_cone_member.clear()
    lex = PoGroupModel(2, LexicographicCone(), (1, 0))
    search = partial(archimedean_witness, lex, n_max=20, enumeration_bound=8)
    assert _pairs_counted(search) == (((0, 1), (1, 1)), 865)
    assert count_candidates == [288, 288]
    assert len(count_cone_member) == 888


def test_archimedean_walk_asks_each_x_when_it_reaches_it(count_cone_member, monkeypatch):
    # at rank 7 with n_max 2, y runs over the 3^7 - 1 = 2,186 vectors of
    # max-norm 1, so 5,000 pairs end in the third x: 3 questions about -x and
    # one per pair, since y - 2x is never in the cone; none about the other
    # 7^7 - 4 vectors of the box
    monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", 5_000)
    model = PoGroupModel(7, GeneratedCone([(1,) * 7]), (1,) * 7)
    search = partial(archimedean_witness, model, n_max=2)
    assert _pairs_counted(search) == (None, 5_000)
    assert len(count_cone_member) == 5_003


def test_weak_unperforation_search_work_is_pinned(count_cone_member, count_candidates):
    # a strict-state cone is weakly unperforated by its docstring's theorem:
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
    # the generic loop still walks 9^4 - 1 = 6,560 candidates; each x outside
    # the cone has its multiples asked from 2x on, as 1·x is x
    generic = PoGroupModel(4, Delegating(model.cone), (1, 1, 1, 1))
    assert is_weakly_unperforated(generic, n_max=10, enumeration_bound=4) is None
    assert count_candidates == [6_560]
    assert len(count_cone_member) == 63_296


def test_theorem_cones_of_rank_7_enumerate_nothing(count_candidates, count_cone_member):
    # at the default box of rank 7 a walk with n_max 10 is past SEARCH_WORK_CAP,
    # but these cones are decided first, so neither search is refused
    assert ordmon.box_size(7, box_bound(7)) * 10 > ordmon.SEARCH_WORK_CAP
    rows = [(1, 0, 0, 0, 0, 0, 0), ("1/2", "1/2", 0, 0, 0, 0, 0)]
    strict = PoGroupModel(7, StrictStateCone(rows), (1,) * 7)
    simplicial = PoGroupModel(7, SimplicialCone(7), (1,) * 7)
    assert is_weakly_unperforated(strict, n_max=10) is None
    assert is_weakly_unperforated(simplicial, n_max=10) is None
    assert archimedean_witness(simplicial, n_max=10) is None
    assert archimedean_witness(strict, n_max=10) == ((0, -1, -1, -1, -1, -1, -1), (1,) * 7)
    assert count_candidates == [] and count_cone_member == []


def test_walk_past_the_work_cap_is_refused_before_its_first_candidate(count_candidates):
    walked = PoGroupModel(7, GeneratedCone([(1,) * 7]), (1,) * 7)
    message = f"more than {ordmon.SEARCH_WORK_CAP} candidate multiples"
    for search in (is_weakly_unperforated, archimedean_witness):
        with pytest.raises(ValueError, match=message):
            search(walked, n_max=10)
        with pytest.raises(ValueError, match=message):
            search(walked, n_max=1, enumeration_bound=4)  # 9^7 - 1 candidates
    assert count_candidates == []
    # a box of max-norm 1 fits: the walk starts
    assert is_weakly_unperforated(walked, n_max=10, enumeration_bound=1) is None
    assert count_candidates == [3**7 - 1]


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
        if isinstance(model.cone, SimplicialCone):
            assert archimedean_witness(model, n_max, bound) is None
            assert _generic_walk(generic, n_max, bound) is None
        else:
            walked = _cross_check_with_the_generic_walk(model, n_max, bound)
            witnesses += walked is not None
        assert is_weakly_unperforated(model, n_max, bound) is None
        assert _generic_walk(generic, n_max, bound, is_weakly_unperforated) is None
    assert witnesses >= 20  # the walk's side of the check is not all None
    # budgets one below, at and one past the end of the k-th candidate row,
    # where the generic walk's budget exit falls between two candidates;
    # the theorems decide without a pair whatever the budget
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
            found = _pairs_counted(partial(archimedean_witness, model, n_max, bound))
            assert found[1] == 0, (model, budget)
            if isinstance(model.cone, SimplicialCone):
                assert found[0] is None
                assert archimedean_witness(generic, n_max, bound) is None
            else:
                walked = _cross_check_with_the_generic_walk(model, n_max, bound)
                witnesses += walked is not None
        assert is_weakly_unperforated(generic, n_max, bound) is None
    assert witnesses >= 20


def test_half_space_archimedean_at_n_max_one(count_cone_member, count_candidates):
    # y needs max-norm below n_max = 1, so the generic walk has no pair to
    # test: it is refused before its first candidate, not reported clean
    model = PoGroupModel(2, StrictStateCone([(5, -1)]), (1, 4))
    generic = PoGroupModel(2, Delegating(model.cone), (1, 4))
    with pytest.raises(ValueError, match="multiplier of at least 2, not 1"):
        archimedean_witness(generic, n_max=1, enumeration_bound=3)
    assert count_candidates == [] and count_cone_member == []
    # the theorems answer at every scale, this one included
    assert archimedean_witness(model, n_max=1, enumeration_bound=3) == ((-1, -5), (1, 4))
    simplicial = PoGroupModel(2, SimplicialCone(2), (1, 4))
    assert archimedean_witness(simplicial, n_max=1, enumeration_bound=3) is None
    assert _cross_check_with_the_generic_walk(model, n_max=1, bound=3) is None
    # at n_max = 1 the weak-unperforation walk would only ask whether an x
    # outside the cone lies in it, so it is refused too; the theorem answers
    assert is_weakly_unperforated(model, n_max=1, enumeration_bound=3) is None
    with pytest.raises(ValueError, match="weak-unperforation search needs a multiplier of "
                                         "at least 2, not 1"):
        is_weakly_unperforated(generic, n_max=1, enumeration_bound=3)
    assert count_candidates == [] and count_cone_member == []


def test_pair_budget_running_out_at_the_end_of_a_row(monkeypatch):
    # state 5a - b: candidates (1,1), (1,0), (1,-1) have no witness among the
    # 24 ys of max-norm <= 2, and (0,-1) meets its first y, (1,1), at n <= 3;
    # the theorem's witness does not depend on the budget
    model = PoGroupModel(2, StrictStateCone([(5, -1)]), (1, 4))
    generic = PoGroupModel(2, Delegating(model.cone), (1, 4))
    for budget, want in ((72, None), (73, ((0, -1), (1, 1)))):
        monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", budget)
        search = partial(archimedean_witness, generic, n_max=3, enumeration_bound=2)
        assert _pairs_counted(search) == (want, budget)
        assert _cross_check_with_the_generic_walk(model, n_max=3, bound=2) == want
        assert archimedean_witness(model, n_max=3, enumeration_bound=2) == (
            (-1, -5), (1, 4))
    # on the strict identity rows the generic walk tests the 24 ys of each of
    # the first four candidates, (1,1), (1,0), (1,-1) and (0,1), pair by pair
    # up to the budget; the fifth, (0,-1), meets its first y, (1,1), which is
    # also the theorem's witness
    identity_rows = PoGroupModel(2, StrictStateCone(identity(2)), (1, 1))
    generic = PoGroupModel(2, Delegating(identity_rows.cone), (1, 1))
    for budget, want in ((47, None), (48, None), (49, None), (96, None),
                         (97, ((0, -1), (1, 1)))):
        monkeypatch.setattr(ordmon, "ARCHIMEDEAN_PAIR_BUDGET", budget)
        search = partial(archimedean_witness, generic, n_max=3, enumeration_bound=2)
        assert _pairs_counted(search) == (want, budget)
        assert _cross_check_with_the_generic_walk(identity_rows, n_max=3, bound=2) == want
        assert archimedean_witness(identity_rows, n_max=3, enumeration_bound=2) == (
            (0, -1), (1, 1))
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
        for bound in range(box_bound(rank) + 1):
            want = list(_layered_vectors_by_norm(rank, bound))
            assert list(ordmon._int_vectors_by_norm(rank, bound)) == want


def test_archimedean_fails_lexicographically():
    model = PoGroupModel(2, LexicographicCone(), (1, 0))
    witness = archimedean_witness(model, n_max=4, enumeration_bound=2)
    assert witness == ((0, 1), (1, 1))
    x, y = witness
    assert cone_member(model, tuple(-c for c in x)) is NO
    for n in range(1, 5):
        gap = tuple(b - n * a for a, b in zip(x, y))
        assert cone_member(model, gap) is YES


def test_strict_state_witness_from_each_branch_of_the_construction():
    # (x, u) with R·x <= 0 and a row of R·x at 0, from e_i and the largest
    # entry p of the column R·e_i: p > 0, p = 0 (x = e_0), p < 0 (a step
    # from +u, not -u), and u a multiple of e_0 (e_1 in place of e_0)
    cases = (
        ([(1, 0)], (1, 1), (0, -1)),
        ([(0, 1)], (1, 1), (1, 0)),
        ([(-1, 2)], (1, 1), (2, 1)),
        ([("1/2", 3), ("1/2", -1)], (2, 0), (-6, 1)),
    )
    for rows, unit, x in cases:
        model = PoGroupModel(2, StrictStateCone(rows), unit)
        witness = archimedean_witness(model, n_max=10, enumeration_bound=8)
        assert witness == (x, unit), rows
        _assert_witness(model, witness, 100)


def _random_strict_state_group(rng, rank):
    """A strict-state group of 1 to 6 states with signed integer weights,
    each row normalised to 1 on a signed unit; rows repeat, often number
    fewer than rank - 1, and sometimes all vanish on e_1."""
    unit = (0,) * rank
    while not any(unit):
        unit = tuple(rng.randint(-3, 3) for _ in range(rank))
    flat = any(unit[1:]) and rng.random() < 0.1  # else no row is 1 on u
    rows, count = [], rng.randint(1, 6)
    while len(rows) < count:
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
            continue
        weights = [rng.randint(-9, 9) for _ in range(rank)]
        if flat:
            weights[0] = 0
        on_unit = sum(w * u for w, u in zip(weights, unit))
        if on_unit:
            rows.append(tuple(Fraction(w, on_unit) for w in weights))
    return PoGroupModel(rank, StrictStateCone(rows), unit)


def test_strict_state_archimedean_by_theorem_on_a_seeded_sweep():
    rng = random.Random(20061019)
    for _ in range(100):
        group = _random_strict_state_group(rng, 1)
        assert archimedean_witness(group, n_max=10, enumeration_bound=12) is None
    deficient = 0
    for _ in range(500):
        rank = rng.randint(2, 5)
        group = _random_strict_state_group(rng, rank)
        deficient += len(set(group.cone.rows)) < rank - 1
        x, y = archimedean_witness(group, n_max=10, enumeration_bound=box_bound(rank))
        assert y == group.unit
        assert cone_member(group, vneg(x)) is NO, group
        gap = y
        for n in range(1, 1001):
            gap = vsub(gap, x)  # y - n·x
            assert cone_member(group, gap) is YES, (group, n)
    assert deficient >= 50


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
