"""Ordered monoids: cones, enveloping groups, and order falsifiers.

The Smith reduction is cross-checked against an independent oracle built
from determinantal divisors (gcds of k x k minors), so the frozen group
shapes below are verified twice over.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cuntzcalc.ordmon import (
    BOUND_EXCEEDED,
    NO,
    YES,
    GeneratedCone,
    LexicographicCone,
    MonoidPresentation,
    OrderStructure,
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
    archimedean_witness,
    check_strict_cone,
    cone_member,
    cone_plusplus_member,
    evaluate_states,
    grothendieck_group,
    is_almost_unperforated,
    is_order_unit_via_states,
    is_weakly_unperforated,
    leq,
    smith_diagonal,
)
from cuntzcalc.wmodel import CuntzClass, w_of_z


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
    model = PoGroupModel(2, SimplicialCone(), (1, 1))
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
    model = PoGroupModel(2, SimplicialCone(), (1, 1))
    assert leq(model, (1, 2), (2, 2)) is YES
    assert leq(model, (2, 2), (1, 2)) is NO


def test_model_validation():
    with pytest.raises(ValueError):
        PoGroupModel(2, SimplicialCone(), (1, -1))  # unit outside the cone
    with pytest.raises(ValueError):
        PoGroupModel(3, LexicographicCone(), (1, 0, 0))
    with pytest.raises(ValueError):
        # states must normalize the unit to 1
        PoGroupModel(1, StrictStateCone(((Fraction(1, 2),),)), (1,))


# ---------------------------------------------------------------------------
# presentations and Smith reduction


def test_presentation_elements_enumeration():
    pres = MonoidPresentation(2)
    words = pres.elements(2)
    assert len(words) == len(set(words)) == 6
    assert set(words) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_presentation_rejects_bad_relations():
    with pytest.raises(ValueError):
        MonoidPresentation(2, relations=(((1,), (0, 1)),))
    with pytest.raises(ValueError):
        MonoidPresentation(1, relations=(((-1,), (0,)),))


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


def test_grothendieck_of_free_monoid():
    g = grothendieck_group(MonoidPresentation(1))
    assert g.free_rank == 1
    assert g.torsion == ()
    assert g.gamma((1,)) == (1,)


def test_grothendieck_collapse_to_trivial_group():
    # 2g = g forces g = 0 in the enveloping group
    pres = MonoidPresentation(1, relations=(((2,), (1,)),))
    g = grothendieck_group(pres)
    assert g.free_rank == 0
    assert g.torsion == ()
    assert g.gamma((5,)) == ()


def test_grothendieck_with_inverse_pair():
    # g1 + g2 = 0 leaves one free generator with g2 = -g1
    pres = MonoidPresentation(2, relations=(((1, 1), (0, 0)),))
    g = grothendieck_group(pres)
    assert g.free_rank == 1
    assert g.torsion == ()
    assert g.gamma((1, 1)) == g.zero
    assert abs(g.gamma((1, 0))[0]) == 1


def test_grothendieck_torsion():
    # 3g = g gives the cyclic group of order two
    pres = MonoidPresentation(1, relations=(((3,), (1,)),))
    g = grothendieck_group(pres)
    assert g.free_rank == 0
    assert g.torsion == (2,)
    assert g.gamma((1,)) == (1,)
    assert g.gamma((2,)) == (0,)
    assert g.subtract((0,), (1,)) == (1,)


def test_gamma_respects_relations_on_seeded_presentations():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 3)
        rels = []
        for _ in range(rng.randint(0, 2)):
            lhs = tuple(rng.randint(0, 3) for _ in range(m))
            rhs = tuple(rng.randint(0, 3) for _ in range(m))
            rels.append((lhs, rhs))
        pres = MonoidPresentation(m, relations=tuple(rels))
        g = grothendieck_group(pres)
        for lhs, rhs in pres.relations:
            assert g.gamma(lhs) == g.gamma(rhs)
        w1 = tuple(rng.randint(0, 3) for _ in range(m))
        w2 = tuple(rng.randint(0, 3) for _ in range(m))
        total = tuple(a + b for a, b in zip(w1, w2))
        assert g.gamma(total) == g.reduce(
            tuple(a + b for a, b in zip(g.gamma(w1), g.gamma(w2)))
        )


# ---------------------------------------------------------------------------
# the difference cone of the integers-plus-halfline model


def _halfline_oracle():
    model = w_of_z()

    def to_class(word):
        a, b = word
        if b == 0:
            return CuntzClass.proj((a,))
        return CuntzClass.soft((Fraction(a + b),))

    def oracle(x, y):
        return model.compare(to_class(x), to_class(y))

    return oracle


def _integer_halfline_presentation() -> MonoidPresentation:
    """Two generators p (a projection) and s (a soft unit), with p + s = 2s.

    Words map into the one-trace model: (a, b) is a<p> + b<s>, which is the
    projection class a when b = 0 and the soft class a + b otherwise.  Any
    projection summand is absorbed into a soft class, which is exactly the
    single relation, so word equality matches class equality.
    """
    return MonoidPresentation(
        2, relations=(((1, 1), (0, 2)),), order_oracle=_halfline_oracle()
    )


def test_integer_halfline_group_shape():
    g = grothendieck_group(_integer_halfline_presentation())
    assert g.free_rank == 1
    assert g.torsion == ()
    # p + s = 2s pins gamma(p) = gamma(s), both mapping a word to its total
    assert g.gamma((1, 0)) == g.gamma((0, 1))
    assert abs(g.gamma((0, 1))[0]) == 1


def test_difference_cone_witness_found():
    pres = _integer_halfline_presentation()
    g = grothendieck_group(pres)
    d = g.subtract(g.gamma((0, 2)), g.gamma((0, 1)))
    assert d == (1,)
    assert cone_plusplus_member(pres, d, search_bound=6) is YES


def test_difference_cone_cannot_certify_absence():
    pres = _integer_halfline_presentation()
    # a class is never below one with strictly smaller image, so the
    # bounded search exhausts without a witness for d = -1
    assert cone_plusplus_member(pres, (-1,), search_bound=5) is BOUND_EXCEEDED


def test_strict_cone_check_reports_no_violations():
    pres = _integer_halfline_presentation()
    report = check_strict_cone(pres, [(1,), (2,), (0,)], search_bound=5)
    assert report.violations == ()
    assert report.inconclusive == ((1,), (2,))
    assert report.checked == 2


def test_strict_cone_check_flags_incoherent_presentations():
    # With only p + s = 3s the group sends (a, b) to 2a + b, which the
    # order oracle (where p + s = 2s also holds) does not respect: the
    # words (1, 1) and (0, 2) name the same class but differ in the group.
    # Both d = 1 and d = -1 then get witnesses, a genuine violation.
    pres = MonoidPresentation(
        2, relations=(((1, 1), (0, 3)),), order_oracle=_halfline_oracle()
    )
    report = check_strict_cone(pres, [(1,)], search_bound=5)
    assert report.violations == ((1,),)


def test_cone_search_requires_an_oracle():
    with pytest.raises(ValueError):
        cone_plusplus_member(MonoidPresentation(1), (1,), search_bound=3)


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


def test_weak_unperforation_counterexample_in_gap_cone():
    # 2 and 3 generate a cone missing 1, so x = 1 doubles into the cone
    model = PoGroupModel(1, GeneratedCone(((2,), (3,))), (2,))
    assert is_weakly_unperforated(model, n_max=3, enumeration_bound=2) == ((1,), 2)


def test_weak_unperforation_clean_on_stock_cones():
    simplicial = PoGroupModel(2, SimplicialCone(), (1, 1))
    assert is_weakly_unperforated(simplicial, n_max=3, enumeration_bound=2) is None
    states = PoGroupModel(1, StrictStateCone(((1,),)), (1,))
    assert is_weakly_unperforated(states, n_max=3, enumeration_bound=3) is None


def test_archimedean_clean_on_simplicial():
    model = PoGroupModel(2, SimplicialCone(), (1, 1))
    assert archimedean_witness(model, n_max=4, enumeration_bound=2) is None


def test_archimedean_clean_on_the_integers_above_the_scale():
    # y up to the enumeration bound 12 would dominate 10 x = 10 by size alone
    model = PoGroupModel(1, SimplicialCone(), (1,))
    assert archimedean_witness(model, n_max=10, enumeration_bound=12) is None


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
    model = PoGroupModel(2, StrictStateCone(states), (1, 1))
    assert evaluate_states(model, (1, -1)) == (Fraction(0), Fraction(-1, 2))
    assert evaluate_states(model, (2, 0)) == (Fraction(1), Fraction(1, 2))


def test_order_unit_detection_via_states():
    states = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    model = PoGroupModel(2, StrictStateCone(states), (1, 1))
    assert is_order_unit_via_states(model, (2, 0))
    assert not is_order_unit_via_states(model, (1, -1))
    simplicial = PoGroupModel(1, SimplicialCone(), (1,))
    with pytest.raises(ValueError):
        evaluate_states(simplicial, (1,))
