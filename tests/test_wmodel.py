"""Order, addition, and the enveloping group of the two-part models."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from support import random_wmodel, two_trace_model, w_of_z

from cuntzcalc.cli import _class_pool
from cuntzcalc.linalg import all_positive, matvec
from cuntzcalc.sampling import rng_for
from cuntzcalc.wmodel import (
    CuntzClass,
    K0Model,
    WModel,
    element_leq,
    purely_infinite,
)


def proj(*values) -> CuntzClass:
    return CuntzClass.proj(values)


def soft(*values) -> CuntzClass:
    return CuntzClass.soft([Fraction(v) for v in values])


# ---------------------------------------------------------------------------
# the one-trace model: integers with a half-line attached


class TestIntegerHalfline:
    def test_soft_at_a_projection_value_sits_below_it(self):
        model = w_of_z()
        assert model.compare(soft(2), proj(2))
        assert not model.compare(proj(2), soft(2))

    def test_projection_below_soft_needs_strict_slack(self):
        model = w_of_z()
        assert model.compare(proj(1), soft("5/4"))
        assert not model.compare(proj(1), soft(1))
        assert model.compare(soft(1), proj(1))

    def test_addition_lands_in_the_soft_part(self):
        model = w_of_z()
        assert model.add(proj(1), proj(2)) == proj(3)
        assert model.add(proj(1), soft("1/2")) == soft("3/2")
        assert model.add(soft("1/2"), soft("1/4")) == soft("3/4")

    def test_zero_and_unit(self):
        model = w_of_z()
        assert model.zero_class == proj(0)
        assert model.unit_class == proj(1)
        assert model.compare(model.zero_class, soft("1/8"))


# ---------------------------------------------------------------------------
# trace pairing


def test_hat_pairs_k0_with_traces():
    # on projections gamma is the pairing of K0 with the traces
    model = two_trace_model()
    assert model.gamma(proj(2, 0)) == (Fraction(1), Fraction(1, 2))
    assert model.gamma(proj(1, 1)) == (Fraction(1), Fraction(1))


def test_hat_rejects_zero_and_non_cone_elements():
    model = two_trace_model()
    assert model.gamma(proj(0, 0)) == (0, 0)
    with pytest.raises(ValueError):
        model.soften(proj(0, 0))  # zero has no soft counterpart
    with pytest.raises(ValueError):
        model.gamma(proj(1, -1))
    with pytest.raises(ValueError):
        model.soften(proj(1, -1))


def test_gamma_of_a_projection_is_its_k0_states():
    rng = rng_for(15)
    # a state with a negative entry, at scales 6, 10 and 4
    signed = WModel(
        K0Model(2, (("1/2", "1/3"), ("1/2", "-1/5"), ("1/2", "1/4")), (2, 0))
    )
    models = [random_wmodel(rng, max_rank=4, max_traces=4) for _ in range(40)]
    for model in [signed, *models]:
        pool = [x for x in _class_pool(model, rng, 12) if x.is_proj]
        assert pool
        for x in pool:
            assert model.gamma(x) == matvec(model.k0.state_matrix, x.values)


def test_incomparable_pair_across_the_parts():
    # hat(1, 0) = (1/2, 1/4); the soft profile wins at one trace and
    # loses at the other
    model = two_trace_model()
    x = proj(1, 0)
    y = soft("1/2", "3/5")
    assert not model.compare(x, y)
    assert not model.compare(y, x)


def test_simplicial_k0_uses_scaled_coordinate_states():
    # Z^2 with unit (2, 3): the extreme states are x -> x_i / u_i
    k0 = K0Model(2, (("1/2", 0), (0, "1/3")), (2, 3))
    assert matvec(k0.state_matrix, (2, 3)) == (Fraction(1), Fraction(1))
    assert k0.cone_member((1, 1))
    # the cone is zero plus strict positivity, so a vanishing coordinate
    # falls outside even though it is coordinatewise non-negative
    assert not k0.cone_member((1, 0))


def test_k0_labels_name_the_state_rows():
    states = (("1/2", "1/2"), ("1/4", "3/4"))
    assert K0Model(2, states, (1, 1)).labels == ("tau1", "tau2")
    assert K0Model(2, states, (1, 1), ("a", "b")).labels == ("a", "b")
    for labels in (("a", "a"), ("a",), ("a", "b", "c")):
        with pytest.raises(ValueError, match="labels must be distinct"):
            K0Model(2, states, (1, 1), labels)


def test_a_projection_and_a_soft_class_with_equal_values_differ():
    assert CuntzClass.proj((1, 2)) != CuntzClass.soft((1, 2))
    assert CuntzClass.proj((1, 2)).is_proj and CuntzClass.soft((1, 2)).is_soft
    assert repr(CuntzClass.proj((1, 2))) == "Proj(1, 2)"
    assert repr(CuntzClass.soft(("1/2", 2))) == "Soft(1/2, 2)"


def test_validate_class_rejects_malformed_payloads():
    model = two_trace_model()
    with pytest.raises(ValueError):
        model.validate_class(proj(2, -1))
    with pytest.raises(ValueError):
        model.validate_class(soft(1))
    with pytest.raises(TypeError):
        model.validate_class("not a class")
    with pytest.raises(ValueError):
        CuntzClass.soft((0, 1))


@pytest.mark.parametrize("op", ["compare", "add"])
@pytest.mark.parametrize(
    "bad, error, message",
    [
        (proj(1, 0, 0), ValueError, "wrong K0 rank"),
        (proj(2, -1), ValueError, "K0 cone"),
        (proj(3, -1), ValueError, "K0 cone"),  # the second state vanishes on it
        (soft(1), ValueError, "one value per trace"),
        ("not a class", TypeError, "CuntzClass"),
    ],
)
def test_compare_and_add_validate_each_operand(op, bad, error, message):
    method = getattr(two_trace_model(), op)
    for x, y in ((bad, proj(1, 1)), (soft(1, 1), bad)):
        with pytest.raises(error, match=message):
            method(x, y)


# ---------------------------------------------------------------------------
# scaling, softening, complements


def test_scale_soft_classes_only():
    model = w_of_z()
    assert model.scale(soft("1/2"), 3) == soft("3/2")
    assert model.scale(soft(2), "1/4") == soft("1/2")
    with pytest.raises(ValueError):
        model.scale(proj(1), 2)
    with pytest.raises(ValueError):
        model.scale(soft(1), 0)


def test_soften_replaces_a_projection_by_its_trace_profile():
    model = two_trace_model()
    assert model.soften(proj(2, 0)) == soft(1, "1/2")
    assert model.soften(soft(1, 1)) == soft(1, 1)
    with pytest.raises(ValueError):
        model.soften(model.zero_class)


def test_complement_within_each_part():
    model = w_of_z()
    assert model.complement(proj(1), proj(3)) == proj(2)
    assert model.complement(soft(1), soft("5/2")) == soft("3/2")
    assert model.complement(soft(1), soft(1)) == model.zero_class


def test_complement_across_the_parts():
    model = w_of_z()
    # proj below soft leaves the strict gap
    assert model.complement(proj(1), soft("3/2")) == soft("1/2")
    # soft at the projection's own level leaves nothing to add
    assert model.complement(soft(1), proj(1)) == model.zero_class
    assert model.complement(soft("1/2"), proj(1)) == soft("1/2")


def test_complement_gap_must_be_zero_or_everywhere_positive():
    model = two_trace_model()
    x = soft("1/2", "1/2")
    y = soft("1/2", "3/4")
    assert model.compare(x, y)
    assert model.complement(x, y) is None


def test_complement_requires_comparability():
    model = w_of_z()
    with pytest.raises(ValueError):
        model.complement(proj(2), proj(1))


# ---------------------------------------------------------------------------
# the purely infinite degenerate model


class TestPurelyInfinite:
    def test_two_classes_only(self):
        model = purely_infinite()
        model.validate_class(proj(0))
        model.validate_class(proj(1))
        for bad in (proj(2), soft(1)):
            with pytest.raises(ValueError):
                model.validate_class(bad)

    def test_addition_table(self):
        model = purely_infinite()
        zero, one = model.zero_class, model.unit_class
        assert model.add(zero, zero) == zero
        assert model.add(zero, one) == one
        assert model.add(one, one) == one

    def test_order_table(self):
        model = purely_infinite()
        zero, one = model.zero_class, model.unit_class
        assert model.compare(zero, one)
        assert model.compare(one, one)
        assert not model.compare(one, zero)

    def test_compare_refuses_the_finite_classes(self):
        model = purely_infinite()
        for bad in (proj(2), soft(1)):
            for x, y in ((bad, model.unit_class), (model.zero_class, bad)):
                with pytest.raises(ValueError, match="only the classes"):
                    model.compare(x, y)

    def test_compare_refuses_a_bare_tuple(self):
        with pytest.raises(TypeError, match="^expected a CuntzClass$"):
            purely_infinite().compare((0,), (1,))

    def test_no_trace_pairing(self):
        model = purely_infinite()
        assert model.group_rank == 0
        with pytest.raises(ValueError):
            model.gamma(model.unit_class)
        with pytest.raises(ValueError):
            model.soften(model.unit_class)

    def test_unit_absorbs_itself_on_elements(self):
        model = purely_infinite()
        _, (zero, one) = model.elements((model.zero_class, model.unit_class))
        assert model.element_sum(one, one) == one
        assert model.element_sum(zero, one) == model.element_sum(one, zero) == one
        assert model.element_sum(zero, zero) == zero

    def test_complement_is_trivial(self):
        model = purely_infinite()
        assert model.complement(model.zero_class, model.unit_class) == model.unit_class
        assert model.complement(model.unit_class, model.unit_class) == model.zero_class


# ---------------------------------------------------------------------------
# the enveloping group


def test_gamma_on_both_parts():
    model = two_trace_model()
    assert model.gamma(proj(2, 0)) == (Fraction(1), Fraction(1, 2))
    assert model.gamma(soft("1/3", "2/3")) == (Fraction(1, 3), Fraction(2, 3))
    assert model.group_rank == 2
    assert all_positive(model.gamma(model.unit_class))  # an order unit


# ---------------------------------------------------------------------------
# property tests over the one-trace model


def small_fractions(max_num=12, max_den=8):
    return st.builds(Fraction, st.integers(1, max_num), st.integers(1, max_den))


def wz_classes():
    return st.one_of(
        st.integers(0, 6).map(lambda k: CuntzClass.proj((k,))),
        small_fractions().map(lambda q: CuntzClass.soft((q,))),
    )


class TestOrderLaws:
    @given(wz_classes())
    def test_reflexive(self, x):
        model = w_of_z()
        assert model.compare(x, x)

    @given(wz_classes(), wz_classes(), wz_classes())
    def test_transitive(self, x, y, z):
        model = w_of_z()
        if model.compare(x, y) and model.compare(y, z):
            assert model.compare(x, z)

    @given(wz_classes(), wz_classes(), wz_classes(), wz_classes())
    def test_addition_preserves_order(self, x, y, u, v):
        model = w_of_z()
        if model.compare(x, y) and model.compare(u, v):
            assert model.compare(model.add(x, u), model.add(y, v))

    @given(wz_classes())
    def test_zero_is_least(self, x):
        model = w_of_z()
        assert model.compare(model.zero_class, x)

    @given(wz_classes(), wz_classes())
    def test_gamma_is_additive(self, x, y):
        model = w_of_z()
        gx, gy = model.gamma(x), model.gamma(y)
        assert model.gamma(model.add(x, y)) == tuple(
            a + b for a, b in zip(gx, gy)
        )

    @given(wz_classes(), wz_classes())
    def test_order_implies_gamma_order(self, x, y):
        model = w_of_z()
        if model.compare(x, y):
            assert all(a <= b for a, b in zip(model.gamma(x), model.gamma(y)))


# ---------------------------------------------------------------------------
# rule-by-rule oracle agreement on a fixed grid


def _oracle(model, x, y):
    """Spell the four comparison rules out directly on raw payloads."""
    mat = model.k0.state_matrix

    def hat(v):
        return tuple(sum(r * c for r, c in zip(row, v)) for row in mat)

    if x.is_proj and y.is_proj:
        d = tuple(b - a for a, b in zip(x.values, y.values))
        return all(c == 0 for c in d) or all(s > 0 for s in hat(d))
    fx = x.values if x.is_soft else hat(x.values)
    fy = y.values if y.is_soft else hat(y.values)
    if x.is_proj:
        return all(a < b for a, b in zip(fx, fy))
    return all(a <= b for a, b in zip(fx, fy))


def test_compare_matches_the_unrolled_rules_on_a_grid():
    model = two_trace_model()
    grid = [
        proj(0, 0),
        proj(1, 0),
        proj(0, 1),
        proj(1, 1),
        proj(2, 0),
        proj(2, 1),
        proj(-1, 3),
        soft("1/2", "1/4"),
        soft("1/2", "1/2"),
        soft(1, 1),
        soft("1/2", "3/5"),
        soft("3/2", "5/4"),
        soft(2, 2),
    ]
    for x in grid:
        model.validate_class(x)
    for x in grid:
        for y in grid:
            assert model.compare(x, y) == _oracle(model, x, y), (x, y)


def _fraction_add(model, x, y):
    """The old addition: K0 vectors add, anything else adds trace vectors."""
    mat = model.k0.state_matrix

    def profile(c):
        if c.is_soft:
            return c.values
        return tuple(sum(r * v for r, v in zip(row, c.values)) for row in mat)

    if x.is_proj and y.is_proj:
        return CuntzClass.proj(tuple(a + b for a, b in zip(x.values, y.values)))
    return CuntzClass.soft(tuple(a + b for a, b in zip(profile(x), profile(y))))


@st.composite
def models_with_pools(draw):
    """A model of rank 1-4 with 1-4 traces, and 2-6 of its classes.

    Soft denominators run up to 30 and are coprime to the trace scales, so
    every mixed comparison needs the common scale.
    """
    rank, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    unit = draw(st.tuples(*[st.integers(1, 4)] * rank))
    rows = []
    for _ in range(n):
        weights = draw(
            st.tuples(*[st.integers(-2, 6)] * rank).filter(
                lambda w: sum(a * u for a, u in zip(w, unit)) > 0
            )
        )
        total = sum(a * u for a, u in zip(weights, unit))
        rows.append(tuple(Fraction(a, total) for a in weights))
    model = WModel(K0Model(rank, rows, unit))
    scale = model.k0.cone.scale

    def into_cone(v):
        # each state is 1 on the unit, so v + k·unit lies in the cone for k large
        k = max(0, math.floor(-min(matvec(model.k0.state_matrix, v))) + 1)
        return tuple(a + k * u for a, u in zip(v, unit))

    denominators = st.integers(1, 30).filter(lambda q: math.gcd(q, scale) == 1)
    softs = st.tuples(*[st.builds(Fraction, st.integers(1, 40), denominators)] * n)
    projs = st.tuples(*[st.integers(-2, 4)] * rank).map(into_cone)
    classes = st.one_of(
        st.just(model.zero_class),
        projs.map(CuntzClass.proj),
        softs.map(CuntzClass.soft),
    )
    return model, draw(st.lists(classes, min_size=2, max_size=6))


@given(models_with_pools())
def test_integer_rules_match_the_fraction_rules(model_pool):
    model, pool = model_pool
    _, elements = model.elements(pool)
    for x, ex in zip(pool, elements):
        for y, ey in zip(pool, elements):
            leq = model.compare(x, y)
            assert leq == _oracle(model, x, y), (x, y)
            assert model.add(x, y) == _fraction_add(model, x, y), (x, y)
            # the pool's shared scale answers as the pair's own scale does
            assert element_leq(ex, ey) == leq, (x, y)
