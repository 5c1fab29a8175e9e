"""Invariants, their morphisms, and the induced maps of models."""

from fractions import Fraction

import pytest

from cuntzcalc.elliott import (
    AbelianGroupData,
    AbelianGroupHom,
    ElliottInvariant,
    InvariantMorphism,
    WModelMorphism,
    compose_morphisms,
    compose_w_morphisms,
    functor_g_mor,
    functor_g_obj,
    identity_morphism,
    validate_invariant,
    validate_morphism,
)
from cuntzcalc.linalg import identity, matmul
from cuntzcalc.sampling import (
    random_class,
    random_collapse_morphism,
    random_k0model,
    random_wmodel,
    rng_for,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel


def integers_invariant() -> ElliottInvariant:
    return ElliottInvariant(K0Model(1, ((1,),), (1,)), AbelianGroupData(0))


def two_trace_invariant(k1=AbelianGroupData(1, (2,))) -> ElliottInvariant:
    k0 = K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1))
    return ElliottInvariant(k0, k1)


# ---------------------------------------------------------------------------
# abelian group data and homomorphisms


def test_group_data_validation():
    assert AbelianGroupData(2, (2, 4)).generator_count == 4
    with pytest.raises(ValueError):
        AbelianGroupData(1, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroupData(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupData(-1)


def test_hom_torsion_must_be_killed_by_its_order():
    z2 = AbelianGroupData(0, (2,))
    z4 = AbelianGroupData(0, (4,))
    # the image of the order-2 generator must be 2-torsion in Z/4
    AbelianGroupHom(z2, z4, ((2,),))
    with pytest.raises(ValueError):
        AbelianGroupHom(z2, z4, ((1,),))


def test_hom_torsion_cannot_reach_free_generators():
    z2 = AbelianGroupData(0, (2,))
    z = AbelianGroupData(1)
    AbelianGroupHom(z2, z, ((0,),))
    with pytest.raises(ValueError):
        AbelianGroupHom(z2, z, ((1,),))


def test_hom_shape_check():
    z = AbelianGroupData(1)
    with pytest.raises(ValueError):
        AbelianGroupHom(z, z, ((1, 0),))


def test_hom_composition():
    z = AbelianGroupData(1)
    double = AbelianGroupHom(z, z, ((2,),))
    triple = AbelianGroupHom(z, z, ((3,),))
    assert double.compose(triple).mat == ((6,),)
    ident = AbelianGroupHom.identity_on(z)
    assert ident.compose(double).mat == double.mat
    into_plane = AbelianGroupHom(z, AbelianGroupData(2), ((1,), (0,)))
    with pytest.raises(ValueError):
        double.compose(into_plane)  # lands in Z^2, not in double's source


def test_homs_of_the_trivial_group():
    trivial = AbelianGroupData(0)
    ident = AbelianGroupHom.identity_on(trivial)
    assert ident.mat == ()
    assert ident.compose(ident).mat == ()


# ---------------------------------------------------------------------------
# invariants and morphism validation


def test_validate_invariant_is_clean_on_constructed_data():
    assert validate_invariant(two_trace_invariant()) == []


def test_identity_morphism_is_valid():
    inv = two_trace_invariant()
    assert validate_morphism(identity_morphism(inv), inv, inv) == []


def test_doubling_breaks_unit_and_state_square():
    inv = integers_invariant()
    mor = InvariantMorphism(
        ((2,),), AbelianGroupHom.identity_on(inv.k1), identity(1)
    )
    problems = validate_morphism(mor, inv, inv)
    assert any("unit" in p for p in problems)
    assert any("state square" in p for p in problems)
    with pytest.raises(ValueError):
        functor_g_mor(mor, inv, inv)


def test_gamma_columns_must_be_convex():
    inv = two_trace_invariant()
    collapsed = _collapsed_invariant(inv.k1)
    bad_sum = InvariantMorphism(
        identity(2),
        AbelianGroupHom.identity_on(inv.k1),
        ((Fraction(1, 2),), (Fraction(1, 4),)),
    )
    assert any(
        "sum to 1" in p for p in validate_morphism(bad_sum, inv, collapsed)
    )
    negative = InvariantMorphism(
        identity(2),
        AbelianGroupHom.identity_on(inv.k1),
        ((Fraction(3, 2),), (Fraction(-1, 2),)),
    )
    assert any(
        "negative" in p for p in validate_morphism(negative, inv, collapsed)
    )


def test_non_convex_column_is_flagged_where_theta0_leaves_the_cone():
    # gamma^T R_s = R_t theta0 holds, but the column (-1/2, 3/2) is not convex:
    # (4, -1) lies in the source cone, yet the target state is -3/8 on it
    inv = two_trace_invariant()
    target = ElliottInvariant(K0Model(2, (("1/8", "7/8"),), (1, 1)), inv.k1)
    mor = InvariantMorphism(
        identity(2),
        AbelianGroupHom.identity_on(inv.k1),
        ((Fraction(-1, 2),), (Fraction(3, 2),)),
    )
    assert inv.k0.cone_member((4, -1)) and not target.k0.cone_member((4, -1))
    assert validate_morphism(mor, inv, target) == [
        "gamma column 0 has a negative coefficient"
    ]


def test_theta1_endpoints_are_checked():
    inv = two_trace_invariant()
    wrong = AbelianGroupHom.identity_on(AbelianGroupData(2))
    mor = InvariantMorphism(identity(2), wrong, identity(2))
    assert any("theta1" in p for p in validate_morphism(mor, inv, inv))


def test_shape_problems_short_circuit():
    inv = two_trace_invariant()
    mor = InvariantMorphism(
        ((1,),), AbelianGroupHom.identity_on(inv.k1), identity(2)
    )
    problems = validate_morphism(mor, inv, inv)
    assert problems == ["theta0 must be (target K0 rank) x (source K0 rank)"]


# ---------------------------------------------------------------------------
# the induced model and model maps


def test_functor_on_objects_keeps_k0_and_traces():
    inv = two_trace_invariant()
    model = functor_g_obj(inv)
    assert model.k0 == inv.k0
    assert type(model) is WModel


def _collapsed_invariant(k1) -> ElliottInvariant:
    # averaging the two states of two_trace_invariant with weights 1/2, 1/2
    k0 = K0Model(2, (("3/8", "5/8"),), (1, 1))
    return ElliottInvariant(k0, k1)


def test_trace_collapse_example():
    source = two_trace_invariant()
    target = _collapsed_invariant(source.k1)
    gamma = ((Fraction(1, 2),), (Fraction(1, 2),))
    mor = InvariantMorphism(
        identity(2), AbelianGroupHom.identity_on(source.k1), gamma
    )
    assert validate_morphism(mor, source, target) == []
    induced = functor_g_mor(mor, source, target)
    image = induced.apply(CuntzClass.soft((Fraction(1, 2), Fraction(3, 4))))
    assert image == CuntzClass.soft((Fraction(5, 8),))
    assert induced.apply(CuntzClass.proj((1, 1))) == CuntzClass.proj((1, 1))


def test_functor_sends_identity_to_identity():
    inv = two_trace_invariant()
    induced = functor_g_mor(identity_morphism(inv), inv, inv)
    assert induced.theta0 == identity(2)
    assert induced.gamma == identity(2)
    model = functor_g_obj(inv)
    for x in (CuntzClass.proj((1, 1)), CuntzClass.soft((Fraction(1, 3), 2))):
        assert induced.apply(x) == x
    assert induced.source == model and induced.target == model


def _as_invariant_morphism(mor: WModelMorphism, k1) -> InvariantMorphism:
    return InvariantMorphism(mor.theta0, AbelianGroupHom.identity_on(k1), mor.gamma)


def _as_invariant(model, k1) -> ElliottInvariant:
    return ElliottInvariant(model.k0, k1)


def test_functor_respects_composition_on_seeded_collapses():
    k1 = AbelianGroupData(1, (2,))
    rng = rng_for(404)
    for _ in range(25):
        a = random_wmodel(rng)
        f = random_collapse_morphism(rng, a, rng.randint(1, 3))
        g = random_collapse_morphism(rng, f.target, rng.randint(1, 3))
        inv_a = _as_invariant(a, k1)
        inv_b = _as_invariant(f.target, k1)
        inv_c = _as_invariant(g.target, k1)
        composite = compose_morphisms(
            _as_invariant_morphism(g, k1), _as_invariant_morphism(f, k1)
        )
        via_invariants = functor_g_mor(composite, inv_a, inv_c)
        via_models = compose_w_morphisms(
            functor_g_mor(_as_invariant_morphism(g, k1), inv_b, inv_c),
            functor_g_mor(_as_invariant_morphism(f, k1), inv_a, inv_b),
        )
        assert via_invariants.theta0 == via_models.theta0
        assert via_invariants.gamma == via_models.gamma
        assert via_invariants.source == via_models.source
        assert via_invariants.target == via_models.target
        x = random_class(rng, a)
        assert via_invariants.apply(x) == g.apply(f.apply(x))


def test_collapse_morphisms_preserve_order_and_addition():
    rng = rng_for(505)
    hits = 0
    for _ in range(60):
        a = random_wmodel(rng)
        f = random_collapse_morphism(rng, a, rng.randint(1, 2))
        x, y = random_class(rng, a), random_class(rng, a)
        assert f.apply(a.add(x, y)) == f.target.add(f.apply(x), f.apply(y))
        if a.compare(x, y):
            hits += 1
            assert f.target.compare(f.apply(x), f.apply(y))
        assert f.apply(a.unit_class) == f.target.unit_class
    assert hits > 5  # the sweep actually exercised comparable pairs


def test_gamma_of_basis_projections_recovers_state_columns():
    rng = rng_for(606)
    for _ in range(20):
        k0 = random_k0model(rng)
        for i in range(k0.rank):
            e = tuple(1 if j == i else 0 for j in range(k0.rank))
            if not k0.cone_member(e):
                continue
            column = tuple(row[i] for row in k0.state_matrix)
            assert k0.states(e) == column


def test_compose_w_morphisms_checks_endpoints():
    rng = rng_for(707)
    a = random_wmodel(rng)
    f = random_collapse_morphism(rng, a, 2)
    with pytest.raises(ValueError):
        compose_w_morphisms(f, f)  # f.target differs from f.source
