"""Exact arithmetic helpers: rejection of floats, strict shapes."""

from fractions import Fraction

import pytest

from cuntzcalc.linalg import (
    all_nonnegative,
    all_positive,
    frac,
    identity,
    int_matrix,
    int_vector,
    is_zero,
    matmul,
    matrix,
    matvec,
    transpose,
    vadd,
    vector,
    vscale,
    vsub,
    zeros,
)


def test_frac_accepts_exact_inputs():
    assert frac(3) == Fraction(3)
    assert frac("2/7") == Fraction(2, 7)
    assert frac(Fraction(5, 4)) == Fraction(5, 4)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_int_vector_rejects_bools_and_proper_fractions():
    assert int_vector([Fraction(4), 2]) == (4, 2)
    with pytest.raises(TypeError):
        int_vector([True, 0])
    with pytest.raises((TypeError, ValueError)):
        int_vector([Fraction(1, 2)])
    # the plain-int entries before them do not let later entries through
    with pytest.raises(TypeError):
        int_vector([0, 1, True])
    with pytest.raises(ValueError):
        int_vector([3, Fraction(1, 2)])
    with pytest.raises(TypeError):
        int_vector([3, "4"])


def test_vector_coerces_everything_to_fraction():
    v = vector([1, "1/3"])
    assert v == (Fraction(1), Fraction(1, 3))
    assert all(isinstance(x, Fraction) for x in v)


def test_vector_passes_fractions_through_unchanged():
    given = [Fraction(2, 3), Fraction(-5, 7)]
    v = vector([*given, 4, "3/8"])
    assert all(x is y for x, y in zip(v, given))
    assert v[2:] == (Fraction(4), Fraction(3, 8))
    assert all(type(x) is Fraction for x in v)
    with pytest.raises(TypeError):
        vector([Fraction(1, 2), 0.5])


def test_vector_ops_and_predicates():
    assert vadd((1, 2), (3, 4)) == (4, 6)
    assert vsub((1, 2), (3, 4)) == (-2, -2)
    assert vscale(3, (1, -1)) == (3, -3)
    assert is_zero(zeros(4))
    assert all_nonnegative((0, 1))
    assert not all_positive((0, 1))
    assert all_positive((Fraction(1, 9), 2))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        vadd((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        matvec(identity(2), (1, 2, 3))


@pytest.mark.parametrize("op", [vadd, vsub])
@pytest.mark.parametrize("a, b", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (5,))])
def test_vadd_and_vsub_refuse_unequal_lengths_in_either_order(op, a, b):
    # map stops at the shorter vector; the length check must refuse the pair
    with pytest.raises(ValueError, match="lengths"):
        op(a, b)


def test_all_nonnegative_reads_signs_of_ints_and_fractions():
    assert all_nonnegative((0, Fraction(0), Fraction(1, 8), 3))
    assert all_nonnegative(())
    assert not all_nonnegative((1, Fraction(-1, 8)))
    assert not all_nonnegative((Fraction(1, 2), -1))


def test_matmul_against_hand_product():
    a = matrix([[1, 2], [0, 1]])
    b = matrix([["1/2", 0], [1, 1]])
    assert matmul(a, b) == (
        (Fraction(5, 2), Fraction(2)),
        (Fraction(1), Fraction(1)),
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: int_matrix([[1], [1, 2]]), "ragged matrix"),
        (lambda: matmul(((1, 2),), ((1, 2),)), "matrix shape mismatch"),
    ],
    ids=["int_matrix", "matmul"],
)
def test_matrix_shapes_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_transpose_of_the_empty_matrix_is_empty():
    assert transpose(()) == ()


def test_transpose_and_identity():
    assert transpose(((1, 2, 3), (4, 5, 6))) == ((1, 4), (2, 5), (3, 6))
    assert matvec(identity(3), (7, 8, 9)) == (7, 8, 9)
