"""Small exact linear algebra helpers over ints and Fractions.

Vectors are tuples, matrices are tuples of row tuples.  Everything stays
rational; floats are rejected at the boundary so no tolerance ever enters
an order decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted, use int or Fraction")
    return x if type(x) is Fraction else Fraction(x)  # immutable: no copy needed


def vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(frac(v) for v in values)


def int_vector(values: Iterable) -> tuple[int, ...]:
    out = []
    for v in values:
        if type(v) is not int:  # plain ints, the common case, skip the checks
            if isinstance(v, bool):
                raise TypeError("bool is not a vector entry")
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError(f"expected an integer entry, got {v}")
                v = int(v)
            if not isinstance(v, int):
                raise TypeError(f"expected an integer entry, got {v!r}")
        out.append(v)
    return tuple(out)


def matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    mat = tuple(vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def int_matrix(rows: Iterable[Iterable]) -> tuple[tuple[int, ...], ...]:
    mat = tuple(int_vector(r) for r in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def zeros(n: int) -> tuple[int, ...]:
    return (0,) * n


def is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def vadd(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Sequence) -> tuple:
    return tuple(-x for x in a)


def vscale(c, a: Sequence) -> tuple:
    return tuple(c * x for x in a)


def matvec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(r * x for r, x in zip(row, v, strict=True)) for row in m)


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    if not m:
        return ()
    return tuple(zip(*m, strict=True))


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def all_positive(v: Sequence) -> bool:
    return all(x > 0 for x in v)


def all_nonnegative(v: Sequence) -> bool:
    return all(x >= 0 for x in v)
