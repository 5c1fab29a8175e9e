"""Small exact linear algebra helpers over ints and Fractions, and the base
of the package's immutable value classes.

Vectors are tuples, matrices are tuples of row tuples.  Everything stays
rational; floats are rejected at the boundary so no tolerance ever enters
an order decision.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence


class Frozen:
    """Base of the immutable value classes.

    Each subclass names its own fields in ``__slots__``; ``_fields`` lists
    them along the MRO, base classes first.  Values compare equal when they
    have the same class and equal fields, hash and print by their fields,
    and refuse assignment and deletion.  A subclass without ``__init__``
    takes its fields by position or by name; one with its own ``__init__``
    stores them with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())
        )

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted, use int or Fraction")
    return x if type(x) is Fraction else Fraction(x)  # immutable: no copy needed


def vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple([v if type(v) is Fraction else frac(v) for v in values])


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
    if len(a) != len(b):  # map stops silently at the shorter vector
        raise ValueError(f"cannot add vectors of lengths {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def vsub(a: Sequence, b: Sequence) -> tuple:
    if len(a) != len(b):
        raise ValueError(f"cannot subtract vectors of lengths {len(a)} and {len(b)}")
    return tuple(map(sub, a, b))


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
    return all(x.numerator > 0 for x in v)  # denominators are positive


def all_nonnegative(v: Sequence) -> bool:
    return all(x.numerator >= 0 for x in v)  # denominators are positive
