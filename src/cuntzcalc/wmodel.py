"""Cuntz semigroup models over finitely many extreme traces.

A finite model is the disjoint union of a projection part (integer vectors
in a K0 lattice with a strict-state positive cone) and a soft part (strictly
positive rational vectors indexed by the traces).  The order mixes strict
and non-strict comparisons:

* projection vs projection goes through the K0 cone,
* soft vs soft is pointwise non-strict,
* a soft class sits below a projection class when its profile is pointwise
  at most the projection's trace vector,
* a projection class sits below a soft class only when its trace vector is
  strictly below the soft profile at every trace.

The purely infinite model is the two-element degenerate semigroup whose
nonzero class absorbs addition and whose scaled K0 group is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import (
    all_positive,
    frac,
    int_vector,
    is_zero,
    matvec,  # unused here; perfbench/tracing.py wraps this module's binding
    vadd,
    vector,
    vsub,
    zeros,
)
from .ordmon import YES, PoGroupModel, StrictStateCone, cone_member, evaluate_states

FINITE = "finite"
PURELY_INFINITE = "purely-infinite"


@dataclass(frozen=True)
class TraceSimplex:
    """Finitely many extreme traces, with printable labels."""

    n: int
    labels: tuple[str, ...] = ()

    def __init__(self, n: int, labels=None):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one trace")
        if labels is None:
            labels = tuple(f"tau{i + 1}" for i in range(n))
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct and match the trace count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class K0Model(PoGroupModel):
    """K0 lattice Z^rank paired with traces through a state matrix.

    This is the ordered group of ``ordmon`` with the strict-state cone of
    ``state_matrix``: one row per trace, each sending the order unit to 1.
    The positive cone is zero together with the vectors on which every row
    is strictly positive.
    """

    def __init__(self, rank: int, state_matrix, unit):
        super().__init__(rank, StrictStateCone(state_matrix), unit)

    @property
    def state_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.cone.states

    @property
    def unit(self) -> tuple[int, ...]:
        return self.order_unit

    @property
    def trace_count(self) -> int:
        return len(self.cone.states)

    def states(self, v) -> tuple[Fraction, ...]:
        return evaluate_states(self, v)

    def cone_member(self, v) -> bool:
        """``ordmon.cone_member`` as a bool: strict-state membership is definite."""
        return cone_member(self, v) is YES

    @classmethod
    def simplicial(cls, unit) -> "K0Model":
        """Simplicial cone normalized through its induced extreme states.

        For Z^k ordered coordinatewise with unit u the extreme states are
        the scaled coordinate functionals x -> x_i / u_i.
        """
        u = int_vector(unit)
        if any(c <= 0 for c in u):
            raise ValueError("a simplicial order unit must be strictly positive")
        k = len(u)
        rows = [
            [Fraction(1, u[i]) if j == i else Fraction(0) for j in range(k)]
            for i in range(k)
        ]
        return cls(k, rows, u)


PROJ = "proj"
SOFT = "soft"


@dataclass(frozen=True)
class CuntzClass:
    """One element of a model: a projection class or a soft class."""

    kind: str
    values: tuple

    def __init__(self, kind: str, values):
        if kind == PROJ:
            values = int_vector(values)
        elif kind == SOFT:
            values = vector(values)
            if not all_positive(values):
                raise ValueError("soft classes carry strictly positive profiles")
        else:
            raise ValueError(f"unknown class kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)

    @classmethod
    def proj(cls, values) -> "CuntzClass":
        return cls(PROJ, values)

    @classmethod
    def soft(cls, values) -> "CuntzClass":
        return cls(SOFT, values)

    @property
    def is_proj(self) -> bool:
        return self.kind == PROJ

    @property
    def is_soft(self) -> bool:
        return self.kind == SOFT

    @property
    def is_zero(self) -> bool:
        return self.kind == PROJ and is_zero(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{'Proj' if self.is_proj else 'Soft'}({inner})"


@dataclass(frozen=True)
class K0Star:
    """Enveloping group Q^n of a finite model, with its two cones.

    ``cone_plusplus`` (classes of differences y <= x) is the coordinatewise
    non-negative cone; ``cone_plus`` (images of actual classes) is zero
    together with the strictly positive vectors.  n = 0 encodes the zero
    group of a purely infinite model.
    """

    n: int

    def __init__(self, n: int):
        n = int(n)
        if n < 0:
            raise ValueError("trace count cannot be negative")
        object.__setattr__(self, "n", n)

    def _check(self, d) -> tuple[Fraction, ...]:
        d = vector(d)
        if len(d) != self.n:
            raise ValueError("vector has the wrong length for this group")
        return d

    def cone_plus(self, d) -> bool:
        d = self._check(d)
        return is_zero(d) or all_positive(d)

    def cone_plusplus(self, d) -> bool:
        d = self._check(d)
        return all(x >= 0 for x in d)

    @property
    def unit_image(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1) for _ in range(self.n))

    def is_order_unit(self, d) -> bool:
        """Order units of the difference cone are the strictly positive d.

        Requires d in the non-negative cone; equivalently there is a uniform
        rational margin epsilon with d >= epsilon at every coordinate.
        """
        d = self._check(d)
        if not self.cone_plusplus(d):
            raise ValueError("order unit test expects a vector in the difference cone")
        if self.n == 0:
            return True
        return min(d) > 0


@dataclass(frozen=True)
class WModel:
    """A Cuntz semigroup model: K0 data, traces, and a variant tag."""

    k0: K0Model
    traces: TraceSimplex
    variant: str = FINITE

    def __init__(self, k0: K0Model, traces: TraceSimplex, variant: str = FINITE):
        if variant not in (FINITE, PURELY_INFINITE):
            raise ValueError(f"unknown variant {variant!r}")
        if k0.trace_count != traces.n:
            raise ValueError("state matrix rows must match the trace count")
        if variant == PURELY_INFINITE and (k0.rank != 1 or traces.n != 1):
            raise ValueError("the purely infinite model uses the rank-1 placeholder K0")
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "variant", variant)

    # -- element plumbing ---------------------------------------------------

    @property
    def zero_class(self) -> CuntzClass:
        return CuntzClass.proj(zeros(self.k0.rank))

    @property
    def unit_class(self) -> CuntzClass:
        return CuntzClass.proj(self.k0.unit)

    def validate_class(self, x: CuntzClass) -> CuntzClass:
        if not isinstance(x, CuntzClass):
            raise TypeError("expected a CuntzClass")
        if self.variant == PURELY_INFINITE:
            if x.is_soft or x.values not in ((0,), (1,)):
                raise ValueError(
                    "the purely infinite model has exactly the classes 0 and <1>"
                )
            return x
        if x.is_proj:
            if len(x.values) != self.k0.rank:
                raise ValueError("projection payload has the wrong K0 rank")
            if not self.k0.cone_member(x.values):
                raise ValueError("projection payload must lie in the K0 cone")
        else:
            if len(x.values) != self.traces.n:
                raise ValueError("soft payload must have one value per trace")
        return x

    # -- operations ---------------------------------------------------------

    def hat(self, v) -> tuple[Fraction, ...]:
        """Trace vector of a nonzero K0 cone element."""
        if self.variant == PURELY_INFINITE:
            raise ValueError("the purely infinite model has no trace pairing")
        v = int_vector(v)
        if is_zero(v) or not self.k0.cone_member(v):
            raise ValueError("hat expects a nonzero element of the K0 cone")
        return self.k0.states(v)

    def add(self, x: CuntzClass, y: CuntzClass) -> CuntzClass:
        self.validate_class(x)
        self.validate_class(y)
        if self.variant == PURELY_INFINITE:
            # the nonzero class is idempotent and absorbing
            if x.is_zero and y.is_zero:
                return self.zero_class
            return self.unit_class
        if x.is_proj and y.is_proj:
            return CuntzClass.proj(vadd(x.values, y.values))
        fx = x.values if x.is_soft else self.k0.states(x.values)
        fy = y.values if y.is_soft else self.k0.states(y.values)
        return CuntzClass.soft(vadd(fx, fy))

    def compare(self, x: CuntzClass, y: CuntzClass) -> bool:
        """Decide x <= y in the model order."""
        self.validate_class(x)
        self.validate_class(y)
        if self.variant == PURELY_INFINITE:
            return x.is_zero or not y.is_zero
        if x.is_proj and y.is_proj:
            return self.k0.cone_member(vsub(y.values, x.values))
        if x.is_soft and y.is_soft:
            return all(a <= b for a, b in zip(x.values, y.values, strict=True))
        if x.is_soft:  # soft below projection: non-strict
            p_hat = self.k0.states(y.values)
            return all(a <= b for a, b in zip(x.values, p_hat, strict=True))
        # projection below soft: strict at every trace
        p_hat = self.k0.states(x.values)
        return all(a < b for a, b in zip(p_hat, y.values, strict=True))

    def scale(self, x: CuntzClass, factor) -> CuntzClass:
        """Scale a soft class by a positive rational."""
        self.validate_class(x)
        factor = frac(factor)
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        if not x.is_soft:
            raise ValueError("only soft classes scale; projections have no multiples "
                             "by non-integer factors")
        return CuntzClass.soft(tuple(factor * v for v in x.values))

    def soften(self, x: CuntzClass) -> CuntzClass:
        """Replace a nonzero projection class by the soft class of its traces."""
        if self.variant == PURELY_INFINITE:
            raise ValueError("soften needs the finite variant")
        self.validate_class(x)
        if x.is_soft:
            return x
        if x.is_zero:
            raise ValueError("the zero class has no soft counterpart")
        return CuntzClass.soft(self.k0.states(x.values))

    def complement(self, x: CuntzClass, y: CuntzClass) -> Optional[CuntzClass]:
        """A class z with x + z = y, when one exists below y.

        For a soft x below a projection y the summand is reported at the
        level of trace profiles: the model's addition lands in the soft part,
        so the returned z satisfies gamma(x + z) = gamma(y) and that is the
        strongest identity available there.
        """
        if not self.compare(x, y):
            raise ValueError("complement expects x <= y")
        if self.variant == PURELY_INFINITE:
            return y if x.is_zero else self.zero_class
        if x.is_proj and y.is_proj:
            return CuntzClass.proj(vsub(y.values, x.values))
        if x.is_proj:  # proj below soft, gap is strict at every trace
            return CuntzClass.soft(vsub(y.values, self.k0.states(x.values)))
        fy = y.values if y.is_soft else self.k0.states(y.values)
        diff = vsub(fy, x.values)
        if is_zero(diff):
            return self.zero_class
        if all_positive(diff):
            return CuntzClass.soft(diff)
        return None

    def gamma(self, x: CuntzClass) -> tuple[Fraction, ...]:
        """Image of a class in the enveloping group Q^n."""
        if self.variant == PURELY_INFINITE:
            raise ValueError("the purely infinite model envelops to the zero group")
        self.validate_class(x)
        if x.is_soft:
            return x.values
        return self.k0.states(x.values)

    def k0star(self) -> K0Star:
        if self.variant == PURELY_INFINITE:
            return K0Star(0)
        return K0Star(self.traces.n)


def w_of_z() -> WModel:
    """The model with one trace and K0 = Z: integers plus positive reals."""
    return WModel(K0Model(1, ((1,),), (1,)), TraceSimplex(1))


def purely_infinite() -> WModel:
    """The degenerate two-element model {0, <1>} with <1> + <1> = <1>."""
    return WModel(K0Model(1, ((1,),), (1,)), TraceSimplex(1), PURELY_INFINITE)
