"""Cuntz semigroup models over finitely many extreme traces.

A finite model is the disjoint union of a projection part (integer vectors
in a K0 lattice with a strict-state positive cone) and a soft part (strictly
positive rational vectors indexed by the traces).  As in the paper's
embedding of W(A) in V(A) ⊔ LAff_b(T(A))^{++}, a class is its trace vector
gamma(x) plus a flag that says whether it is a projection, and the order is
one rule:

    x <= y  iff  x = y, or gamma(x) <= gamma(y) at every trace, with
    strict inequality at every trace when x is a projection.

Between two projections the strict rule is membership of y - x in the K0
cone, whose states are the traces.

``elements`` validates classes once and gives each its element: the pair
(K0 vector, or None for a soft class; D·gamma(x) as integers), at one scale
D for all the classes converted together, the lcm of the K0 cone's
``scale`` s and of their soft denominators.  A projection x has the image
R·x over the cone's integer rows R = s·(state rows), so
D·gamma(x) = R·x · D/s; a soft value p/q becomes p · D/q.  ``gamma`` is
the one image R·x divided by s.
``element_leq`` is the rule on elements and ``WModel.element_sum`` the
addition: trace vectors add, and K0 vectors too when both operands are
projections.  ``compare``, ``add`` and ``complement`` convert their two
operands at their own scale and apply these.

``WModel`` is the finite model, given by its ``K0Model`` alone, which has
one state row and one label per extreme trace.  ``PurelyInfiniteModel`` is
the two-element degenerate semigroup {0, <1>} of a purely infinite algebra,
whose nonzero class absorbs addition and whose enveloping group is zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import le, lt
from typing import Optional

from .linalg import (
    Frozen,
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
from .ordmon import (
    YES,
    PoGroupModel,
    StrictStateCone,
    cone_member,
    row_image,
)


class K0Model(PoGroupModel):
    """K0 lattice Z^rank paired with traces through a state matrix.

    This is the ordered group of ``ordmon`` with the strict-state cone of
    ``state_matrix``: one row per extreme trace, each sending the order unit
    to 1.  The positive cone is zero together with the vectors on which
    every row is strictly positive.  ``labels`` names the traces, one per
    row: tau1, ..., taun when none are given.
    """

    __slots__ = ("labels",)
    labels: tuple[str, ...]

    def __init__(self, rank: int, state_matrix, unit, labels=None):
        super().__init__(rank, StrictStateCone(state_matrix), unit)
        n = len(self.cone.states)
        labels = tuple(labels or (f"tau{i + 1}" for i in range(n)))
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct and match the trace count")
        object.__setattr__(self, "labels", labels)

    @property
    def state_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.cone.states

    @property
    def trace_count(self) -> int:
        return len(self.labels)

    def cone_member(self, v) -> bool:
        """``ordmon.cone_member`` as a bool: strict-state membership is definite."""
        return cone_member(self, v) is YES


class CuntzClass(Frozen):
    """One element of a model: a projection class or a soft class."""

    __slots__ = ("is_proj", "values")
    is_proj: bool
    values: tuple

    def __init__(self, is_proj: bool, values):
        if is_proj:
            values = int_vector(values)
        else:
            values = vector(values)
            if not all_positive(values):
                raise ValueError("soft classes carry strictly positive profiles")
        object.__setattr__(self, "is_proj", is_proj)
        object.__setattr__(self, "values", values)

    @classmethod
    def proj(cls, values) -> "CuntzClass":
        return cls(True, values)

    @classmethod
    def soft(cls, values) -> "CuntzClass":
        return cls(False, values)

    @property
    def is_soft(self) -> bool:
        return not self.is_proj

    @property
    def is_zero(self) -> bool:
        return self.is_proj and is_zero(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"{'Proj' if self.is_proj else 'Soft'}({inner})"


def element_leq(x: tuple, y: tuple) -> bool:
    """x <= y on elements at one scale: x = y, or D·gamma(x) <= D·gamma(y)
    at every trace, strictly at every trace when x is a projection."""
    (kx, gx), (ky, gy) = x, y
    if kx is None:
        return all(map(le, gx, gy))
    return kx == ky or all(map(lt, gx, gy))


class WModel(Frozen):
    """The finite Cuntz semigroup model of K0 data paired with traces."""

    __slots__ = ("k0",)
    k0: K0Model

    # -- element plumbing ---------------------------------------------------

    @property
    def zero_class(self) -> CuntzClass:
        return CuntzClass.proj(zeros(self.k0.rank))

    @property
    def unit_class(self) -> CuntzClass:
        return CuntzClass.proj(self.k0.unit)

    def validate_class(self, x: CuntzClass) -> CuntzClass:
        self._image(x)
        return x

    def _image(self, x: CuntzClass) -> tuple:
        """Validate x; return R·x for a projection, the profile for a soft class."""
        if not isinstance(x, CuntzClass):
            raise TypeError("expected a CuntzClass")
        if not x.is_proj:
            if len(x.values) != len(self.k0.labels):
                raise ValueError("soft payload must have one value per trace")
            return x.values
        if len(x.values) != self.k0.rank:
            raise ValueError("projection payload has the wrong K0 rank")
        image = row_image(self.k0.cone.rows, x.values)
        if min(image) < 1 and any(x.values):
            raise ValueError("projection payload must lie in the K0 cone")
        return image

    def elements(self, classes) -> tuple[int, list[tuple]]:
        """Validate each class once; return the common scale D and their elements."""
        images = [self._image(x) for x in classes]
        scale = self.k0.cone.scale
        d = math.lcm(scale, *[q.denominator for x in classes if not x.is_proj
                              for q in x.values])
        factor = d // scale
        return d, [
            (x.values, tuple([v * factor for v in image])) if x.is_proj
            else (None, tuple([q.numerator * (d // q.denominator) for q in image]))
            for x, image in zip(classes, images)
        ]

    def element_sum(self, x: tuple, y: tuple) -> tuple:
        """x + y on elements at one scale."""
        (kx, gx), (ky, gy) = x, y
        return None if kx is None or ky is None else vadd(kx, ky), vadd(gx, gy)

    # -- operations ---------------------------------------------------------

    def add(self, x: CuntzClass, y: CuntzClass) -> CuntzClass:
        d, (ex, ey) = self.elements((x, y))
        k0, trace = self.element_sum(ex, ey)
        if k0 is not None:
            return CuntzClass.proj(k0)
        return CuntzClass.soft(tuple(Fraction(g, d) for g in trace))

    def compare(self, x: CuntzClass, y: CuntzClass) -> bool:
        """Decide x <= y in the model order."""
        return element_leq(*self.elements((x, y))[1])

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
        profile = self.gamma(x)
        if x.is_zero:
            raise ValueError("the zero class has no soft counterpart")
        return CuntzClass.soft(profile)

    def complement(self, x: CuntzClass, y: CuntzClass) -> Optional[CuntzClass]:
        """A class z with x + z = y, when one exists below y.

        x <= y and the gap are read off one conversion of the pair.  Between
        projections z is the difference of the K0 vectors.  Otherwise z is
        the soft class of the gap gamma(y) - gamma(x), the zero class when
        the gap vanishes, and None when it touches zero at some traces only.
        For a soft x below a projection y the summand is reported at the
        level of trace profiles: the model's addition lands in the soft
        part, so the returned z satisfies gamma(x + z) = gamma(y) and that
        is the strongest identity available there.
        """
        d, (ex, ey) = self.elements((x, y))
        if not element_leq(ex, ey):
            raise ValueError("complement requires x ≤ y")
        (kx, gx), (ky, gy) = ex, ey
        if kx is not None and ky is not None:
            return CuntzClass.proj(vsub(ky, kx))
        gap = vsub(gy, gx)
        if not any(gap):
            return self.zero_class
        if min(gap) > 0:
            return CuntzClass.soft(Fraction(g, d) for g in gap)
        return None

    def gamma(self, x: CuntzClass) -> tuple[Fraction, ...]:
        """Image of a class in the enveloping group Q^n."""
        image = self._image(x)
        if not x.is_proj:
            return image
        scale = self.k0.cone.scale
        return tuple([Fraction(v, scale) for v in image])

    @property
    def group_rank(self) -> int:
        """Rank n of the enveloping group Q^n, the trace count.  Its difference
        cone, of gamma(x) - gamma(y) for y <= x, is the non-negative vectors."""
        return self.k0.trace_count


class PurelyInfiniteModel(WModel):
    """The degenerate two-element model {0, <1>} with <1> + <1> = <1>.

    ``purely_infinite()`` builds it on the rank-1 placeholder K0 = Z with one
    trace, where 0 and <1> are the projections (0) and (1).  Its ``_image``
    admits only those two classes.  On that K0, and only there, the inherited
    ``validate_class``, ``elements``, ``compare``, ``complement``, ``scale``,
    ``zero_class`` and ``unit_class`` already give the degenerate answers;
    the inherited ``add`` adds through the absorbing ``element_sum``.
    """

    __slots__ = ()

    def _image(self, x: CuntzClass) -> tuple:
        if not isinstance(x, CuntzClass):
            raise TypeError("expected a CuntzClass")
        if x.is_soft or x.values not in ((0,), (1,)):
            raise ValueError("the purely infinite model has only the classes 0 and <1>")
        return x.values  # R = ((1,),) on the placeholder K0

    def element_sum(self, x: tuple, y: tuple) -> tuple:
        return x if any(x[0]) else y  # <1> is idempotent and absorbing

    def soften(self, x: CuntzClass) -> CuntzClass:
        raise ValueError("soften needs a finite model")

    def gamma(self, x: CuntzClass) -> tuple[Fraction, ...]:
        raise ValueError("the purely infinite model envelops to the zero group")

    group_rank = 0  # the enveloping group is zero


def purely_infinite() -> PurelyInfiniteModel:
    """The degenerate two-element model {0, <1>} with <1> + <1> = <1>."""
    return PurelyInfiniteModel(K0Model(1, ((1,),), (1,)))
