"""Ordered abelian monoids and groups with exact, bounded-scale order checkers.

This module provides positive cones in Z^rank that decide their own
membership, partially ordered group models built on them, integer Smith
reduction, and falsifiers for order properties (almost unperforation of a
sampled ordered monoid, weak unperforation, the Archimedean property).
A simplicial cone decides membership from the signs of x; a strict-state
cone keeps its state rows once as integers R at one scale and decides from
the image R·x.  Weak unperforation holds on both without a search, a
simplicial cone is archimedean, and the archimedean search on a strict-state
cone settles each candidate from row bounds on R·x.

The checkers are bounded-scale falsifiers, not provers: a counterexample is
definitive, while "holds on sample" only says the search space was clean.
Searches that cannot certify a negative return ``Membership.BOUND_EXCEEDED``
instead of guessing.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import ge, gt, mul
from typing import Callable, Iterator, Optional, Sequence

from .linalg import (
    all_nonnegative,
    identity,
    int_vector,
    is_zero,
    matrix,
    matvec,  # unused here; perfbench/tracing.py wraps this module's binding
    vneg,
    vscale,
    vsub,
)


class Membership(enum.Enum):
    """Three-valued answer for cone membership questions.

    ``bool()`` succeeds only on a definite answer; coercing BOUND_EXCEEDED
    raises so an inconclusive search can never silently read as False.
    """

    YES = "yes"
    NO = "no"
    BOUND_EXCEEDED = "bound-exceeded"

    def __bool__(self) -> bool:
        if self is Membership.BOUND_EXCEEDED:
            raise ValueError("membership search exceeded its bound; no definite answer")
        return self is Membership.YES

    @property
    def definite(self) -> Optional[bool]:
        if self is Membership.BOUND_EXCEEDED:
            return None
        return self is Membership.YES


YES = Membership.YES
NO = Membership.NO
BOUND_EXCEEDED = Membership.BOUND_EXCEEDED


# ---------------------------------------------------------------------------
# Positive cones


class PositiveCone:
    """A positive cone in Z^width that decides its own membership.

    ``member`` takes an integer vector of rank ``width``.
    """

    width: int

    def member(self, x: tuple[int, ...]) -> Membership:
        raise NotImplementedError

    def check_unit(self, unit: tuple[int, ...]) -> None:
        """Raise ValueError unless ``unit`` can be the order unit."""
        if self.member(unit) is not YES:
            raise ValueError("order unit must lie in the positive cone")


def row_image(rows, x) -> tuple[int, ...]:
    """R·x for integer rows R."""
    return tuple(sum(map(mul, row, x)) for row in rows)


@dataclass(frozen=True)
class SimplicialCone(PositiveCone):
    """Coordinatewise non-negative vectors of rank ``width``."""

    width: int

    def member(self, x):
        return YES if min(x) >= 0 else NO


@dataclass(frozen=True)
class StrictStateCone(PositiveCone):
    """Zero together with the vectors on which every listed state is positive.

    ``states`` has one row per state; rows are exact rationals.  Every
    state must take the value 1 on the order unit.  The rows are also kept
    once as integers, ``rows`` = ``scale``·states, where ``scale`` is the lcm
    of every state denominator.  A positive scale keeps every sign, and on
    integers > 0 is >= 1, so a nonzero x lies in the cone iff min(R·x) >= 1.
    """

    states: tuple[tuple[Fraction, ...], ...]
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __init__(self, states):
        states = matrix(states)
        if not states:
            raise ValueError("a strict-state cone needs at least one state")
        scale = math.lcm(*(q.denominator for row in states for q in row))
        rows = tuple(tuple(q.numerator * (scale // q.denominator) for q in row)
                     for row in states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)

    @property
    def width(self) -> int:
        return len(self.states[0])

    def member(self, x):
        for row in self.rows:
            if sum(map(mul, row, x)) < 1:
                return NO if any(x) else YES
        return YES

    def check_unit(self, unit):
        # a unit on which every state is 1 lies in the cone: R·u = scale
        if any(sum(map(mul, row, unit)) != self.scale for row in self.rows):
            raise ValueError("every state must take the value 1 on the order unit")


# Most coefficient vectors, C(coeff_bound + g, g) for g generators, that a
# generated cone's search may try: coeff_bound 88 at g = 2, 27 at g = 3.
COEFF_VECTORS_CAP = 4096


@dataclass(frozen=True)
class GeneratedCone(PositiveCone):
    """Non-negative integer span of finitely many integer generators.

    Membership is decided by exhaustive search over coefficient vectors with
    coefficient sum at most ``coeff_bound``.  When every generator has a
    positive coordinate sum the search can certify a definite NO (any longer
    combination has a larger coordinate sum than the target); otherwise an
    unsuccessful search reports BOUND_EXCEEDED.
    """

    generators: tuple[tuple[int, ...], ...]
    coeff_bound: int = 24

    def __init__(self, generators, coeff_bound: int = 24):
        gens = tuple(int_vector(g) for g in generators)
        if not gens:
            raise ValueError("a generated cone needs at least one generator")
        if any(len(g) != len(gens[0]) for g in gens):
            raise ValueError("generators of mixed rank")
        if any(is_zero(g) for g in gens):
            raise ValueError("zero generator is redundant, drop it")
        bound = int(coeff_bound)
        if bound < 0 or math.comb(bound + len(gens), len(gens)) > COEFF_VECTORS_CAP:
            raise ValueError(f"coeff_bound must be non-negative and allow at most "
                             f"{COEFF_VECTORS_CAP} coefficient vectors")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "coeff_bound", bound)

    @property
    def width(self) -> int:
        return len(self.generators[0])

    def member(self, x):
        gens = self.generators
        bound = self.coeff_bound
        nonneg = all(all_nonnegative(g) for g in gens)

        def search(target, idx, budget):
            if is_zero(target):
                return True
            if idx == len(gens) or budget == 0:
                return False
            if nonneg and any(t < 0 for t in target):
                return False
            g = gens[idx]
            # try coefficients for generator idx from high to low
            for c in range(budget, -1, -1):
                rest = tuple(t - c * gi for t, gi in zip(target, g))
                if search(rest, idx + 1, budget - c):
                    return True
            return False

        if search(x, 0, bound):
            return YES
        sums = [sum(g) for g in gens]
        if min(sums) >= 1 and (bound + 1) * min(sums) > sum(x):
            # any combination longer than the bound has coordinate sum
            # exceeding the target's, so the exhaustive part was complete
            return NO
        return BOUND_EXCEEDED


@dataclass(frozen=True)
class LexicographicCone(PositiveCone):
    """Lexicographically non-negative vectors of rank 2 (control cone)."""

    width = 2

    def member(self, x):
        for entry in x:
            if entry != 0:
                return YES if entry > 0 else NO
        return YES


@dataclass(frozen=True)
class PoGroupModel:
    """A partially ordered abelian group Z^rank with a stock positive cone."""

    rank: int
    cone: PositiveCone
    unit: tuple[int, ...]

    def __init__(self, rank: int, cone: PositiveCone, unit):
        rank = int(rank)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        unit = int_vector(unit)
        if len(unit) != rank:
            raise ValueError("order unit has the wrong rank")
        if is_zero(unit):
            raise ValueError("order unit must be nonzero")
        if cone.width != rank:
            raise ValueError(f"the cone needs rank {cone.width}, not {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "unit", unit)
        cone.check_unit(unit)


def cone_member(model: PoGroupModel, x) -> Membership:
    """Decide whether x lies in the model's positive cone."""
    x = int_vector(x)
    if len(x) != model.rank:
        raise ValueError("vector has the wrong rank")
    return model.cone.member(x)


# ---------------------------------------------------------------------------
# Integer Smith reduction


def smith_diagonal(columns: Sequence[Sequence[int]], m: int):
    """Bring an integer matrix with the given columns to Smith form.

    Returns ``(diag, U)`` where U is a unimodular m x m matrix and
    U @ B @ V is diagonal with d1 | d2 | ... for some unimodular V.
    Plain exact elimination; fine at these ranks.
    """
    r = len(columns)
    b = [[int(col[i]) for col in columns] for i in range(m)]
    u = [list(row) for row in identity(m)]

    def row_op(dst, src, q):
        b[dst] = [x - q * y for x, y in zip(b[dst], b[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def swap_rows(i, j):
        b[i], b[j] = b[j], b[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]

    def col_op(dst, src, q):
        for row in b:
            row[dst] -= q * row[src]

    t = 0
    while t < m and t < r:
        while True:
            pivot = None
            for i in range(t, m):
                for j in range(t, r):
                    if b[i][j] != 0 and (
                        pivot is None or abs(b[i][j]) < abs(b[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot != (t, t):
                swap_rows(t, pivot[0])
                swap_cols(t, pivot[1])
            if b[t][t] < 0:
                b[t] = [-x for x in b[t]]
                u[t] = [-x for x in u[t]]
            p = b[t][t]
            residue = False
            for i in range(t + 1, m):
                q = b[i][t] // p
                if q:
                    row_op(i, t, q)
                if b[i][t]:
                    residue = True
            if residue:
                continue
            for j in range(t + 1, r):
                q = b[t][j] // p
                if q:
                    col_op(j, t, q)
                if b[t][j]:
                    residue = True
            if residue:
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, r):
                    if b[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row into the pivot row so the next round
            # shrinks the pivot to a common divisor
            b[t] = [x + y for x, y in zip(b[t], b[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if b[t][t] == 0:
            break
        t += 1

    diag = [b[i][i] for i in range(min(m, r))]
    return diag, tuple(tuple(row) for row in u)


# ---------------------------------------------------------------------------
# Order-property falsifiers


@dataclass(frozen=True)
class OrderStructure:
    """A sampled ordered monoid: enumeration, addition, and order."""

    elements: Callable[[int], Sequence]
    add: Callable
    leq: Callable


def _definite(answer) -> Optional[bool]:
    if isinstance(answer, Membership):
        return answer.definite
    return bool(answer)


def is_almost_unperforated(
    structure: OrderStructure, n_max: int, enumeration_bound: int
):
    """Search for x, y with (n+1)x <= ny but x !<= y.

    Returns None when the sample is clean, else the counterexample
    ``(x, y, n)``.  Inconclusive order answers are skipped.
    """
    elems = list(structure.elements(enumeration_bound))
    for x in elems:
        for y in elems:
            lhs = x
            rhs = None
            for n in range(1, n_max + 1):
                lhs = structure.add(lhs, x)  # lhs = (n+1) x
                rhs = y if rhs is None else structure.add(rhs, y)  # rhs = n y
                premise = _definite(structure.leq(lhs, rhs))
                if premise is not True:
                    continue
                conclusion = _definite(structure.leq(x, y))
                if conclusion is False:
                    return (x, y, n)
    return None


def _int_vectors_by_norm(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero integer vectors of max-norm at most ``bound``, by max-norm.

    Generated lazily, one shell of max-norm k at a time in box order
    (positives first), so smaller bounds give prefixes."""
    for k in range(1, bound + 1):
        for v in itertools.product(range(k, -k - 1, -1), repeat=rank):
            if k in v or -k in v:
                yield v


def is_weakly_unperforated(model: PoGroupModel, n_max: int, enumeration_bound: int):
    """Search for x and n with nx in the cone minus zero but x outside.

    Returns None when the sample is clean, else ``(x, n)``.  Bound-exceeded
    membership answers make the pair inconclusive and it is skipped.
    Simplicial and strict-state cones have no such pair, so the search
    returns at once on them.  On a simplicial cone, nx >= 0 iff x >= 0 for every n >= 1.
    On a strict-state cone with integer rows R, a nonzero x lies outside
    iff min(R·x) <= 0, and then n·min(R·x) <= 0, so nx lies outside too.
    """
    if isinstance(model.cone, (SimplicialCone, StrictStateCone)):
        return None
    for x in _int_vectors_by_norm(model.rank, enumeration_bound):
        # x is nonzero, so every nx is too
        if cone_member(model, x).definite is not False:
            continue
        for n in range(1, n_max + 1):
            if cone_member(model, vscale(n, x)).definite is True:
                return (x, n)
    return None


ARCHIMEDEAN_PAIR_BUDGET = 200_000


def archimedean_witness(model: PoGroupModel, n_max: int, enumeration_bound: int):
    """Search for x not below zero and y with nx <= y for every n <= n_max.

    A found pair witnesses failure of the Archimedean property at the tested
    scale.  y keeps its max-norm below n_max, so it cannot dominate n_max x
    by size alone: on a simplicial cone that would be a false witness.  The
    sweep covers candidate pairs in increasing max-norm order and stops
    after ``ARCHIMEDEAN_PAIR_BUDGET`` pairs, so None means "none found at
    this scale", nothing stronger.  A simplicial cone returns None at once:
    nx <= y for every n forces x <= 0, and already at n_max a positive x_k
    asks y_k >= n_max > ||y||.  Strict-state cones decide pairs from R·x and
    R·y; other cones ask ``cone_member`` for each n, n_max first (fastest to
    fail).  Every y has max-norm at most m, so row k of R·y is at most
    m·Σ|r_k|: a candidate whose limit passes that top in some row has no
    witness, and its pairs are counted untested.
    """
    cone = model.cone
    if isinstance(cone, SimplicialCone):
        return None
    box = _int_vectors_by_norm(model.rank, enumeration_bound)
    # y runs over the prefix of the box of max-norm at most m < n_max
    m = max(0, min(enumeration_bound, n_max - 1))
    n_ys = (2 * m + 1) ** model.rank - 1
    tested = 0
    if isinstance(cone, StrictStateCone):
        rows = cone.rows
        tops = [m * sum(map(abs, row)) for row in rows]
        y_images = None
        for x in box:
            image = row_image(rows, x)
            if max(image) < 0:  # -x lies in the cone
                continue
            # R·y - n·R·x is linear in n, so every n <= n_max passes the rule
            # iff n = 1 and n = n_max do.  It misjudges only a zero difference
            # y - n·x = 0, never part of a witness: ||y|| < n_max forces
            # n < n_max, and y - n_max·x is a positive multiple of -x, outside.
            limits = [max(v, n_max * v) + 1 for v in image]
            if any(map(gt, limits, tops)):
                tested += n_ys
                if tested > ARCHIMEDEAN_PAIR_BUDGET:
                    return None
                continue
            if y_images is None:
                ys = list(_int_vectors_by_norm(model.rank, m))
                y_images = [row_image(rows, y) for y in ys]
            for y, y_image in zip(ys, y_images):
                if tested == ARCHIMEDEAN_PAIR_BUDGET:
                    return None
                tested += 1
                if all(map(ge, y_image, limits)):
                    return (x, y)
        return None
    box = list(box)
    ys = box[:n_ys]
    candidates_x = [x for x in box if cone_member(model, vneg(x)).definite is False]
    for x in candidates_x:
        multiples = [vscale(n, x) for n in (n_max, *range(1, n_max))]
        for y in ys:
            if tested == ARCHIMEDEAN_PAIR_BUDGET:
                return None
            tested += 1
            if all(
                cone_member(model, vsub(y, nx)).definite is True for nx in multiples
            ):
                return (x, y)
    return None
