"""Ordered abelian monoids and groups with exact, bounded-scale order checkers.

This module provides positive cones in Z^rank that decide their own
membership, partially ordered group models built on them, integer Smith
reduction, and falsifiers for order properties (almost unperforation of a
sampled ordered monoid, weak unperforation, the Archimedean property).
A simplicial cone decides membership from the signs of x; a strict-state
cone keeps its state rows once as integers R at one scale and decides from
the image R·x.  On both, weak unperforation and the Archimedean property are
decided by theorem: both cones are weakly unperforated, a simplicial cone is
archimedean, and a strict-state cone is archimedean iff its rank is 1, with
an explicit witness above rank 1.

On the other cones the checkers are bounded-scale falsifiers, not provers: a
counterexample is definitive, while "holds on sample" only says the search
space was clean.  A generated cone reads membership off its table of sums
and answers ``Membership.BOUND_EXCEEDED`` where no certificate decides.  The
candidate box of each rank (``box_bound``, ``box_size``) and ``SEARCH_WORK_CAP``
are kept here too; the cap refuses a walk before its first candidate.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .linalg import (
    Frozen,
    identity,
    int_vector,
    is_zero,
    matrix,
    matvec,
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


class PositiveCone(Frozen):
    """A positive cone in Z^width that decides its own membership.

    ``member`` takes an integer vector of rank ``width``.
    """

    __slots__ = ()
    width: int

    def member(self, x: tuple[int, ...]) -> Membership:
        raise NotImplementedError

    def check_unit(self, unit: tuple[int, ...]) -> None:
        """Raise ValueError unless ``unit`` can be the order unit."""
        if self.member(unit) is not YES:
            raise ValueError("order unit must lie in the positive cone")


class SimplicialCone(PositiveCone):
    """Coordinatewise non-negative vectors of rank ``width``."""

    __slots__ = ("width",)
    width: int

    def member(self, x):
        return YES if min(x) >= 0 else NO


class StrictStateCone(PositiveCone):
    """Zero together with the vectors on which every listed state is positive.

    ``states`` has one row per state; rows are exact rationals.  Every
    state must take the value 1 on the order unit.  The rows are also kept
    once as integers, ``rows`` = ``scale``·states, where ``scale`` is the lcm
    of every state denominator.  A positive scale keeps every sign, and on
    integers > 0 is >= 1, so a nonzero x lies in the cone iff min(R·x) >= 1.
    """

    __slots__ = ("states", "rows", "scale")
    states: tuple[tuple[Fraction, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    scale: int

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
        return YES if min(matvec(self.rows, x)) >= 1 or not any(x) else NO

    def check_unit(self, unit):
        # a unit on which every state is 1 lies in the cone: R·u = scale
        if any(value != self.scale for value in matvec(self.rows, unit)):
            raise ValueError("every state must take the value 1 on the order unit")


# Most coefficient vectors, C(coeff_bound + g, g) for g generators, that a
# generated cone's table may stand for: coeff_bound 89 at g = 2, 27 at g = 3.
COEFF_VECTORS_CAP = 4096

# Most 64-bit words a generated cone's table of sums may take, estimated
# before it is built: rank entries per coefficient vector, each a signed
# integer no larger than coeff_bound * max |generator entry|.  The all-ones
# cone of rank 20,000 at coeff_bound 24 takes exactly 25 * 20,000 words.
SUMS_WORDS_CAP = 500_000


class GeneratedCone(PositiveCone):
    """Non-negative integer span of finitely many integer generators.

    ``sums`` holds every sum of at most ``coeff_bound`` generators, built once,
    and x lies in the cone when it is one of them.  Otherwise, when every
    generator has a positive coordinate sum, the answer is a definite NO if
    coeff_bound + 1 generators already exceed x's coordinate sum (any longer
    combination has a larger coordinate sum than x); else BOUND_EXCEEDED.
    """

    __slots__ = ("generators", "coeff_bound", "sums")
    generators: tuple[tuple[int, ...], ...]
    coeff_bound: int
    sums: frozenset[tuple[int, ...]]

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
        entries = math.comb(bound + len(gens), len(gens)) * len(gens[0])
        largest = bound * max(abs(e) for g in gens for e in g)
        if entries * (largest.bit_length() // 64 + 1) > SUMS_WORDS_CAP:
            raise ValueError(f"the table of sums of at most {bound} generators would "
                             f"take more than {SUMS_WORDS_CAP} words")
        # a point first reached with k + 1 generators is one first reached
        # with k, plus a generator, so each round extends only the last one
        layer = {(0,) * len(gens[0])}
        sums = set(layer)
        for _ in range(bound):
            layer = {q for p in layer for g in gens
                     if (q := tuple(map(add, p, g))) not in sums}
            sums |= layer
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "coeff_bound", bound)
        object.__setattr__(self, "sums", frozenset(sums))

    @property
    def width(self) -> int:
        return len(self.generators[0])

    def member(self, x):
        if tuple(x) in self.sums:
            return YES
        low = min(map(sum, self.generators))
        if low >= 1 and (self.coeff_bound + 1) * low > sum(x):
            return NO
        return BOUND_EXCEEDED


class LexicographicCone(PositiveCone):
    """Lexicographically non-negative vectors of rank 2 (control cone)."""

    __slots__ = ()
    width = 2

    def member(self, x):
        for entry in x:
            if entry != 0:
                return YES if entry > 0 else NO
        return YES


class PoGroupModel(Frozen):
    """A partially ordered abelian group Z^rank with a stock positive cone."""

    __slots__ = ("rank", "cone", "unit")
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
    # b stays block-diagonal: rows from t on are zero left of column t
    for t in range(min(m, r)):
        while entries := [(abs(v), i, j) for i in range(t, m)
                          for j, v in enumerate(b[i]) if v]:
            # the first smallest entry in row-major order goes to (t, t)
            _, i, j = min(entries)
            b[t], b[i], u[t], u[i] = b[i], b[t], u[i], u[t]
            for row in b:
                row[t], row[j] = row[j], row[t]
            if b[t][t] < 0:
                b[t], u[t] = [-x for x in b[t]], [-x for x in u[t]]
            p = b[t][t]
            for i in range(t + 1, m):
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            if any(b[i][t] for i in range(t + 1, m)):
                continue
            qs = [x // p for x in b[t]]
            for row in b:
                row[t + 1:] = [x - q * row[t] for x, q in zip(row[t + 1:], qs[t + 1:])]
            if any(b[t][t + 1:]):
                continue
            # fold a row with an entry p does not divide into the pivot row,
            # so the next round shrinks the pivot to a common divisor
            bad = next((i for i in range(t + 1, m) if any(x % p for x in b[i])), None)
            if bad is None:
                break
            b[t] = [x + y for x, y in zip(b[t], b[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]

    diag = [b[i][i] for i in range(min(m, r))]
    return diag, tuple(tuple(row) for row in u)


# ---------------------------------------------------------------------------
# Order-property falsifiers


class OrderStructure(Frozen):
    """A sampled ordered monoid: enumeration, addition, and order."""

    __slots__ = ("elements", "add", "leq")
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


# Largest walk of the two searches below, box_size times n_max: at the default
# boxes n_max goes up to 119 at rank 5, 16 at rank 6, 2 at rank 7, 0 from 8.
SEARCH_WORK_CAP = 2_000_000


def box_bound(rank: int) -> int:
    """The default max-norm bound of the candidate box at ``rank``."""
    return {1: 12, 2: 8, 3: 6, 4: 4}.get(rank, 3)


def box_size(rank: int, bound: int) -> int:
    """The nonzero integer vectors of max-norm at most ``bound``."""
    return (2 * bound + 1) ** rank - 1


def _walk_bound(model: PoGroupModel, n_max: int, enumeration_bound, search: str,
                why: str) -> int:
    """The box bound of a walk about to start.  Refuses one past the cap by a
    message without its size, which has thousands of digits at large ranks;
    then one below the multiplier 2, at which the walk ``search`` would test
    nothing, for the reason ``why``."""
    bound = box_bound(model.rank) if enumeration_bound is None else enumeration_bound
    if box_size(model.rank, bound) * n_max > SEARCH_WORK_CAP:
        raise ValueError(
            f"the search on rank {model.rank} with multiplier {n_max} would try "
            f"more than {SEARCH_WORK_CAP} candidate multiples"
        )
    if n_max < 2:
        raise ValueError(f"the {search} search needs a multiplier of at least 2, "
                         f"not {n_max}: {why}")
    return bound


def _int_vectors_by_norm(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero integer vectors of max-norm at most ``bound``, by max-norm.

    Generated lazily, one shell of max-norm k at a time in box order
    (positives first), so smaller bounds give prefixes."""
    for k in range(1, bound + 1):
        for v in itertools.product(range(k, -k - 1, -1), repeat=rank):
            if k in v or -k in v:
                yield v


def is_weakly_unperforated(model: PoGroupModel, n_max: int, enumeration_bound=None):
    """Search for x and n with nx in the cone minus zero but x outside.

    Returns None when the sample is clean, else ``(x, n)``.  x runs over the
    box of max-norm ``enumeration_bound``, ``box_bound(rank)`` by default.
    Bound-exceeded membership answers make the pair inconclusive and it is skipped.
    Simplicial and strict-state cones have no such pair, so the search
    returns at once on them.  On a simplicial cone, nx >= 0 iff x >= 0 for every n >= 1.
    On a strict-state cone with integer rows R, a nonzero x lies outside
    iff min(R·x) <= 0, and then n·min(R·x) <= 0, so nx lies outside too.
    Other cones are walked from the multiple 2x on, as 1·x is x, outside the
    cone; below n_max = 2 none is left, so the walk is refused, not reported clean.
    """
    if isinstance(model.cone, (SimplicialCone, StrictStateCone)):
        return None
    bound = _walk_bound(model, n_max, enumeration_bound, "weak-unperforation",
                        "1·x is x, which lies outside the cone, so no multiple "
                        "could be tested")
    for x in _int_vectors_by_norm(model.rank, bound):
        # x is nonzero, so every nx is too
        if cone_member(model, x).definite is not False:
            continue
        for n in range(2, n_max + 1):
            if cone_member(model, vscale(n, x)).definite is True:
                return (x, n)
    return None


ARCHIMEDEAN_PAIR_BUDGET = 200_000


def archimedean_witness(model: PoGroupModel, n_max: int, enumeration_bound=None):
    """Find x not below zero and y with nx <= y for every n <= n_max.

    Simplicial and strict-state cones are decided by theorem, without a
    search.  A simplicial cone is archimedean, so the answer is None: nx <= y
    for every n forces x <= 0.

    A strict-state cone is archimedean iff its rank is 1.  Let R be its
    integer rows at scale s, so R·u = s in every row.  At rank 1 each row
    has the sign of u, so the cone is {0} ∪ {x : xu > 0}, an order copy of
    Z, and the answer is None.  At rank >= 2 take e_i, the first unit vector
    not parallel to u, its column c = R·e_i and p = max(c).  Then
    x = s·e_i - p·u, over the gcd of its entries, is nonzero (p = 0 leaves
    s·e_i, and otherwise u has an entry off i) and R·x = s(c - p) <= 0, with
    0 in a row where c reaches p.  So -x lies outside the cone, and
    R(u - n·x) >= R·u = s > 0 puts u - n·x inside for every n: (x, u) is a
    witness at every scale, n_max included.

    Other cones are searched over the box of ``is_weakly_unperforated``: x is
    streamed from it in increasing max-norm order, and -x is tested when the
    walk reaches x; each x with -x outside the cone is paired with every y of
    max-norm below n_max (and at most the bound), asking ``cone_member`` for
    each n, n_max first (fastest to fail).  The walk stops after
    ``ARCHIMEDEAN_PAIR_BUDGET`` pairs, so None means "none found at this
    scale", nothing stronger.  y keeps its max-norm below n_max, so it cannot
    dominate n_max·x by size alone; below n_max = 2 no y is left, and the
    walk is refused rather than reported clean.
    """
    cone = model.cone
    if isinstance(cone, SimplicialCone):
        return None
    if isinstance(cone, StrictStateCone):
        if model.rank == 1:
            return None
        u = model.unit
        i = 0 if any(u[1:]) else 1
        p = max(row[i] for row in cone.rows)
        x = [-p * c for c in u]
        x[i] += cone.scale
        g = math.gcd(*x)
        return tuple(c // g for c in x), u
    bound = _walk_bound(model, n_max, enumeration_bound, "archimedean",
                        "y stays below the multiplier in max-norm, so no pair "
                        "could be tested")
    # y runs over the vectors of max-norm at most m < n_max
    ys = list(_int_vectors_by_norm(model.rank, min(bound, n_max - 1)))
    tested = 0
    for x in _int_vectors_by_norm(model.rank, bound):
        if cone_member(model, vneg(x)).definite is not False:
            continue
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
