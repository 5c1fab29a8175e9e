"""Ordered abelian monoids and groups with exact, bounded-scale order checkers.

This module provides finitely presented abelian monoids with an optional
order oracle, their enveloping (Grothendieck) groups computed by integer
Smith reduction, partially ordered group models with a few stock positive
cones, and falsifiers for order properties (almost unperforation, weak
unperforation, the Archimedean property, order units detected by states).

The checkers are bounded-scale falsifiers, not provers: a counterexample is
definitive, while "holds on sample" only says the search space was clean.
Searches that cannot certify a negative return ``Membership.BOUND_EXCEEDED``
instead of guessing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .linalg import (
    all_nonnegative,
    all_positive,
    identity,
    int_vector,
    is_zero,
    matrix,
    matvec,
    vadd,
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
    """A positive cone in Z^rank that decides its own membership.

    ``width`` is the rank the cone needs; None means it fits every rank.
    ``member`` takes an integer vector of that rank.
    """

    width: Optional[int] = None

    def member(self, x: tuple[int, ...]) -> Membership:
        raise NotImplementedError

    def check_unit(self, unit: tuple[int, ...]) -> None:
        """Raise ValueError unless ``unit`` can be the order unit."""
        if self.member(unit) is not YES:
            raise ValueError("order unit must lie in the positive cone")


@dataclass(frozen=True)
class SimplicialCone(PositiveCone):
    """Coordinatewise non-negative vectors."""

    def member(self, x):
        return YES if all_nonnegative(x) else NO


@dataclass(frozen=True)
class StrictStateCone(PositiveCone):
    """Zero together with the vectors on which every listed state is positive.

    ``states`` has one row per state; rows are exact rationals.  Every
    state must take the value 1 on the order unit.
    """

    states: tuple[tuple[Fraction, ...], ...]

    def __init__(self, states):
        object.__setattr__(self, "states", matrix(states))
        if not self.states:
            raise ValueError("a strict-state cone needs at least one state")

    @property
    def width(self) -> int:
        return len(self.states[0])

    def member(self, x):
        return YES if is_zero(x) or all_positive(matvec(self.states, x)) else NO

    def check_unit(self, unit):
        # a unit on which every state is 1 lies in the cone
        if any(v != 1 for v in matvec(self.states, unit)):
            raise ValueError("every state must take the value 1 on the order unit")


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
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "coeff_bound", int(coeff_bound))

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
    order_unit: tuple[int, ...]

    def __init__(self, rank: int, cone: PositiveCone, order_unit):
        rank = int(rank)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        unit = int_vector(order_unit)
        if len(unit) != rank:
            raise ValueError("order unit has the wrong rank")
        if is_zero(unit):
            raise ValueError("order unit must be nonzero")
        if cone.width not in (None, rank):
            raise ValueError(f"the cone needs rank {cone.width}, not {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "order_unit", unit)
        cone.check_unit(unit)


def cone_member(model: PoGroupModel, x) -> Membership:
    """Decide whether x lies in the model's positive cone."""
    x = int_vector(x)
    if len(x) != model.rank:
        raise ValueError("vector has the wrong rank")
    return model.cone.member(x)


def leq(model: PoGroupModel, x, y) -> Membership:
    """Order relation induced by the cone: x <= y iff y - x is positive."""
    return cone_member(model, vsub(int_vector(y), int_vector(x)))


# ---------------------------------------------------------------------------
# Finitely presented abelian monoids and their enveloping groups


OrderOracle = Callable[[tuple[int, ...], tuple[int, ...]], bool]


@dataclass(frozen=True)
class MonoidPresentation:
    """An abelian monoid given by generators and pairs of identified words.

    Elements are coefficient vectors over the generators.  ``order_oracle``
    is an optional decision procedure for the monoid order, called as
    ``oracle(x, y)`` meaning x <= y.
    """

    generator_count: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    order_oracle: Optional[OrderOracle] = None

    def __init__(self, generator_count: int, relations=(), order_oracle=None):
        m = int(generator_count)
        if m < 1:
            raise ValueError("need at least one generator")
        rels = []
        for lhs, rhs in relations:
            lhs = int_vector(lhs)
            rhs = int_vector(rhs)
            if len(lhs) != m or len(rhs) != m:
                raise ValueError("relation words must have one entry per generator")
            if any(c < 0 for c in lhs + rhs):
                raise ValueError("relation words must have non-negative coefficients")
            rels.append((lhs, rhs))
        object.__setattr__(self, "generator_count", m)
        object.__setattr__(self, "relations", tuple(rels))
        object.__setattr__(self, "order_oracle", order_oracle)

    def elements(self, max_coeff_sum: int):
        """All coefficient vectors with coefficient sum up to the bound."""
        m = self.generator_count
        out = []
        for total in range(max_coeff_sum + 1):
            for split in itertools.combinations(range(total + m - 1), m - 1):
                prev = -1
                word = []
                for s in split:
                    word.append(s - prev - 1)
                    prev = s
                word.append(total + m - 2 - prev)
                out.append(tuple(word))
        return out


def smith_diagonal(columns: Sequence[Sequence[int]], m: int):
    """Bring an integer matrix with the given columns to Smith form.

    Returns ``(diag, U)`` where U is a unimodular m x m matrix and
    U @ B @ V is diagonal with d1 | d2 | ... for some unimodular V.
    Plain exact elimination; fine at presentation scale.
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


@dataclass(frozen=True)
class GrothendieckResult:
    """Enveloping group of a presented monoid, in invariant-factor form.

    Group elements are coordinate tuples: torsion coordinates first (reduced
    modulo the matching invariant factor), then free coordinates.
    ``gamma_images[g]`` is the class of generator g.
    """

    free_rank: int
    torsion: tuple[int, ...]
    gamma_images: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]
    kept_rows: tuple[int, ...]

    def reduce(self, coords) -> tuple[int, ...]:
        coords = int_vector(coords)
        if len(coords) != len(self.moduli):
            raise ValueError("coordinate vector has the wrong length")
        return tuple(
            c % d if d > 1 else c for c, d in zip(coords, self.moduli)
        )

    def gamma(self, word) -> tuple[int, ...]:
        """Class of a monoid element given by its coefficient vector."""
        word = int_vector(word)
        if len(word) != len(self.gamma_images):
            raise ValueError("word has the wrong number of generator coefficients")
        acc = [0] * len(self.moduli)
        for coeff, image in zip(word, self.gamma_images):
            for i, entry in enumerate(image):
                acc[i] += coeff * entry
        return self.reduce(acc)

    def subtract(self, a, b) -> tuple[int, ...]:
        return self.reduce(vsub(int_vector(a), int_vector(b)))

    def negate(self, a) -> tuple[int, ...]:
        return self.reduce(vneg(int_vector(a)))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)


def grothendieck_group(pres: MonoidPresentation) -> GrothendieckResult:
    """Enveloping group of the presented monoid via Smith reduction."""
    m = pres.generator_count
    columns = [vsub(lhs, rhs) for lhs, rhs in pres.relations]
    diag, u = smith_diagonal(columns, m)
    moduli_full = [diag[i] if i < len(diag) else 0 for i in range(m)]
    kept = tuple(i for i in range(m) if moduli_full[i] != 1)
    moduli = tuple(moduli_full[i] for i in kept)
    torsion = tuple(d for d in moduli if d > 1)
    images = []
    for g in range(m):
        col = tuple(u[i][g] for i in kept)
        images.append(tuple(c % d if d > 1 else c for c, d in zip(col, moduli)))
    return GrothendieckResult(
        free_rank=sum(1 for d in moduli if d == 0),
        torsion=torsion,
        gamma_images=tuple(images),
        moduli=moduli,
        transform=u,
        kept_rows=kept,
    )


def cone_plusplus_member(
    pres: MonoidPresentation,
    d,
    search_bound: int,
    group: Optional[GrothendieckResult] = None,
) -> Membership:
    """Search for x, y in the monoid with gamma(x) - gamma(y) = d and y <= x.

    The difference cone of the enveloping group consists exactly of such
    classes.  A witness gives a definite YES; exhaustion of the bounded
    search cannot certify absence, so it reports BOUND_EXCEEDED.
    """
    if pres.order_oracle is None:
        raise ValueError("presentation has no order oracle")
    g = group if group is not None else grothendieck_group(pres)
    d = g.reduce(d)
    words = pres.elements(search_bound)
    by_class: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for w in words:
        by_class.setdefault(g.gamma(w), []).append(w)
    for y in words:
        want = g.reduce(vadd(g.gamma(y), d))
        for x in by_class.get(want, ()):
            if pres.order_oracle(y, x):
                return YES
    return BOUND_EXCEEDED


@dataclass(frozen=True)
class StrictConeReport:
    violations: tuple
    inconclusive: tuple
    checked: int


def check_strict_cone(
    pres: MonoidPresentation, samples: Sequence, search_bound: int = 6
) -> StrictConeReport:
    """Check that no nonzero class sits in the difference cone both ways.

    A violation needs definite YES on both d and -d; searches that run out
    of budget are reported as inconclusive, never as violations.
    """
    g = grothendieck_group(pres)
    violations = []
    inconclusive = []
    checked = 0
    for d in samples:
        d = g.reduce(d)
        if d == g.zero:
            continue
        checked += 1
        fwd = cone_plusplus_member(pres, d, search_bound, group=g)
        bwd = cone_plusplus_member(pres, g.negate(d), search_bound, group=g)
        if fwd is YES and bwd is YES:
            violations.append(d)
        elif BOUND_EXCEEDED in (fwd, bwd):
            inconclusive.append(d)
    return StrictConeReport(tuple(violations), tuple(inconclusive), checked)


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


def _int_vectors_by_norm(rank: int, bound: int):
    """Nonzero integer vectors ordered by max-norm, positives first."""
    for m in range(1, bound + 1):
        layer = [
            v
            for v in itertools.product(range(m, -m - 1, -1), repeat=rank)
            if max(abs(c) for c in v) == m
        ]
        yield from layer


def is_weakly_unperforated(model: PoGroupModel, n_max: int, enumeration_bound: int):
    """Search for x and n with nx in the cone minus zero but x outside.

    Returns None when the sample is clean, else ``(x, n)``.  Bound-exceeded
    membership answers make the pair inconclusive and it is skipped.
    """
    for x in _int_vectors_by_norm(model.rank, enumeration_bound):
        x_in = cone_member(model, x).definite
        if x_in is not False:
            continue
        for n in range(1, n_max + 1):
            nx = vscale(n, x)
            nx_in = cone_member(model, nx).definite
            if nx_in is True and not is_zero(nx):
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
    this scale", nothing stronger.  Checks n = n_max first since it fails
    fastest.
    """
    candidates_x = []
    for x in _int_vectors_by_norm(model.rank, enumeration_bound):
        below_zero = cone_member(model, vneg(x)).definite
        if below_zero is False:
            candidates_x.append(x)
    y_bound = min(enumeration_bound, n_max - 1)
    tested = 0
    order = [n_max] + list(range(1, n_max))
    for x in candidates_x:
        for y in _int_vectors_by_norm(model.rank, y_bound):
            tested += 1
            if tested > ARCHIMEDEAN_PAIR_BUDGET:
                return None
            ok = True
            for n in order:
                inside = cone_member(model, vsub(y, vscale(n, x))).definite
                if inside is not True:
                    ok = False
                    break
            if ok:
                return (x, y)
    return None


def evaluate_states(model: PoGroupModel, x) -> tuple[Fraction, ...]:
    """Exact values of every state on x (strict-state cones only)."""
    if not isinstance(model.cone, StrictStateCone):
        raise ValueError("state evaluation needs a strict-state cone")
    x = int_vector(x)
    if len(x) != model.rank:
        raise ValueError("vector has the wrong rank")
    return tuple(matvec(model.cone.states, x))


def is_order_unit_via_states(model: PoGroupModel, x) -> bool:
    """x is an order unit iff every state is strictly positive on it."""
    return all_positive(evaluate_states(model, x))
