"""Test support: the fixtures and oracles that no ``cuntzcalc`` command reaches.

- Small fixed models and invariants shared by several test files,
  ``Delegating``, a cone that hides its type from the order searches, and
  ``searched_member``, the recursive coefficient search that generated-cone
  membership is checked against.
- ``OrderStructure`` and ``is_almost_unperforated``, a sampled
  almost-unperforation falsifier over any ordered monoid given by its
  enumeration, addition and order.
- Seeded random models, invariants and model morphisms for the acceptance
  criteria and the functor tests.  The sampling suites of ``check`` draw
  their classes through ``cuntzcalc.sampling`` alone.
- The three sampling suites of ``check`` written one draw at a time through
  ``random.Random``'s own methods, deciding every draw afresh, as the
  reference their seeded reports are checked against, and the broken rules
  that make each suite list what it drew.
- The general-measure layer over [0, 1]: probability measures as a
  piecewise-constant density plus finitely many atoms, their exact values on
  open sets, cutdowns, spectra and the comparison lemma.  Criteria 10 and 11
  use it as an oracle independent of ``goodearl.dim_profile``, which
  ``realize`` checks: for these algebras the trace simplex is the
  probability measures on [0, 1], and d_μ(a) is the μ-average of the
  point-mass profile.

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from cuntzcalc import cli
from cuntzcalc.documents import rationals
from cuntzcalc.elliott import AbelianGroupData, ElliottInvariant, WModelMorphism
from cuntzcalc.goodearl import DiagonalElement, OpenSet, PLFn, dim_fn
from cuntzcalc.linalg import (
    Frozen,
    all_nonnegative,
    frac,
    identity,
    is_zero,
    matmul,
    matvec,
    transpose,
    vector,
    vneg,
    vscale,
    vsub,
)
from cuntzcalc.ordmon import (
    BOUND_EXCEEDED,
    NO,
    YES,
    GeneratedCone,
    Membership,
    PositiveCone,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel, element_leq

# ---------------------------------------------------------------------------
# Fixed models and cones


def w_of_z() -> WModel:
    """The model with one trace and K0 = Z: integers plus positive reals."""
    return WModel(K0Model(1, ((1,),), (1,)))


def two_trace_model() -> WModel:
    k0 = K0Model(2, (("1/2", "1/2"), ("1/4", "3/4")), (1, 1))
    return WModel(k0)


def integers_invariant() -> ElliottInvariant:
    return ElliottInvariant(K0Model(1, ((1,),), (1,)), AbelianGroupData(0))


class Delegating(PositiveCone):
    """The inner cone's membership without its type, so the searches take
    the generic per-n ``cone_member`` walk instead of a theorem."""

    __slots__ = ("inner",)
    inner: PositiveCone

    @property
    def width(self) -> int:
        return self.inner.width

    def member(self, x):
        return self.inner.member(x)


def searched_member(cone: GeneratedCone, x) -> Membership:
    """Membership in a generated cone by exhaustive search over coefficient
    vectors with coefficient sum at most ``coeff_bound``, then the
    coordinate-sum certificate: the answer ``GeneratedCone.member`` gives
    from its table of sums, found by an independent route."""
    gens = cone.generators
    bound = cone.coeff_bound
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


# ---------------------------------------------------------------------------
# Almost unperforation of a sampled ordered monoid


class OrderStructure(Frozen):
    """A sampled ordered monoid: enumeration, addition, and order."""

    __slots__ = ("elements", "add", "leq")
    elements: Callable[[int], Sequence]
    add: Callable
    leq: Callable


def is_almost_unperforated(
    structure: OrderStructure, n_max: int, enumeration_bound: int
):
    """Search for x, y with (n+1)x <= ny but x !<= y.

    Returns None when the sample is clean, else the counterexample
    ``(x, y, n)``.  ``leq`` answers a bool or a ``Membership``; inconclusive
    order answers are skipped.
    """
    def definite(answer):
        return None if answer is BOUND_EXCEEDED else bool(answer)

    elems = list(structure.elements(enumeration_bound))
    for x in elems:
        for y in elems:
            lhs = x
            rhs = None
            for n in range(1, n_max + 1):
                lhs = structure.add(lhs, x)  # lhs = (n+1) x
                rhs = y if rhs is None else structure.add(rhs, y)  # rhs = n y
                if definite(structure.leq(lhs, rhs)) is not True:
                    continue
                if definite(structure.leq(x, y)) is False:
                    return (x, y, n)
    return None


# ---------------------------------------------------------------------------
# Seeded models, invariants and morphisms


def random_k0model(
    rng: random.Random, max_rank: int = 3, max_traces: int = 3
) -> K0Model:
    """A lattice with strictly positive states normalized on a random unit."""
    rank = rng.randint(1, max_rank)
    n = rng.randint(1, max_traces)
    return shaped_k0model(rng, rank, n)


def shaped_k0model(rng: random.Random, rank: int, n: int) -> K0Model:
    """A lattice of the given rank with n strictly positive states,
    normalized on a random unit."""
    unit = tuple(rng.randint(1, 4) for _ in range(rank))
    rows = []
    for _ in range(n):
        weights = [Fraction(rng.randint(1, 6)) for _ in range(rank)]
        scale = sum(w * u for w, u in zip(weights, unit))
        rows.append(tuple(w / scale for w in weights))
    return K0Model(rank, tuple(rows), unit)


def random_wmodel(
    rng: random.Random, max_rank: int = 3, max_traces: int = 3
) -> WModel:
    return WModel(random_k0model(rng, max_rank, max_traces))


def random_invariant(
    rng: random.Random, max_rank: int = 3, max_traces: int = 3
) -> ElliottInvariant:
    k0 = random_k0model(rng, max_rank, max_traces)
    torsion_choices = ((), (2,), (3,), (2, 4))
    k1 = AbelianGroupData(rng.randint(0, 2), rng.choice(torsion_choices))
    return ElliottInvariant(k0, k1)


def random_collapse_morphism(
    rng: random.Random, source: WModel, target_traces: int
) -> WModelMorphism:
    """A trace-collapsing model morphism with identity on the lattice.

    Columns of gamma are random convex weights over the source traces, so
    the induced state matrix gamma^T R keeps the unit normalized and the
    compatibility square commutes by construction.
    """
    if target_traces < 1:
        raise ValueError("need at least one target trace")
    n_a = source.k0.trace_count
    columns = []
    for _ in range(target_traces):
        weights = [Fraction(rng.randint(1, 6)) for _ in range(n_a)]
        total = sum(weights)
        columns.append([w / total for w in weights])
    gamma = tuple(
        tuple(columns[j][i] for j in range(target_traces)) for i in range(n_a)
    )
    state_matrix = matmul(transpose(gamma), source.k0.state_matrix)
    target = WModel(K0Model(source.k0.rank, state_matrix, source.k0.unit))
    return WModelMorphism(source, target, identity(source.k0.rank), gamma)


# ---------------------------------------------------------------------------
# The sampling suites of ``check``, one draw at a time


def mixed_sign_model() -> WModel:
    """Two traces, one state row with a negative entry, so
    ``random_proj_class`` rejects some of its candidate vectors."""
    return WModel(K0Model(3, (("1/2", "1/4", "1/4"), ("1", "1/2", "-1/2")), (1, 1, 1)))


def reference_random_class(rng: random.Random, model: WModel) -> CuntzClass:
    """``sampling.random_class`` through ``random.Random``'s own ``randrange``
    and ``randint``, one value at a time."""
    if rng.random() < 0.5:
        for _ in range(32):
            v = tuple(rng.randrange(4) for _ in range(model.k0.rank))
            if model.k0.cone_member(v):
                return CuntzClass.proj(v)
        return CuntzClass.proj(model.k0.unit)
    return CuntzClass.soft(tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8))
                                 for _ in range(model.k0.trace_count)))


def reference_oracle_leq(x: CuntzClass, y: CuntzClass, sx, sy) -> bool:
    """``cli._oracle_leq`` with one generator per rule, on the trace vectors
    sx and sy of both sides."""
    if x.is_proj and y.is_proj:
        if x.values == y.values:
            return True
        return all(a < b for a, b in zip(sx, sy))
    if x.is_proj:  # strict rule
        if all(v == 0 for v in x.values):
            return True
        return all(s < f for s, f in zip(sx, sy))
    if y.is_proj:  # non-strict rule
        return all(f <= s for f, s in zip(sx, sy))
    return all(f <= g for f, g in zip(sx, sy))


def _reference_pool(model: WModel, rng: random.Random, count: int) -> list:
    return [model.zero_class, model.unit_class] + [
        reference_random_class(rng, model) for _ in range(count)
    ]


def reference_order_axioms(model: WModel, rng: random.Random, bound: int) -> dict:
    """``order-axioms`` drawing each pool index when it needs it and deciding
    every draw afresh, through ``cli.element_leq``."""
    pool = _reference_pool(model, rng, bound)
    _, elements = model.elements(pool)
    n = len(pool)

    def leq(i, j):
        return cli.element_leq(elements[i], elements[j])

    failures = []
    for i, x in enumerate(pool):
        if not leq(i, i):
            failures.append(f"not reflexive at {x!r}")
    for _ in range(400):
        i, j = rng.randrange(n), rng.randrange(n)
        if leq(i, j) and leq(j, i) and pool[i] != pool[j]:
            failures.append(f"antisymmetry: {pool[i]!r} vs {pool[j]!r}")
    for _ in range(1200):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if not leq(i, j):
            continue
        if leq(j, k) and not leq(i, k):
            failures.append(f"transitivity: {pool[i]!r}, {pool[j]!r}, {pool[k]!r}")
        sums = (model.element_sum(elements[i], elements[k]),
                model.element_sum(elements[j], elements[k]))
        if not cli.element_leq(*sums):
            failures.append(f"add-compatibility: {pool[i]!r}, {pool[j]!r}, {pool[k]!r}")
    return {"checked": n, "failures": failures}


def reference_strict_cone(model: WModel, rng: random.Random, bound: int) -> dict:
    """``strict-cone`` on the ``Fraction`` difference of the two images."""
    violations = []
    for _ in range(bound):
        x, y = reference_random_class(rng, model), reference_random_class(rng, model)
        d = vsub(model.gamma(x), model.gamma(y))
        in_cone = all_nonnegative(d)
        if not in_cone and model.compare(y, x):
            violations.append(rationals(d))
        elif in_cone and any(d) and all_nonnegative(vneg(d)):
            violations.append(rationals(d))
    return {"checked": bound, "failures": violations}


def reference_oracle_agreement(
    model: WModel, rng: random.Random, bound: int, oracle=reference_oracle_leq
) -> dict:
    """``oracle-agreement`` drawing each pool index when it needs it and
    deciding every draw afresh, ``cli.element_leq`` against ``oracle``, on
    the plain ``Fraction`` trace vectors: state matrix times payload for a
    projection, the values of a soft class."""
    pool = _reference_pool(model, rng, 30)
    _, elements = model.elements(pool)
    states = [matvec(model.k0.state_matrix, c.values) if c.is_proj else c.values
              for c in pool]
    n = len(pool)
    mismatches = []
    for _ in range(bound):
        i, j = rng.randrange(n), rng.randrange(n)
        leq = cli.element_leq(elements[i], elements[j])
        if leq != oracle(pool[i], pool[j], states[i], states[j]):
            mismatches.append([repr(pool[i]), repr(pool[j])])
    return {"checked": bound, "failures": mismatches}


# Rules broken so that each suite reports the classes it drew


def cut_order(x: tuple, y: tuple) -> bool:
    """The model order cut to y <= 2x: not transitive."""
    return element_leq(x, y) and all(b <= 2 * a for a, b in zip(x[1], y[1]))


def broken_gamma(gamma):
    """gamma doubled on soft classes and negated on projections."""

    def broken(self, x):
        image = gamma(self, x)
        return vscale(2, image) if x.is_soft else vneg(image)

    return broken


def lax_oracle(oracle):
    """The oracle with the non-strict rule for a projection below a soft class."""

    def lax(x, y, sx, sy):
        if x.is_proj and not y.is_proj:
            return all(s <= f for s, f in zip(sx, sy))
        return oracle(x, y, sx, sy)

    return lax


# ---------------------------------------------------------------------------
# Sets of [0, 1]


def contains(opens: OpenSet, x) -> bool:
    """Whether the open set holds the point x, endpoint flags included."""
    x = frac(x)
    for iv in opens.intervals:
        if iv.left < x < iv.right:
            return True
        if x == iv.left and iv.left_closed:
            return True
        if x == iv.right and iv.right_closed:
            return True
    return False


class ClosedSet(Frozen):
    """Finite union of closed intervals (points are degenerate intervals)."""

    __slots__ = ("intervals",)
    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals):
        pieces = sorted((frac(a), frac(b)) for a, b in intervals)
        for a, b in pieces:
            if not (0 <= a <= b <= 1):
                raise ValueError(f"bad closed piece [{a}, {b}]")
        merged: list[list[Fraction]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        object.__setattr__(self, "intervals", tuple((a, b) for a, b in merged))

    def contains(self, x) -> bool:
        x = frac(x)
        return any(a <= x <= b for a, b in self.intervals)


def range_pieces(f: PLFn) -> ClosedSet:
    """Closure of the set of values f attains."""
    segs = [
        (min(a, b), max(a, b)) for a, b in zip(f.values, f.values[1:])
    ]
    return ClosedSet(segs)


# ---------------------------------------------------------------------------
# Measures


class StepDensity(Frozen):
    """Piecewise-constant probability density on [0, 1]."""

    __slots__ = ("breakpoints", "densities")
    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __init__(self, breakpoints, densities):
        bp = vector(breakpoints)
        dens = vector(densities)
        if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
            raise ValueError("density breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("density breakpoints must strictly increase")
        if len(dens) != len(bp) - 1:
            raise ValueError("need one density per interval")
        if any(d < 0 for d in dens):
            raise ValueError("densities must be non-negative")
        total = sum(
            d * (b - a) for d, a, b in zip(dens, bp, bp[1:])
        )
        if total != 1:
            raise ValueError(f"density must integrate to 1, got {total}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "densities", dens)

    def cdf(self, t) -> Fraction:
        t = frac(t)
        if not 0 <= t <= 1:
            raise ValueError("argument outside [0, 1]")
        acc = Fraction(0)
        for d, a, b in zip(self.densities, self.breakpoints, self.breakpoints[1:]):
            if t <= a:
                break
            acc += d * (min(t, b) - a)
        return acc

    @property
    def everywhere_positive(self) -> bool:
        return all(d > 0 for d in self.densities)


class MeasureSpec(Frozen):
    """A probability measure: weighted continuous part plus finite atoms.

    The continuous part is ``lebesgue_weight`` times the (default uniform)
    ``density``; total mass must be exactly 1.  Calling it on an open set
    gives that set's ``measure``, so it can be the μ of ``goodearl.dim_fn``.
    """

    __slots__ = ("lebesgue_weight", "atoms", "density")
    lebesgue_weight: Fraction
    atoms: tuple[tuple[Fraction, Fraction], ...]
    density: StepDensity

    def __init__(self, lebesgue_weight, atoms=(), density=None):
        lw = frac(lebesgue_weight)
        if lw < 0:
            raise ValueError("lebesgue weight must be non-negative")
        ats = tuple((frac(p), frac(w)) for p, w in atoms)
        seen = set()
        for p, w in ats:
            if not 0 <= p <= 1:
                raise ValueError("atoms must sit in [0, 1]")
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if p in seen:
                raise ValueError("atom points must be distinct")
            seen.add(p)
        mass = lw + sum((w for _, w in ats), Fraction(0))
        if mass != 1:
            raise ValueError(f"total mass must be 1, got {mass}")
        object.__setattr__(self, "lebesgue_weight", lw)
        object.__setattr__(self, "atoms", ats)
        object.__setattr__(self, "density", density or StepDensity((0, 1), (1,)))

    def __call__(self, opens: OpenSet) -> Fraction:
        return measure(self, opens)

    @property
    def atom_free(self) -> bool:
        return not self.atoms

    @property
    def full_support(self) -> bool:
        return self.lebesgue_weight > 0 and self.density.everywhere_positive


def lebesgue() -> MeasureSpec:
    return MeasureSpec(1)


def point_mass(x) -> MeasureSpec:
    return MeasureSpec(0, ((x, 1),))


def measure(mu: MeasureSpec, opens: OpenSet) -> Fraction:
    """Exact measure of an open set; endpoint flags matter only to atoms."""
    total = Fraction(0)
    if mu.lebesgue_weight > 0:
        for iv in opens.intervals:
            right, left = mu.density.cdf(iv.right), mu.density.cdf(iv.left)
            total += mu.lebesgue_weight * (right - left)
    for p, w in mu.atoms:
        if contains(opens, p):
            total += w
    return total


# ---------------------------------------------------------------------------
# Cutdowns, spectra and the comparison lemma


def cutdown(a: DiagonalElement, eps) -> DiagonalElement:
    """Entrywise (g - eps) clamped at zero."""
    return DiagonalElement(a.size, tuple(e.minus_clamped(eps) for e in a.entries))


def spectrum(a: DiagonalElement) -> ClosedSet:
    """Closure of the union of attained entry values, together with 0."""
    pieces = [(Fraction(0), Fraction(0))]
    for e in a.entries:
        pieces.extend(range_pieces(e).intervals)
    return ClosedSet(pieces)


def comparison_lemma_check(a: DiagonalElement, eps, eta, delta, mu: MeasureSpec) -> bool:
    """Strict dimension drop across a spectral gap.

    Requires rationals 0 < eps < eta < delta, all in the spectrum of a, and
    an atom-free fully supported measure; then the cutdown at delta must
    have strictly smaller dimension than the cutdown at eps.  Violated
    preconditions raise, they do not return False.
    """
    eps, eta, delta = frac(eps), frac(eta), frac(delta)
    if not 0 < eps < eta < delta:
        raise ValueError("need 0 < eps < eta < delta")
    spec = spectrum(a)
    for name, value in (("eps", eps), ("eta", eta), ("delta", delta)):
        if not spec.contains(value):
            raise ValueError(f"{name} = {value} is not in the spectrum")
    if not mu.atom_free:
        raise ValueError("measure must be atom-free")
    if not mu.full_support:
        raise ValueError("measure must have full support")
    return dim_fn(cutdown(a, delta), mu) < dim_fn(cutdown(a, eps), mu)
