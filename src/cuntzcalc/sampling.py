"""Seeded random generators for models, classes, and morphisms.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a single seed.  Denominators stay small on purpose: comparisons and
order-unit checks downstream rely on exact arithmetic, and profiles with
denominator at most 256 keep every strictly positive coordinate at least
1/256.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elliott import ElliottInvariant, WModelMorphism
from .linalg import identity, matmul, transpose
from .wmodel import CuntzClass, K0Model, TraceSimplex, WModel


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_fraction(
    rng: random.Random, max_num: int = 8, max_den: int = 8
) -> Fraction:
    """A strictly positive fraction with small numerator and denominator."""
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_k0model(
    rng: random.Random, max_rank: int = 3, max_traces: int = 3
) -> K0Model:
    """A lattice with strictly positive states normalized on a random unit."""
    rank = rng.randint(1, max_rank)
    n = rng.randint(1, max_traces)
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
    k0 = random_k0model(rng, max_rank, max_traces)
    return WModel(k0, TraceSimplex(k0.trace_count))


def random_soft_class(rng: random.Random, model: WModel) -> CuntzClass:
    n = model.traces.n
    return CuntzClass.soft(tuple(random_fraction(rng) for _ in range(n)))


def random_proj_class(rng: random.Random, model: WModel) -> CuntzClass:
    """A projection class, found by rejection; the unit always qualifies."""
    rank = model.k0.rank
    for _ in range(32):
        v = tuple(rng.randint(0, 3) for _ in range(rank))
        if model.k0.cone_member(v):
            return CuntzClass.proj(v)
    return CuntzClass.proj(model.k0.unit)


def random_class(rng: random.Random, model: WModel) -> CuntzClass:
    if rng.random() < 0.5:
        return random_proj_class(rng, model)
    return random_soft_class(rng, model)


def random_invariant(
    rng: random.Random, max_rank: int = 3, max_traces: int = 3
) -> ElliottInvariant:
    from .elliott import AbelianGroupData

    k0 = random_k0model(rng, max_rank, max_traces)
    torsion_choices = ((), (2,), (3,), (2, 4))
    k1 = AbelianGroupData(rng.randint(0, 2), rng.choice(torsion_choices))
    return ElliottInvariant(k0, k1, TraceSimplex(k0.trace_count))


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
    n_a = source.traces.n
    columns = []
    for _ in range(target_traces):
        weights = [Fraction(rng.randint(1, 6)) for _ in range(n_a)]
        total = sum(weights)
        columns.append([w / total for w in weights])
    gamma = tuple(
        tuple(columns[j][i] for j in range(target_traces)) for i in range(n_a)
    )
    state_matrix = matmul(transpose(gamma), source.k0.state_matrix)
    target_k0 = K0Model(source.k0.rank, state_matrix, source.k0.unit)
    target = WModel(target_k0, TraceSimplex(target_traces))
    return WModelMorphism(source, target, identity(source.k0.rank), gamma)
