"""Seeded random generators for models, classes, and morphisms.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a single seed.  Denominators stay small on purpose: comparisons and
order-unit checks downstream rely on exact arithmetic, and profiles with
denominator at most 256 keep every strictly positive coordinate at least
1/256.

The draws the sampling suites make per sample (pool indices, and the
coordinates of ``random_class``) go through ``randbelow``, which
reproduces the stream of ``rng.randrange(n)``: ``choice``, ``randint`` and
``randrange`` all draw ``n.bit_length()`` random bits until the result is
below n, and so does ``randbelow``, without their argument checks and
method layers.  The suites' reports name the classes they drew, so a seed
must keep drawing the same classes; ``randbelow`` keeps every draw as it
was, at less than half the cost of a ``choice``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elliott import ElliottInvariant, WModelMorphism
from .linalg import identity, matmul, transpose
from .wmodel import CuntzClass, K0Model, WModel


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, drawn the way ``random.Random`` draws it.

    The same value from the same state as ``rng.choice(range(n))`` and
    ``rng.randint(0, n - 1)``; one plus it is ``rng.randint(1, n)``.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_fraction(
    rng: random.Random, max_num: int = 8, max_den: int = 8
) -> Fraction:
    """A strictly positive fraction with small numerator and denominator."""
    return Fraction(1 + randbelow(rng, max_num), 1 + randbelow(rng, max_den))


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
    return WModel(random_k0model(rng, max_rank, max_traces))


def random_soft_class(rng: random.Random, model: WModel) -> CuntzClass:
    n = model.k0.trace_count
    return CuntzClass.soft(tuple(random_fraction(rng) for _ in range(n)))


def random_proj_class(rng: random.Random, model: WModel) -> CuntzClass:
    """A projection class, found by rejection; the unit always qualifies."""
    rank = model.k0.rank
    for _ in range(32):
        v = tuple([randbelow(rng, 4) for _ in range(rank)])
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
