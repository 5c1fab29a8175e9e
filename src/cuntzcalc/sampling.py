"""Seeded random classes for the sampling suites of ``check``.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a single seed.  Denominators stay small on purpose: comparisons and
order-unit checks downstream rely on exact arithmetic, and soft
coordinates with numerator and denominator at most ``FRACTION_MAX`` = 8
are each at least 1/8.  The seeded models, invariants and morphisms that
only tests draw live in ``tests/support.py``.

The draws the sampling suites make per sample (pool indices, and the
coordinates of ``random_class``) go through ``randbelow``, which
reproduces the stream of ``rng.randrange(n)``: ``choice``, ``randint`` and
``randrange`` all draw ``n.bit_length()`` random bits until the result is
below n, and so does ``randbelow``, without their argument checks and
method layers.  The suites' reports name the classes they drew, so a seed
must keep drawing the same classes; ``randbelow`` keeps every draw as it
was, at less than half the cost of a ``choice``.  ``random_fraction``
makes its two draws the same way and reads the fraction off a table of
the 64 values built at import, so a soft coordinate costs no ``Fraction``
construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .wmodel import CuntzClass, WModel


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


# numerators and denominators of random_fraction run over 1..FRACTION_MAX
FRACTION_MAX = 8

# _FRACTIONS[a][b] is Fraction(a + 1, b + 1)
_FRACTIONS = tuple(
    tuple(Fraction(a, b) for b in range(1, FRACTION_MAX + 1))
    for a in range(1, FRACTION_MAX + 1)
)


def random_fraction(rng: random.Random) -> Fraction:
    """A strictly positive fraction with small numerator and denominator:
    ``Fraction(rng.randint(1, 8), rng.randint(1, 8))``, numerator drawn first."""
    return _FRACTIONS[randbelow(rng, FRACTION_MAX)][randbelow(rng, FRACTION_MAX)]


def random_soft_class(rng: random.Random, model: WModel) -> CuntzClass:
    n = model.k0.trace_count
    return CuntzClass.soft([random_fraction(rng) for _ in range(n)])


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
