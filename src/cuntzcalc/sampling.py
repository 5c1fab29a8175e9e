"""Seeded random classes for the sampling suites of ``check``.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a single seed.  Denominators stay small on purpose: comparisons and
order-unit checks downstream rely on exact arithmetic, and soft
coordinates with numerator and denominator at most ``FRACTION_MAX`` = 8
are each at least 1/8.  The seeded models, invariants and morphisms that
only tests draw live in ``tests/support.py``.

Every integer the sampling suites draw (pool indices, and the coordinates
of ``random_class``) comes from ``draws``, which returns the next values of
``rng.randrange(n)`` as a list: ``choice``, ``randint`` and ``randrange``
all draw ``n.bit_length()`` random bits until the result is below n, and
so does ``draws``, in one loop per run of values, without their argument
checks and method layers.  The suites' reports name the classes they
drew, so a seed must keep drawing the same classes; ``draws`` keeps every
value and leaves the generator in the state the single draws would.  A
projection candidate is one run of ``rank`` coordinates.  A soft class is
one run of its numerator and denominator indices, numerator first, read
off a table of the 64 fractions built at import, so a soft coordinate
costs no ``Fraction`` construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .wmodel import CuntzClass, WModel


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def draws(rng: random.Random, n: int, count: int) -> list[int]:
    """The next ``count`` values of ``rng.randrange(n)``, for n >= 1, drawn
    the way ``random.Random`` draws them; ``rng`` ends in the state that
    ``count`` single draws leave."""
    if n < 1:
        raise ValueError(f"cannot draw below {n}: the range is empty")
    getrandbits, k = rng.getrandbits, n.bit_length()
    values = []
    for _ in range(count):
        while (r := getrandbits(k)) >= n:
            pass
        values.append(r)
    return values


# numerators and denominators of soft coordinates run over 1..FRACTION_MAX
FRACTION_MAX = 8

# _FRACTIONS[a][b] is Fraction(a + 1, b + 1)
_FRACTIONS = tuple(
    tuple(Fraction(a, b) for b in range(1, FRACTION_MAX + 1))
    for a in range(1, FRACTION_MAX + 1)
)


def random_soft_class(rng: random.Random, model: WModel) -> CuntzClass:
    """Coordinates ``Fraction(rng.randint(1, 8), rng.randint(1, 8))``, each
    numerator drawn before its denominator."""
    indices = iter(draws(rng, FRACTION_MAX, 2 * model.k0.trace_count))
    return CuntzClass.soft([_FRACTIONS[a][b] for a, b in zip(indices, indices)])


def random_proj_class(rng: random.Random, model: WModel) -> CuntzClass:
    """A projection class, found by rejection; the unit always qualifies."""
    rank = model.k0.rank
    for _ in range(32):
        v = tuple(draws(rng, 4, rank))
        if model.k0.cone_member(v):
            return CuntzClass.proj(v)
    return CuntzClass.proj(model.k0.unit)


def random_class(rng: random.Random, model: WModel) -> CuntzClass:
    if rng.random() < 0.5:
        return random_proj_class(rng, model)
    return random_soft_class(rng, model)
