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

A suite passes one class table to all its projection draws.  The table
keeps the class of each projection candidate (or ``False`` when the cone
rejects it), keyed by the candidate's tuple, and the unit that a draw
falls back to after 32 rejections, keyed by the unit's tuple.  Each
candidate is tested and its class made once per table, every value is
still drawn, and a repeated projection comes back as the same object.  A
soft class is made afresh on every draw: it costs one table read per
coordinate, and its index runs, 64^n of them at n traces, rarely repeat,
so keeping them would cost more than it saves.  The table takes at most
``TABLE_CAP`` entries; past that, a candidate it does not hold is tested
and made afresh, so that a large ``--bound`` keeps its memory bounded.
Without a table each call starts an empty one.
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


# Most entries a class table, or a memo that a suite keys by its classes,
# takes: more than the 4^4 candidates of a rank-4 model; strict-cone at
# --bound 100000 on eight traces holds about 1.4 MB more than without them.
TABLE_CAP = 1024


def keep(table: dict, key, x):
    """x, kept in the table under key while it has fewer than ``TABLE_CAP``
    entries."""
    if len(table) < TABLE_CAP:
        table[key] = x
    return x


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


def random_proj_class(rng: random.Random, model: WModel, table=None) -> CuntzClass:
    """A projection class, found by rejection; the unit always qualifies."""
    table = {} if table is None else table
    k0 = model.k0
    for _ in range(32):
        v = tuple(draws(rng, 4, k0.rank))
        if (x := table.get(v)) is None:
            x = keep(table, v, k0.cone_member(v) and CuntzClass.proj(v))
        if x:
            return x
    # the unit lies in the cone, so a candidate equal to it keys the same class
    return table.get(k0.unit) or keep(table, k0.unit, CuntzClass.proj(k0.unit))


def random_class(rng: random.Random, model: WModel, table=None) -> CuntzClass:
    if rng.random() < 0.5:
        return random_proj_class(rng, model, table)
    return random_soft_class(rng, model)
