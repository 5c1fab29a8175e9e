"""``sampling.randbelow`` and ``random_fraction`` draw the stream of
``random.Random``'s own draws.

The sampling suites' reports name the classes they drew, so a seed must
draw the same classes on every supported Python.  ``randbelow`` replaces
``choice``, ``randint`` and ``randrange`` in the hot draws; here it runs
next to them on two generators from one seed, interleaved with
``random()``, and must return every value they return and leave the same
state.  ``random_fraction``, which reads a table, must likewise return
the fraction of two ``randint(1, 8)`` draws, and ``random_proj_class``
must fall back to the unit after exactly its 32 rejected draws.  The body
uses only the standard library, so it also runs without pytest:
``PYTHONPATH=src python tests/test_sampling_stream.py``.
"""

import random
from fractions import Fraction

from cuntzcalc.sampling import random_fraction, random_proj_class, randbelow
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel

SEEDS = range(40)
# every pool size up to 129, the powers of two and their neighbours where a
# draw switches bit counts, and the largest pool (--bound 100000 plus 2)
SIZES = (*range(1, 130), 255, 256, 257, 4096, 100_002)


def test_randbelow_reproduces_choice_and_randint():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in SIZES:
            for _ in range(3):
                assert randbelow(ours, n) == theirs.choice(range(n)), (seed, n)
                assert 1 + randbelow(ours, n) == theirs.randint(1, n), (seed, n)
                assert randbelow(ours, n) == theirs.randint(0, n - 1), (seed, n)
                assert ours.random() == theirs.random(), (seed, n)
        assert ours.getstate() == theirs.getstate(), seed


def test_random_fraction_reproduces_two_randints():
    # random_fraction reads a table of the 64 values; its draws and values
    # must be those of building the Fraction from two randints
    seen = set()
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(200):
            q = random_fraction(ours)
            assert type(q) is Fraction, seed
            # the numerator is drawn first
            assert q == Fraction(theirs.randint(1, 8), theirs.randint(1, 8)), seed
            assert ours.random() == theirs.random(), seed
            seen.add(q)
        assert ours.getstate() == theirs.getstate(), seed
    assert seen == {Fraction(a, b) for a in range(1, 9) for b in range(1, 9)}


def test_random_proj_class_falls_back_to_the_unit():
    # the states -I put the unit (-1, ..., -1) in the cone, which meets the
    # draws {0, ..., 3}^6 only at 0; no draw of seed 0 is 0, so all 32 are
    # rejected and the unit comes back
    rank = 6
    rows = [tuple(-int(i == j) for j in range(rank)) for i in range(rank)]
    model = WModel(K0Model(rank, rows, (-1,) * rank))
    ours, theirs = random.Random(0), random.Random(0)
    assert random_proj_class(ours, model) == CuntzClass.proj(model.k0.unit)
    for _ in range(32 * rank):
        randbelow(theirs, 4)
    assert ours.getstate() == theirs.getstate()


if __name__ == "__main__":
    test_randbelow_reproduces_choice_and_randint()
    test_random_fraction_reproduces_two_randints()
    test_random_proj_class_falls_back_to_the_unit()
    print("randbelow and random_fraction reproduce choice and randint, and "
          "random_proj_class falls back after 32 draws")
