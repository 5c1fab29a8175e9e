"""``sampling.randbelow`` draws the stream of ``random.Random``'s own draws.

The sampling suites' reports name the classes they drew, so a seed must
draw the same classes on every supported Python.  ``randbelow`` replaces
``choice``, ``randint`` and ``randrange`` in the hot draws; here it runs
next to them on two generators from one seed, interleaved with
``random()``, and must return every value they return and leave the same
state.  The body uses only the standard library, so it also runs without
pytest: ``PYTHONPATH=src python tests/test_sampling_stream.py``.
"""

import random

from cuntzcalc.sampling import randbelow

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


if __name__ == "__main__":
    test_randbelow_reproduces_choice_and_randint()
    print("randbelow reproduces choice and randint")
