"""``sampling.draws`` and ``random_soft_class`` draw the stream of
``random.Random``'s own draws.

The sampling suites' reports name the classes they drew, so a seed must
draw the same classes on every supported Python.  ``draws`` replaces
``choice``, ``randint`` and ``randrange`` in every integer draw; here it
runs next to them on two generators from one seed, interleaved with
``random()``, and must return every value they return and leave the same
state, whether it draws one value or a run of them.  ``random_soft_class``,
which reads a table, must likewise return the fractions of two
``randint(1, 8)`` draws per trace, and ``random_proj_class`` must fall
back to the unit after exactly its 32 rejected draws.  The body uses only
the standard library, so it also runs without pytest:
``PYTHONPATH=src python tests/test_sampling_stream.py``.
"""

import random
from fractions import Fraction

from cuntzcalc.sampling import draws, random_proj_class, random_soft_class
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel

SEEDS = range(40)
# every pool size up to 129, the powers of two and their neighbours where a
# draw switches bit counts, and the largest pool (--bound 100000 plus 2)
SIZES = (*range(1, 130), 255, 256, 257, 4096, 100_002)


def test_draws_reproduce_choice_and_randint():
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in SIZES:
            for _ in range(3):
                assert draws(ours, n, 1) == [theirs.choice(range(n))], (seed, n)
                assert 1 + draws(ours, n, 1)[0] == theirs.randint(1, n), (seed, n)
                assert draws(ours, n, 1) == [theirs.randint(0, n - 1)], (seed, n)
                assert ours.random() == theirs.random(), (seed, n)
        assert ours.getstate() == theirs.getstate(), seed


def test_one_run_of_draws_is_its_single_draws():
    # a run of k values is k single draws, and k randrange draws
    for seed in SEEDS:
        ours, singles, theirs = (random.Random(seed) for _ in range(3))
        for n in SIZES:
            for k in (2, 3, 8, 33):
                run = draws(ours, n, k)
                assert run == [draws(singles, n, 1)[0] for _ in range(k)], (seed, n, k)
                assert run == [theirs.randrange(n) for _ in range(k)], (seed, n, k)
                assert ours.random() == singles.random() == theirs.random(), (seed, n)
        assert ours.getstate() == singles.getstate() == theirs.getstate(), seed


def test_draws_of_no_values_draw_nothing():
    for seed in SEEDS:
        ours = random.Random(seed)
        state = ours.getstate()
        for n in SIZES:
            assert draws(ours, n, 0) == [], (seed, n)
        assert ours.getstate() == state, seed


def test_draws_refuse_an_empty_range():
    # getrandbits(0) is 0, which is never below 0: the rejection loop would
    # never end, so n < 1 is refused before any bit is drawn
    ours = random.Random(0)
    state = ours.getstate()
    for n in (0, -1, -100_002):
        for count in (0, 1, 5):
            try:
                draws(ours, n, count)
            except ValueError as error:
                assert str(error) == f"cannot draw below {n}: the range is empty"
            else:
                raise AssertionError(f"draws below {n} returned")
    assert ours.getstate() == state


def test_random_soft_class_reproduces_two_randints_per_trace():
    # random_soft_class reads a table of the 64 values; its draws and values
    # must be those of building each Fraction from two randints
    model = WModel(K0Model(1, (("1",), ("1",)), (1,)))  # two traces
    seen = set()
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(100):
            values = random_soft_class(ours, model).values
            assert all(type(q) is Fraction for q in values), seed
            # each numerator is drawn before its denominator
            assert values == tuple(
                Fraction(theirs.randint(1, 8), theirs.randint(1, 8)) for _ in range(2)
            ), seed
            assert ours.random() == theirs.random(), seed
            seen.update(values)
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
        theirs.randrange(4)
    assert ours.getstate() == theirs.getstate()


if __name__ == "__main__":
    test_draws_reproduce_choice_and_randint()
    test_one_run_of_draws_is_its_single_draws()
    test_draws_of_no_values_draw_nothing()
    test_draws_refuse_an_empty_range()
    test_random_soft_class_reproduces_two_randints_per_trace()
    test_random_proj_class_falls_back_to_the_unit()
    print("draws reproduce choice, randint and randrange in runs and alone, "
          "refuse an empty range, random_soft_class reproduces two randints "
          "per trace, and random_proj_class falls back after 32 draws")
