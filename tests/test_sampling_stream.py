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
back to the unit after exactly its 32 rejected draws.  A class table
passed to ``random_class`` must not change what is drawn, must hand a
repeated projection candidate back as the same object, keep no soft
class, and stop growing at ``TABLE_CAP`` entries.  The body uses only
the standard library, so it also runs without pytest:
``PYTHONPATH=src python tests/test_sampling_stream.py``.
"""

import random
from fractions import Fraction

from cuntzcalc import sampling
from cuntzcalc.sampling import (
    FRACTION_MAX,
    draws,
    random_class,
    random_proj_class,
    random_soft_class,
)
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


def _key(rng: random.Random, model: WModel):
    """The table key of ``random_class``'s next draw, drawn the same way: the
    accepted candidate's tuple, or the unit's after 32 rejections; None for
    a soft class, which the table does not keep."""
    if rng.random() < 0.5:
        for _ in range(32):
            v = tuple(draws(rng, 4, model.k0.rank))
            if model.k0.cone_member(v):
                return v
        return model.k0.unit
    draws(rng, FRACTION_MAX, 2 * model.k0.trace_count)
    return None


TABLE_MODELS = (
    # two traces and rank 1
    WModel(K0Model(1, (("1",), ("1",)), (1,))),
    # a negative state entry, so some candidates are rejected
    WModel(K0Model(3, (("1/2", "1/4", "1/4"), ("1", "1/2", "-1/2")), (1, 1, 1))),
    # every candidate but 0 rejected, so most projections are the unit fallback
    WModel(K0Model(3, tuple(tuple(-int(i == j) for j in range(3)) for i in range(3)),
                   (-1, -1, -1))),
)


def test_a_class_table_keeps_the_stream_and_makes_each_class_once():
    for model in TABLE_MODELS:
        for seed in SEEDS[:8]:
            tabled, plain, keys = (random.Random(seed) for _ in range(3))
            table, first = {}, {}
            for _ in range(200):
                x = random_class(tabled, model, table)
                assert x == random_class(plain, model), (model, seed)
                key = _key(keys, model)
                if key is None:  # a soft class is made afresh, never kept
                    assert x.is_soft and all(c is not x for c in table.values())
                else:
                    assert table[key] is x, (model, seed, key)
                    assert first.setdefault(key, x) is x, (model, seed, key)
            assert tabled.getstate() == plain.getstate() == keys.getstate(), (model, seed)
            # the table holds the drawn projections and False for each rejected candidate
            assert all(c is False or c in first.values() for c in table.values())
            assert set(first) <= set(table)


def test_a_full_class_table_takes_no_more_and_keeps_the_stream():
    cap = sampling.TABLE_CAP
    sampling.TABLE_CAP = 5
    try:
        for model in TABLE_MODELS:
            for seed in SEEDS[:8]:
                tabled, plain = random.Random(seed), random.Random(seed)
                table = {}
                for _ in range(200):
                    assert random_class(tabled, model, table) == random_class(plain, model)
                # the rank-1 model has only four candidates
                assert len(table) == min(5, 4**model.k0.rank), (model, seed)
                assert tabled.getstate() == plain.getstate(), (model, seed)
    finally:
        sampling.TABLE_CAP = cap


if __name__ == "__main__":
    test_draws_reproduce_choice_and_randint()
    test_one_run_of_draws_is_its_single_draws()
    test_draws_of_no_values_draw_nothing()
    test_draws_refuse_an_empty_range()
    test_random_soft_class_reproduces_two_randints_per_trace()
    test_random_proj_class_falls_back_to_the_unit()
    test_a_class_table_keeps_the_stream_and_makes_each_class_once()
    test_a_full_class_table_takes_no_more_and_keeps_the_stream()
    print("draws reproduce choice, randint and randrange in runs and alone, "
          "refuse an empty range, random_soft_class reproduces two randints "
          "per trace, random_proj_class falls back after 32 draws, and a "
          "class table keeps the stream, hands each projection out once "
          "and takes at most TABLE_CAP entries")
