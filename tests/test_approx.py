"""Dyadic staircases, summable decompositions, and projection suprema."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuntzcalc.approx import (
    first_stage,
    projection_sup_realization,
    summable_decomposition,
)
from cuntzcalc.goodearl import RealizationSchedule


def test_first_stage_waits_for_positivity():
    assert first_stage((1,)) == 1
    assert first_stage((Fraction(1, 3), 1)) == 3
    assert first_stage((4,)) == 0


def _first_stage_by_steps(f) -> int:
    """The stage-by-stage search that ``first_stage`` computes in closed form."""
    i = 0
    while any(math.floor((1 << i) * v) < 2 for v in f):
        i += 1
    return i


# numerators and denominators near powers of two, where the bit-length
# estimate is off by one
_near_powers = st.builds(lambda k, d: max(1, 2**k + d), st.integers(0, 40),
                         st.integers(-2, 2))
_sides = st.one_of(st.integers(1, 10**12), _near_powers)


@given(st.lists(st.builds(Fraction, _sides, _sides), min_size=1, max_size=4))
def test_first_stage_matches_the_stage_by_stage_search(f):
    assert first_stage(f) == _first_stage_by_steps(f)


def test_first_stage_rejects_bad_profiles():
    with pytest.raises(ValueError):
        first_stage(())
    with pytest.raises(ValueError):
        first_stage((1, 0))


def last_level(f, i):
    """Stage i of the dyadic staircase under f, the last one reported."""
    stage = summable_decomposition(f, i).stages[-1]
    assert stage.index == i
    return stage.level


def test_dyadic_stage_formula():
    assert last_level((1,), 2) == (Fraction(3, 4),)
    assert last_level((Fraction(1, 3), 1), 3) == (Fraction(1, 8), Fraction(7, 8))


def test_dyadic_stages_refuse_early_stages():
    with pytest.raises(ValueError):
        last_level((Fraction(1, 3), 1), 2)


def test_dyadic_gap_vanishes_for_dyadic_targets():
    for i in range(1, 8):
        (g,) = last_level((1,), i)
        assert 1 - g == Fraction(1, 2**i)


def positive_profiles():
    coords = st.builds(Fraction, st.integers(1, 12), st.integers(1, 8))
    return st.lists(coords, min_size=1, max_size=3).map(tuple)


@given(positive_profiles(), st.integers(-2, 12))
def test_dyadic_stages_refuse_exactly_the_stages_before_the_first(f, i):
    if i < first_stage(f):
        with pytest.raises(ValueError, match=f"need at least stage {first_stage(f)}"):
            last_level(f, i)
    else:
        assert min(last_level(f, i)) > 0


class TestSummableDecomposition:
    def test_telescoping_on_the_reference_target(self):
        report = summable_decomposition((1,), 5)
        levels = [s.level for s in report.stages]
        assert levels == [
            (Fraction(1, 2),),
            (Fraction(3, 4),),
            (Fraction(7, 8),),
            (Fraction(15, 16),),
            (Fraction(31, 32),),
        ]
        assert report.increment_norm_total == Fraction(31, 32)
        assert report.stages[-1].level == (Fraction(31, 32),)

    def test_rejects_stages_before_positivity(self):
        with pytest.raises(ValueError):
            summable_decomposition((Fraction(1, 3),), 2)

    @given(positive_profiles())
    def test_invariants(self, f):
        start = first_stage(f)
        report = summable_decomposition(f, start + 5)
        prev = None
        for stage in report.stages:
            # every level is strictly positive and strictly below the target
            assert all(v > 0 for v in stage.level)
            assert all(g < v for g, v in zip(stage.level, f))
            assert stage.sup_gap <= Fraction(2, 2**stage.index)
            if prev is None:
                assert stage.increment == stage.level
            else:
                assert stage.level == tuple(
                    a + b for a, b in zip(prev, stage.increment)
                )
                step = Fraction(1, 2**stage.index)
                assert all(h >= step for h in stage.increment)
            prev = stage.level
        assert report.increment_norm_total <= max(f) + 2


class TestProjectionSupRealization:
    def test_dyadic_chain_on_the_unit_target(self):
        spec = RealizationSchedule((2, 4, 8))
        stages = projection_sup_realization((1,), spec, 3)
        assert stages == (
            (Fraction(1, 2),),
            (Fraction(3, 4),),
            (Fraction(7, 8),),
        )

    def test_grid_value_steps_one_notch_down(self):
        # a coordinate already on the grid stays strictly below itself
        spec = RealizationSchedule((4,))
        assert projection_sup_realization((Fraction(3, 4),), spec, 1) == (
            (Fraction(1, 2),),
        )

    def test_values_above_one_are_fine(self):
        spec = RealizationSchedule((2,))
        assert projection_sup_realization((Fraction(3, 2),), spec, 1) == (
            (Fraction(1),),
        )

    def test_stage_bounds(self):
        spec = RealizationSchedule((2, 4))
        with pytest.raises(ValueError):
            projection_sup_realization((1,), spec, 3)
        with pytest.raises(ValueError):
            projection_sup_realization((1,), spec, 0)

    @given(positive_profiles(), st.integers(1, 4))
    def test_invariants(self, f, depth):
        spec = RealizationSchedule(tuple(3 * 2**i for i in range(depth)))
        stages = projection_sup_realization(f, spec, depth)
        prev = None
        for i, stage in enumerate(stages):
            m = spec.sizes[i]
            assert all(v * m == int(v * m) for v in stage)
            assert all(p < v for p, v in zip(stage, f))
            assert all(v - p <= Fraction(2, m) for p, v in zip(stage, f))
            if prev is not None:
                assert all(a >= b for a, b in zip(stage, prev))
            prev = stage


def test_stages_rise_on_random_divisibility_chains():
    # no stage is clamped by the one before it: on a chain m | m' the stage
    # (ceil(m·v) - 1)/m never lies above (ceil(m'·v) - 1)/m'
    rng = random.Random(3)
    for _ in range(2_000):
        dens = [rng.randint(1, 12)]
        for _ in range(rng.randint(0, 5)):
            dens.append(dens[-1] * rng.randint(2, 7))
        f = tuple(Fraction(rng.randint(1, 400), rng.randint(1, 97))
                  for _ in range(rng.randint(1, 4)))
        stages = projection_sup_realization(f, RealizationSchedule(dens), len(dens))
        for m, stage, prev in zip(dens[1:], stages[1:], stages):
            assert all(a >= b for a, b in zip(stage, prev)), (f, dens)
            assert all(v - p <= Fraction(2, m) for p, v in zip(stage, f))


def test_denominator_chain_validation():
    RealizationSchedule((2, 4, 8))
    RealizationSchedule((1, 5, 10))
    for chain in ((), (2, 3), (4, 2), (0,)):
        with pytest.raises(ValueError, match="^schedule "):
            RealizationSchedule(chain)
    # the 2^30 cap is the denominators document's, not the chain's
    assert RealizationSchedule((2, 2**31)).sizes == (2, 2**31)
