"""Diagonal elements over C[0,1]: exact cozero sets, dimension values,
and the stagewise realization of step targets."""

import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from support import (
    ClosedSet,
    MeasureSpec,
    StepDensity,
    comparison_lemma_check,
    contains,
    cutdown,
    lebesgue,
    measure,
    point_mass,
    range_pieces,
    spectrum,
    w_of_z,
)

from cuntzcalc import goodearl
from cuntzcalc.goodearl import (
    DiagonalElement,
    Iv,
    OpenSet,
    PLFn,
    RealizationResult,
    RealizationSchedule,
    RealizationStage,
    StepFn,
    _merge_slots,
    bump_on,
    dim_fn,
    dim_profile,
    dimension_discrepancies,
    realize,
    step_approximant,
    step_witnesses,
    superlevel,
)
from cuntzcalc.wmodel import CuntzClass, K0Model, WModel


def fr(x) -> Fraction:
    return Fraction(x)


def full_tent(height=1) -> PLFn:
    return PLFn((0, "1/2", 1), (0, height, 0))


def left_tent(lam, height=1) -> PLFn:
    """Supported on (0, lam); degenerates to the full tent at lam = 1."""
    lam = Fraction(lam)
    if lam == 1:
        return full_tent(height)
    return PLFn((0, lam / 2, lam, 1), (0, height, 0, 0))


def constant_step(c) -> StepFn:
    return StepFn((0, 1), (c,), (c, c))


def two_level() -> StepFn:
    return StepFn((0, "1/2", 1), ("1/2", 1), ("1/2", "1/2", 1))


GRID_12 = [Fraction(j, 12) for j in range(13)]


# ---------------------------------------------------------------------------
# interval sets


class TestOpenSet:
    def test_validation(self):
        OpenSet(((0, "1/2", False, False), ("1/2", 1, False, False)))
        with pytest.raises(ValueError, match="bad interval"):
            OpenSet((("1/2", "1/4", False, False),))
        with pytest.raises(ValueError, match="sorted and disjoint"):
            OpenSet(((0, "1/2", False, False), ("1/4", 1, False, False)))
        with pytest.raises(ValueError, match="left endpoint may be included only at 0"):
            OpenSet((("1/4", "1/2", True, False),))
        with pytest.raises(ValueError, match="right endpoint may be included only at 1"):
            OpenSet((("1/4", "1/2", False, True),))

    def test_validation_at_the_boundaries(self):
        # touching intervals, the shared end written two ways, are accepted
        touching = OpenSet(((0, "1/3", True, False), ("2/6", 1, False, True)))
        assert touching.intervals[0].right == touching.intervals[1].left == fr("1/3")
        with pytest.raises(ValueError, match="sorted and disjoint"):
            OpenSet(((0, f"{10**17 + 1}/{3 * 10**17}", False, False), ("1/3", 1, False, False)))
        with pytest.raises(ValueError, match="bad interval"):
            OpenSet(((f"-1/{10**17 + 3}", "1/2", False, False),))
        with pytest.raises(ValueError, match="bad interval"):
            OpenSet((("1/2", f"{10**17 + 1}/{10**17}", False, False),))
        with pytest.raises(ValueError, match="bad interval"):
            OpenSet((("1/2", "2/4", False, False),))  # empty: the ends are equal
        OpenSet(((f"1/{10**17}", f"{10**17 - 1}/{10**17}", False, False),))
        with pytest.raises(ValueError, match="right endpoint may be included only at 1"):
            OpenSet((("1/2", f"{10**17 - 1}/{10**17}", False, True),))
        OpenSet((("1/2", "99991/99991", False, True),))

    def test_contains_honours_endpoint_flags(self):
        o = OpenSet((("1/2", 1, False, True),))
        assert contains(o, "3/4")
        assert contains(o, 1)
        assert not contains(o, "1/2")

    def test_total_length(self):
        # the total length of an open set is its Lebesgue measure
        o = OpenSet(((0, "1/4", True, False), ("1/2", 1, False, True)))
        assert measure(lebesgue(), o) == fr("3/4")
        assert measure(lebesgue(), OpenSet(())) == 0
        assert not OpenSet(()).intervals


class TestClosedSet:
    def test_merging(self):
        c = ClosedSet((("1/4", "3/4"), (0, "1/2")))
        assert c.intervals == ((fr(0), fr("3/4")),)
        touching = ClosedSet(((0, "1/2"), ("1/2", "1/2")))
        assert touching.intervals == ((fr(0), fr("1/2")),)

    def test_contains(self):
        c = ClosedSet((("3/4", "3/4"),))
        assert c.contains("3/4")
        assert not c.contains("1/2")


# ---------------------------------------------------------------------------
# piecewise-linear functions


class TestPLFn:
    def test_validation(self):
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            PLFn((0, "1/2"), (0, 1))  # must end at 1
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            PLFn(("1/4", 1), (0, 1))
        with pytest.raises(ValueError, match="non-negative"):
            PLFn((0, 1), (0, -1))
        with pytest.raises(ValueError, match="strictly increase"):
            PLFn((0, "1/2", "1/2", 1), (0, 1, 1, 0))

    def test_validation_at_the_boundaries(self):
        with pytest.raises(ValueError, match="strictly increase"):
            PLFn((0, "1/2", "2/4", 1), (0, 1, 1, 0))  # equal, written two ways
        with pytest.raises(ValueError, match="strictly increase"):
            PLFn((0, "1/2", f"{10**17 - 1}/{2 * 10**17}", 1), (0, 1, 1, 0))
        with pytest.raises(ValueError, match="non-negative"):
            PLFn((0, "1/2", 1), (0, f"-1/{10**17 + 3}", 0))
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            PLFn((0, f"{10**17 + 1}/{10**17}"), (0, 0))
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            PLFn((f"1/{10**17}", 1), (0, 0))
        with pytest.raises(ValueError, match="matching breakpoints and values"):
            PLFn((0, 1), (0,))
        g = PLFn(("0/5", "1/99991", "99990/99991", "7/7"), (0, "-0/3", 1, 0))
        assert g.breakpoints == (0, fr("1/99991"), fr("99990/99991"), 1)
        assert g.values == (0, 0, 1, 0)

    def test_interpolation(self):
        g = full_tent()
        assert g(0) == 0
        assert g("1/4") == fr("1/2")
        assert g("1/2") == 1
        assert g("7/8") == fr("1/4")
        with pytest.raises(ValueError, match="outside"):
            g(2)

    def test_constant_and_zero(self):
        assert PLFn.constant("1/3")("2/3") == fr("1/3")
        assert not any(PLFn.zero().values)
        assert max(full_tent().values) == 1

    def test_pointwise_max_inserts_the_crossing(self):
        ramp = PLFn((0, 1), (0, 1))
        h = ramp.pointwise_max(PLFn.constant("1/2"))
        assert fr("1/2") in h.breakpoints
        assert h(0) == fr("1/2")
        assert h("1/4") == fr("1/2")
        assert h("3/4") == fr("3/4")

    def test_minus_clamped_keeps_exact_roots(self):
        g = full_tent().minus_clamped("1/2")
        assert g("1/8") == 0
        assert g("3/8") == fr("1/4")
        assert g("1/2") == fr("1/2")
        assert g("7/8") == 0
        assert g.cozero().intervals == (Iv(fr("1/4"), fr("3/4"), False, False),)

    def test_cozero_of_simple_shapes(self):
        assert not PLFn.zero().cozero().intervals
        assert PLFn.constant(1).cozero().intervals == (Iv(fr(0), fr(1), True, True),)
        rising = PLFn((0, "1/2", 1), (0, 0, 1))
        assert rising.cozero().intervals == (Iv(fr("1/2"), fr(1), False, True),)

    def test_cozero_splits_at_an_interior_zero(self):
        dip = PLFn((0, "1/2", 1), (1, 0, 1))
        assert dip.cozero().intervals == (
            Iv(fr(0), fr("1/2"), True, False),
            Iv(fr("1/2"), fr(1), False, True),
        )

    def test_range_pieces(self):
        assert range_pieces(full_tent()).intervals == ((fr(0), fr(1)),)
        assert range_pieces(PLFn.constant(1)).intervals == ((fr(1), fr(1)),)


def random_plfn(rng: random.Random) -> PLFn:
    """Random breakpoints over mixed denominators; zero stretches are common."""
    den = rng.choice((4, 6, 7, 12))
    count = rng.randint(0, 4)
    inner = sorted({Fraction(rng.randint(1, den - 1), den) for _ in range(count)})
    points = (Fraction(0), *inner, Fraction(1))
    values = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in points]
    return PLFn(points, values)


def crossing_points(g: PLFn, h: PLFn, grid) -> list[Fraction]:
    out = []
    for p, q in zip(grid, grid[1:]):
        d0, d1 = g(p) - h(p), g(q) - h(q)
        if (d0 > 0 > d1) or (d0 < 0 < d1):
            out.append(p + (q - p) * d0 / (d0 - d1))
    return out


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: full_tent().minus_clamped(Fraction(-1, 2)), ValueError,
         "eps must be non-negative"),
        (lambda: two_level()(Fraction(3, 2)), ValueError, r"argument outside \[0, 1\]"),
        (lambda: two_level()(-1), ValueError, r"argument outside \[0, 1\]"),
        (lambda: step_approximant(two_level(), 0), ValueError, "grid size must be positive"),
        (lambda: DiagonalElement(1, [object()]), TypeError,
         "entries must be piecewise-linear functions"),
    ],
    ids=["minus-clamped-negative-eps", "step-at-3/2", "step-at-minus-1",
         "approximant-grid-0", "diagonal-non-plfn-entry"],
)
def test_bad_arguments_are_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_evaluation_reads_breakpoints_and_interpolates_between():
    rng = random.Random(604)
    for _ in range(200):
        g = random_plfn(rng)
        bp, vals = g.breakpoints, g.values
        assert [g(x) for x in bp] == list(vals)
        for x in {Fraction(rng.randint(0, 83), 83) for _ in range(6)} - set(bp):
            k = next(k for k in range(1, len(bp)) if x < bp[k])
            slope = (vals[k] - vals[k - 1]) / (bp[k] - bp[k - 1])
            assert g(x) == vals[k - 1] + slope * (x - bp[k - 1])
    g = full_tent()
    assert [g(x) for x in (0, "1/4", "1/2", "3/4", 1)] == [0, fr("1/2"), 1, fr("1/2"), 0]
    with pytest.raises(ValueError, match="outside"):
        g(fr(2))


def _assert_max_matches_the_reference(g: PLFn, h: PLFn) -> None:
    grid = sorted(set(g.breakpoints) | set(h.breakpoints))
    pts = sorted(set(grid) | set(crossing_points(g, h, grid)))
    m = g.pointwise_max(h)
    assert m.breakpoints == tuple(pts)
    assert m.values == tuple(max(g(x), h(x)) for x in pts)


def _assert_cut_matches_the_reference(g: PLFn, eps: Fraction) -> None:
    roots = crossing_points(g, PLFn.constant(eps), g.breakpoints)
    cut_pts = sorted(set(g.breakpoints) | set(roots))
    cut = g.minus_clamped(eps)
    assert cut.breakpoints == tuple(cut_pts)
    assert cut.values == tuple(max(g(x) - eps, fr(0)) for x in cut_pts)


def test_swept_operations_match_the_pointwise_reference():
    rng = random.Random(605)
    for _ in range(150):
        g, h = random_plfn(rng), random_plfn(rng)
        _assert_max_matches_the_reference(g, h)
        # every breakpoint shared, the same function twice, an equal copy, and
        # a constant at one of g's values, which meets g at a breakpoint
        level = rng.choice(g.values)
        others = (
            PLFn(g.breakpoints, [fr(rng.randint(0, 3)) / rng.randint(1, 4) for _ in g.values]),
            g,
            PLFn(g.breakpoints, g.values),
            PLFn.constant(level),
        )
        for other in others:
            _assert_max_matches_the_reference(g, other)
            _assert_max_matches_the_reference(other, g)
        _assert_cut_matches_the_reference(g, Fraction(rng.randint(0, 4), rng.randint(1, 4)))
        _assert_cut_matches_the_reference(g, level)
    # touching at a breakpoint without crossing: from above at a valley of g,
    # where h is interpolated or constant, and from below at a peak
    valley = PLFn((0, "1/3", 1), (1, "1/3", 1))
    peak = PLFn((0, "1/2", 1), (0, "1/2", 0))
    touching = (
        (valley, PLFn((0, 1), ("1/4", "1/2"))),
        (valley, PLFn.constant("1/3")),
        (peak, PLFn((0, "1/2", 1), ("1/4", "1/2", "1/4"))),
    )
    for g, h in touching:
        for a, b in ((g, h), (h, g)):
            _assert_max_matches_the_reference(a, b)
            m = a.pointwise_max(b)
            assert m.breakpoints == tuple(sorted(set(a.breakpoints) | set(b.breakpoints)))


# ---------------------------------------------------------------------------
# step functions and their approximants


class TestStepFn:
    def test_lower_semicontinuity_is_enforced(self):
        with pytest.raises(ValueError, match="not lower semicontinuous at 1/2: point value 1 "):
            StepFn((0, "1/2", 1), ("1/2", 1), ("1/2", 1, 1))
        two_level()  # the lsc version constructs fine

    def test_validation_at_the_boundaries(self):
        tiny = f"1/{10**17}"
        above = f"{5 * 10**16 + 1}/{10**17}"  # 1/2 + 10^-17
        # a break at the first partition point and at the last
        with pytest.raises(ValueError, match=f"not lower semicontinuous at 0: point value {above} "):
            StepFn((0, "1/2", 1), ("1/2", "3/4"), (above, "1/2", "3/4"))
        with pytest.raises(ValueError, match=f"not lower semicontinuous at 1: point value {tiny} "):
            StepFn((0, "1/2", 1), ("1/2", 0), (0, 0, tiny))
        # a point value equal to its neighbour, written another way, is accepted
        f = StepFn((0, "1/2", 1), ("1/2", "3/4"), ("2/4", "50000/100000", "6/8"))
        assert f.point_values == (fr("1/2"), fr("1/2"), fr("3/4"))
        with pytest.raises(ValueError, match="partition must strictly increase"):
            StepFn((0, "1/3", "2/6", 1), (0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="partition must run from 0 to 1"):
            StepFn((0, f"{10**17 + 1}/{10**17}"), (0,), (0, 0))
        with pytest.raises(ValueError, match="partition must run from 0 to 1"):
            StepFn((0,), (), (0,))
        with pytest.raises(ValueError, match="values must be non-negative"):
            StepFn((0, 1), (f"-1/{10**17 + 3}",), (0, 0))
        with pytest.raises(ValueError, match="values must be non-negative"):
            StepFn((0, 1), (0,), (0, f"-1/{10**17 + 3}"))
        with pytest.raises(ValueError, match="value counts do not match"):
            StepFn((0, 1), (0, 0), (0, 0))

    def test_evaluation(self):
        f = two_level()
        assert f(0) == fr("1/2")
        assert f("1/4") == fr("1/2")
        assert f("1/2") == fr("1/2")
        assert f("3/4") == 1
        assert f(1) == 1
        for x in ("-1/2", "3/2"):
            with pytest.raises(ValueError, match=r"argument outside \[0, 1\]"):
                f(x)


# superlevel sets {f > q}: the complements of the sublevel sets {f <= q}


def test_complement_of_the_empty_set_is_everything():
    full = superlevel(constant_step(1), "1/2")
    assert full.intervals == (Iv(fr(0), fr(1), True, True),)


def test_complement_around_a_point():
    dip = StepFn((0, "1/2", 1), (1, 1), (1, 0, 1))
    assert superlevel(dip, "1/2").intervals == (
        Iv(fr(0), fr("1/2"), True, False),
        Iv(fr("1/2"), fr(1), False, True),
    )


def test_complement_of_everything_is_empty():
    assert not superlevel(constant_step("1/2"), "1/2").intervals


def test_complement_of_a_left_closed_piece():
    ramp = StepFn((0, "1/2", 1), (0, 1), (0, 0, 1))
    assert superlevel(ramp, 0).intervals == (Iv(fr("1/2"), fr(1), False, True),)


class TestSuperlevel:
    def test_everything_and_nothing(self):
        f = two_level()
        assert not superlevel(f, 1).intervals
        assert superlevel(f, "1/4").intervals == (Iv(fr(0), fr(1), True, True),)

    def test_two_level_split(self):
        assert superlevel(two_level(), "1/2").intervals == (
            Iv(fr("1/2"), fr(1), False, True),
        )


def random_lsc_step(rng: random.Random) -> StepFn:
    """Lower semicontinuous with repeated levels and dropped point values."""
    den = rng.choice((3, 4, 12))
    count = rng.randint(0, 4)
    cuts = sorted({Fraction(rng.randint(1, den - 1), den) for _ in range(count)})
    part = (fr(0), *cuts, fr(1))
    levels = [Fraction(rng.randint(0, 4), 4) for _ in range(3)]
    ivals = [rng.choice(levels) for _ in range(len(part) - 1)]
    pvals = []
    for i in range(len(part)):
        top = min(ivals[j] for j in (i - 1, i) if 0 <= j < len(ivals))
        low = [v for v in levels if v <= top]
        pvals.append(top if rng.random() < 0.6 else rng.choice(low))
    return StepFn(part, ivals, pvals)


def test_superlevel_holds_exactly_where_f_exceeds_q():
    rng = random.Random(818)
    for _ in range(300):
        f = random_lsc_step(rng)
        part = f.partition
        points = list(part) + [(a + b) / 2 for a, b in zip(part, part[1:])]
        levels = set(f.interval_values) | set(f.point_values)
        for q in levels | {Fraction(rng.randint(-1, 9), 8) for _ in range(3)}:
            opens = superlevel(f, q)
            for x in points:
                assert contains(opens, x) == (f(x) > q)


def test_cozero_is_the_superlevel_set_of_its_flags():
    # PLFn.cozero and superlevel read their flags through one walk: g is 1 on
    # a piece where f is positive at either end and 1 at a point where f is
    # positive, so {g > 0} is where f is positive
    rng = random.Random(2706)
    shapes = Counter()
    for _ in range(2000):
        inner = sorted(rng.sample(range(1, 24), rng.randint(0, 6)))
        bp = [0, *(Fraction(x, 24) for x in inner), 1]
        values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) if rng.random() < 0.6
                  else Fraction(0) for _ in bp]
        f = PLFn(bp, values)
        pos = [v > 0 for v in values]
        g = StepFn(bp, [int(a or b) for a, b in zip(pos, pos[1:])], list(map(int, pos)))
        opens = f.cozero()
        assert opens == superlevel(g, 0), f
        shapes[len(opens.intervals)] += 1
        shapes["interior zero"] += any(not p for p in pos[1:-1])
    # empty, one-piece and split cozero sets all occur
    assert shapes[0] and shapes[1] and shapes[2] and shapes["interior zero"] > 500


def test_step_witnesses_match_evaluation_at_points_and_midpoints():
    rng = random.Random(819)
    relations = (operator.eq, operator.le, operator.lt, operator.ge)
    for _ in range(300):
        f, g = random_lsc_step(rng), random_lsc_step(rng)
        part = sorted(set(f.partition) | set(g.partition))
        points = [part[0]]
        for a, b in zip(part, part[1:]):
            points += [(a + b) / 2, b]
        for relation in relations:
            want = [x for x in points if not relation(f(x), g(x))]

            def holds(a, b, relation=relation):  # the walk hands over integer forms
                return relation(Fraction(*a), Fraction(*b))

            assert step_witnesses(f, g, holds) == want
    assert step_witnesses(two_level(), two_level(), operator.eq) == []
    assert step_witnesses(two_level(), constant_step("1/2"), operator.eq) == [
        fr("3/4"),
        fr(1),
    ]


class TestStepApproximant:
    def test_constant_one_target(self):
        for i in (1, 2, 3):
            n = 2**i
            fi = step_approximant(constant_step(1), n)
            want = Fraction(n - 1, n)
            assert all(v == want for v in fi.interval_values)
            assert all(v == want for v in fi.point_values)

    def test_two_level_split_at_two(self):
        f1 = step_approximant(two_level(), 2)
        assert f1(0) == 0
        assert f1("1/4") == 0
        assert f1("1/2") == 0
        assert f1("3/4") == fr("1/2")
        assert f1(1) == fr("1/2")

    def test_grid_constant_steps_down(self):
        fi = step_approximant(constant_step("3/4"), 4)
        assert all(v == fr("1/2") for v in fi.interval_values)

    def test_rejects_targets_above_one(self):
        with pytest.raises(ValueError):
            step_approximant(constant_step("3/2"), 2)

    def test_gap_and_refinement_monotonicity(self):
        rng = random.Random(91)
        for _ in range(25):
            cuts = sorted({Fraction(rng.randint(1, 11), 12) for _ in range(2)})
            part = (fr(0), *cuts, fr(1))
            ivals = [Fraction(rng.randint(1, 8), 8) for _ in range(len(part) - 1)]
            pvals = [ivals[0]]
            for i in range(1, len(part) - 1):
                pvals.append(min(ivals[i - 1], ivals[i]))
            pvals.append(ivals[-1])
            f = StepFn(part, tuple(ivals), tuple(pvals))
            coarse = step_approximant(f, 3)
            fine = step_approximant(f, 12)
            for x in GRID_12:
                assert 0 <= f(x) - coarse(x) <= fr("1/3")
                assert 0 <= f(x) - fine(x) <= fr("1/12")
                assert coarse(x) <= fine(x)


# ---------------------------------------------------------------------------
# measures


class TestMeasures:
    def test_step_density_must_integrate_to_one(self):
        StepDensity((0, "1/2", 1), (2, 0))
        with pytest.raises(ValueError):
            StepDensity((0, 1), (2,))
        with pytest.raises(ValueError):
            StepDensity((0, 1), (-1,))

    def test_density_cdf(self):
        d = StepDensity((0, "1/2", 1), (2, 0))
        assert d.cdf("1/4") == fr("1/2")
        assert d.cdf("1/2") == 1
        assert d.cdf("3/4") == 1
        assert not d.everywhere_positive

    def test_measure_spec_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec("1/2")  # mass 1/2, not 1
        with pytest.raises(ValueError):
            MeasureSpec("1/2", atoms=(("1/4", "1/4"), ("1/4", "1/4")))
        with pytest.raises(ValueError):
            MeasureSpec(0, atoms=((2, 1),))
        mixed = MeasureSpec("1/2", atoms=(("3/4", "1/2"),))
        assert not mixed.atom_free
        assert lebesgue().full_support
        assert not point_mass("1/4").full_support

    def test_measure_of_open_sets(self):
        half_open = OpenSet(((0, "1/2", False, False),))
        assert measure(lebesgue(), half_open) == fr("1/2")
        upper = OpenSet((("1/2", 1, False, False),))
        assert measure(point_mass("1/4"), upper) == 0
        mixed = MeasureSpec("1/2", atoms=(("3/4", "1/2"),))
        assert measure(mixed, upper) == fr("3/4")

    def test_atoms_respect_endpoint_flags(self):
        below = OpenSet(((0, "1/2", True, False),))
        assert measure(point_mass("1/2"), below) == 0
        assert measure(point_mass(0), below) == 1

    def test_density_weighted_measure(self):
        mu = MeasureSpec(1, density=StepDensity((0, "1/2", 1), (2, 0)))
        assert measure(mu, OpenSet(((0, "1/4", False, False),))) == fr("1/2")
        assert measure(mu, OpenSet((("1/2", 1, False, True),))) == 0


# ---------------------------------------------------------------------------
# diagonal elements and dimension values


class TestDimension:
    def test_all_ones_has_dimension_one(self):
        a = DiagonalElement(3, (PLFn.constant(1),) * 3)
        for mu in (lebesgue(), point_mass("1/3"), point_mass(0)):
            assert dim_fn(a, mu) == 1

    def test_point_mass_sees_the_support(self):
        rising = PLFn((0, "1/2", 1), (0, 0, 1))
        a = DiagonalElement(2, (PLFn.zero(), rising))
        assert dim_fn(a, point_mass("3/4")) == fr("1/2")
        assert dim_fn(a, point_mass("1/2")) == 0
        assert dim_fn(a, point_mass("1/4")) == 0

    def test_left_tent_reproduces_its_length(self):
        for lam in (fr("1/4"), fr("1/2"), fr(1)):
            a = DiagonalElement(1, (left_tent(lam),))
            assert dim_fn(a, lebesgue()) == lam

    def test_direct_sum_weighted_average(self):
        a = DiagonalElement(1, (PLFn.constant(1),))
        b = DiagonalElement(2, (PLFn.zero(), left_tent("1/2")))
        joined = DiagonalElement(3, a.entries + b.entries)
        for mu in (lebesgue(), MeasureSpec("1/2", atoms=(("3/4", "1/2"),))):
            expected = (1 * dim_fn(a, mu) + 2 * dim_fn(b, mu)) / 3
            assert dim_fn(joined, mu) == expected

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            DiagonalElement(2, (PLFn.zero(),))


class TestCutdown:
    def test_large_eps_kills_everything(self):
        a = DiagonalElement(2, (full_tent(), PLFn.constant("1/2")))
        cut = cutdown(a, 1)
        assert not any(v for e in cut.entries for v in e.values)
        assert dim_fn(cut, lebesgue()) == 0

    def test_half_cut_of_the_full_tent(self):
        cut = cutdown(DiagonalElement(1, (full_tent(),)), "1/2")
        assert cut.entries[0].cozero().intervals == (
            Iv(fr("1/4"), fr("3/4"), False, False),
        )
        assert dim_fn(cut, lebesgue()) == fr("1/2")

    def test_commutes_with_permutation(self):
        x, y = full_tent(), left_tent("1/2")
        ab = cutdown(DiagonalElement(2, (x, y)), "1/4")
        ba = cutdown(DiagonalElement(2, (y, x)), "1/4")
        assert ab.entries == tuple(reversed(ba.entries))

    def test_dimension_is_monotone_under_cutdown(self):
        rng = random.Random(17)
        for _ in range(20):
            lam = Fraction(rng.randint(2, 12), 12)
            a = DiagonalElement(2, (left_tent(lam), full_tent("3/4")))
            e1 = Fraction(rng.randint(1, 5), 12)
            e2 = e1 + Fraction(rng.randint(1, 4), 12)
            assert dim_fn(cutdown(a, e2), lebesgue()) <= dim_fn(
                cutdown(a, e1), lebesgue()
            )


def zero_is_isolated(a: DiagonalElement) -> bool:
    """0 is an isolated point of the spectrum: a is projection-like."""
    return spectrum(a).intervals[0] == (0, 0)


class TestSpectrum:
    def test_projection_like_when_zero_is_isolated(self):
        a = DiagonalElement(2, (PLFn.constant(1), PLFn.zero()))
        assert spectrum(a).intervals == ((fr(0), fr(0)), (fr(1), fr(1)))

    def test_full_tent_is_purely_positive(self):
        a = DiagonalElement(1, (full_tent(),))
        assert spectrum(a).intervals == ((fr(0), fr(1)),)

    def test_entries_bounded_away_from_zero_stay_projection_like(self):
        high = PLFn((0, "1/2", 1), ("1/2", 1, "3/4"))
        a = DiagonalElement(2, (high, PLFn.zero()))
        assert spectrum(a).intervals == ((fr(0), fr(0)), (fr("1/2"), fr(1)))


class TestCompareElements:
    """1 x 1 diagonal elements compared in the model ``w_of_z``, through
    the classes they define under Lebesgue measure."""

    def compare(self, a: DiagonalElement, b: DiagonalElement) -> bool:
        return w_of_z().compare(_as_class(a, [lebesgue()]), _as_class(b, [lebesgue()]))

    def test_equal_elements_compare(self):
        a = DiagonalElement(1, (full_tent(),))
        assert self.compare(a, a)

    def test_projection_below_full_support_needs_strict_room(self):
        p = DiagonalElement(1, (PLFn.constant(1),))
        b = DiagonalElement(1, (full_tent(),))
        # both dimension values are 1, so the strict rule refuses
        assert dim_fn(p, lebesgue()) == dim_fn(b, lebesgue()) == 1
        assert not self.compare(p, b)

    def test_purely_positive_allows_equality(self):
        a = DiagonalElement(1, (full_tent(),))
        b = DiagonalElement(1, (PLFn.constant(1),))
        assert self.compare(a, b)


# ---------------------------------------------------------------------------
# bumps


class TestBumpOn:
    def test_interior_component_gets_a_tent(self):
        opens = OpenSet((("1/4", "3/4", False, False),))
        g = bump_on(opens, "1/2")
        assert g("1/2") == fr("1/2")
        assert g("1/4") == 0
        assert g.cozero().intervals == opens.intervals

    def test_half_open_components_get_ramps(self):
        left = bump_on(OpenSet(((0, "1/2", True, False),)), 1)
        assert left(0) == 1 and left("1/2") == 0
        assert left.cozero().intervals == (Iv(fr(0), fr("1/2"), True, False),)
        right = bump_on(OpenSet((("1/2", 1, False, True),)), 1)
        assert right(1) == 1 and right("1/2") == 0
        assert right.cozero().intervals == (Iv(fr("1/2"), fr(1), False, True),)

    def test_full_interval_gives_a_constant(self):
        g = bump_on(OpenSet(((0, 1, True, True),)), "1/4")
        assert g.breakpoints == (fr(0), fr(1))
        assert max(g.values) == fr("1/4")

    def test_multi_component_cozero_is_exact(self):
        opens = OpenSet(((0, "1/4", True, False), ("1/2", 1, False, True)))
        g = bump_on(opens, "1/8")
        assert g.cozero().intervals == opens.intervals

    def test_height_must_be_positive(self):
        with pytest.raises(ValueError):
            bump_on(OpenSet(()), 0)


# ---------------------------------------------------------------------------
# the stagewise realization


class TestRealize:
    def test_constant_one_target(self):
        result = realize(constant_step(1), RealizationSchedule.dyadic(3), 3)
        assert [s.size for s in result.stages] == [2, 4, 8]
        assert dimension_discrepancies(result) == []
        for stage in result.stages:
            want = Fraction(2**stage.index - 1, 2**stage.index)
            assert dim_fn(stage.element, lebesgue()) == want

    def test_two_level_first_stage_shape(self):
        result = realize(two_level(), RealizationSchedule.dyadic(1), 1)
        (stage,) = result.stages
        first, second = stage.element.entries
        assert not any(first.values)
        assert second.cozero().intervals == (Iv(fr("1/2"), fr(1), False, True),)
        assert max(second.values) == fr("1/2")

    def test_two_level_dimensions_match_exactly(self):
        result = realize(two_level(), RealizationSchedule.dyadic(3), 3)
        assert dimension_discrepancies(result) == []

    def test_stagewise_increments_and_monotonicity(self):
        result = realize(two_level(), RealizationSchedule.dyadic(4), 4)
        for stage in result.stages:
            assert stage.monotone
            assert stage.sup_increment <= Fraction(1, 2**stage.index)

    def test_non_dyadic_schedule(self):
        result = realize(two_level(), RealizationSchedule((3, 6)), 2)
        assert dimension_discrepancies(result) == []
        stage = result.stages[0]
        assert dim_fn(stage.element, point_mass("1/4")) == fr("1/3")
        assert dim_fn(stage.element, point_mass("3/4")) == fr("2/3")

    def test_stages_are_purely_positive_for_gentle_targets(self):
        result = realize(two_level(), RealizationSchedule.dyadic(2), 2)
        for stage in result.stages:
            lo, hi = spectrum(stage.element).intervals[0]
            assert lo == 0 < hi

    def test_input_validation(self):
        with pytest.raises(ValueError):
            realize(two_level(), RealizationSchedule.dyadic(2), 3)
        with pytest.raises(ValueError):
            realize(constant_step("3/2"), RealizationSchedule.dyadic(2), 2)
        with pytest.raises(ValueError):
            realize(two_level(), RealizationSchedule.dyadic(2), 0)


def random_step_target(rng: random.Random) -> StepFn:
    """Lower semicontinuous, values in [0, 1], some point values dropped to 0."""
    den = rng.choice((12, 20, 36))
    count = rng.randint(1, 3)
    cuts = sorted({Fraction(rng.randint(1, den - 1), den) for _ in range(count)})
    part = (fr(0), *cuts, fr(1))
    ivals = [Fraction(rng.randint(1, 8), 8) for _ in range(len(part) - 1)]
    pvals = [ivals[0]]
    for i in range(1, len(part) - 1):
        pvals.append(min(ivals[i - 1], ivals[i]) if rng.random() < 0.7 else fr(0))
    pvals.append(ivals[-1])
    return StepFn(part, ivals, pvals)


def test_superlevels_of_f_are_superlevels_of_its_approximant():
    # realize reads f only through step_approximant(f, n): its slot m takes
    # {f > m/n}, built as {approximant > (m - 1)/n}
    rng = random.Random(2807)
    cases, empty = 0, 0
    for _ in range(3000):
        f = random_step_target(rng) if rng.random() < 0.5 else random_lsc_step(rng)
        for n in rng.sample((2, 3, 5, 6, 7, 8, 9, 12, 16, 20, rng.randint(2, 40)), 2):
            approximant = step_approximant(f, n)
            for m in range(1, n):
                opens = superlevel(f, Fraction(m, n))
                assert opens == superlevel(approximant, Fraction(m - 1, n)), (f, n, m)
                cases += 1
                empty += not opens.intervals
    assert cases > 25_000 and 0 < empty < cases


def test_dim_profile_matches_point_mass_dimensions():
    rng = random.Random(606)
    schedules = (RealizationSchedule.dyadic(4), RealizationSchedule((3, 6, 12)))
    for _ in range(8):
        f = random_step_target(rng)
        for schedule in schedules:
            result = realize(f, schedule, len(schedule.sizes))
            assert dimension_discrepancies(result) == []
            for stage in result.stages:
                # the merged slots of the next stage share entry objects
                shared = _merge_slots(stage.element.entries, 2 * stage.size)
                for a in (stage.element, DiagonalElement(2 * stage.size, shared)):
                    profile = dim_profile(a)
                    part = sorted(set(profile.partition) | set(f.partition))
                    mids = [(p + q) / 2 for p, q in zip(part, part[1:])]
                    for x in part + mids:
                        assert profile(x) == dim_fn(a, point_mass(x))


def test_stage_increments_and_monotonicity_match_pointwise_evaluation():
    rng = random.Random(607)
    schedules = (RealizationSchedule.dyadic(4), RealizationSchedule((3, 6, 12)))
    for _ in range(6):
        f = random_step_target(rng)
        for schedule in schedules:
            result = realize(f, schedule, len(schedule.sizes))
            previous = None
            for stage in result.stages:
                entries = stage.element.entries
                if previous is None:
                    olds = [PLFn.zero()] * stage.size
                else:
                    olds = _merge_slots(previous.element.entries, stage.size)
                diffs, below = [], []
                for old, new in zip(olds, entries):
                    common = sorted(set(old.breakpoints) | set(new.breakpoints))
                    diffs += [abs(new(x) - old(x)) for x in common]
                    below += [old(x) <= new(x) for x in common]
                assert stage.sup_increment == max(diffs)
                assert stage.monotone == all(below)
                previous = stage


def _unshared_stages(f: StepFn, sizes) -> list:
    """The realization built slot by slot, without sharing: every slot takes
    its own superlevel set, bump and merge, and the increment and
    monotonicity are read by pointwise evaluation.  Returns, per stage, the
    entries, the sup increment, monotonicity and the number of distinct
    (previous entry, bump) pairs by value."""
    out, prev = [], None
    for idx, n in enumerate(sizes, start=1):
        fresh = [PLFn.zero()]
        for k in range(2, n + 1):
            opens = superlevel(f, Fraction(k - 1, n))
            fresh.append(bump_on(opens, fr(1) / 2**idx) if opens.intervals else PLFn.zero())
        olds = [PLFn.zero() for _ in range(n)] if prev is None else _merge_slots(prev, n)
        entries = [old.pointwise_max(bump) for old, bump in zip(olds, fresh)]
        diffs = [
            new(x) - old(x) for old, new in zip(olds, entries) for x in new.breakpoints
        ]
        pairs = {(old.breakpoints, old.values, b.breakpoints, b.values)
                 for old, b in zip(olds, fresh)}
        out.append((entries, max(map(abs, diffs)), min(diffs) >= 0, len(pairs)))
        prev = entries
    return out


@pytest.fixture()
def merges(monkeypatch):
    """The (self, other) pair of every ``PLFn.pointwise_max`` call, kept
    alive so that ``id`` tells distinct operands apart."""
    calls = []
    real = PLFn.pointwise_max

    def counting(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(PLFn, "pointwise_max", counting)
    return calls


def test_shared_entries_match_the_slot_by_slot_construction(merges):
    rng = random.Random(608)
    schedules = (RealizationSchedule.dyadic(5), RealizationSchedule((3, 6, 12, 24)))
    for _ in range(6):
        f = random_step_target(rng)
        for schedule in schedules:
            merges.clear()
            result = realize(f, schedule, len(schedule.sizes))
            # one merge per distinct (embedded entry, bump) pair of objects
            calls = len(merges)
            assert calls == len({(id(a), id(b)) for a, b in merges})
            assert calls < sum(schedule.sizes)
            want = _unshared_stages(f, schedule.sizes)
            assert sum(pairs for *_, pairs in want) == calls
            for stage, (entries, increment, monotone, _) in zip(result.stages, want):
                got = stage.element.entries
                assert [(e.breakpoints, e.values) for e in got] == [
                    (e.breakpoints, e.values) for e in entries
                ]
                assert stage.sup_increment == increment
                assert stage.monotone == monotone
                assert dim_profile(stage.element) == dim_profile(
                    DiagonalElement(stage.size, entries)
                )


def test_realize_merges_each_distinct_pair_once(merges):
    f = StepFn((0, "1/3", "3/5", 1), ("1/4", "7/8", "1/2"), ("1/4", "1/4", "1/2", "1/2"))
    realize(f, RealizationSchedule.dyadic(5), 5)
    # 62 slots over the five stages, but only 33 distinct pairs to merge
    assert len({(id(a), id(b)) for a, b in merges}) == len(merges) == 33
    merges.clear()
    unshared = _unshared_stages(f, (2, 4, 8, 16, 32))
    assert len(merges) == 62
    assert [pairs for *_, pairs in unshared] == [2, 4, 6, 9, 12]


def test_realize_evaluates_no_entry_on_a_grid(merges, monkeypatch):
    """The increment sweep reads the old entry off its own breakpoints and
    the merge walk interpolates in place: no entry is evaluated at a point."""
    points = []
    real = PLFn.__call__

    def counting(self, x):
        points.append(x)
        return real(self, x)

    monkeypatch.setattr(PLFn, "__call__", counting)
    f = StepFn((0, "1/3", "3/5", 1), ("1/4", "7/8", "1/2"), ("1/4", "1/4", "1/2", "1/2"))
    realize(f, RealizationSchedule.dyadic(5), 5)
    assert len(merges) == 33
    assert points == []


def test_merges_make_no_fraction_comparison(monkeypatch):
    """The merge walk orders points and reads signs on integer forms: over the
    33 merges of the pinned 5-stage target, ``PLFn.pointwise_max`` (and the
    constructor it calls) makes no ``Fraction`` ordering or equality test."""
    inside, calls, counts = [False], [], Counter()
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        real = getattr(Fraction, name)

        def counting(a, b, real=real, name=name):
            counts[name] += inside[0]
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    real_max = PLFn.pointwise_max

    def flagged(self, other):
        calls.append(other)
        inside[0] = True
        try:
            return real_max(self, other)
        finally:
            inside[0] = False

    monkeypatch.setattr(PLFn, "pointwise_max", flagged)
    f = StepFn((0, "1/3", "3/5", 1), ("1/4", "7/8", "1/2"), ("1/4", "1/4", "1/2", "1/2"))
    result = realize(f, RealizationSchedule.dyadic(5), 5)
    assert len(calls) == 33
    assert sum(counts.values()) == 0, counts
    assert dimension_discrepancies(result) == []
    inside[0] = True  # the counters work: one flagged comparison counts once
    assert fr("1/3") < fr("1/2")
    inside[0] = False
    assert counts == Counter(__lt__=1)


def test_realize_converts_no_value_between_walks(monkeypatch):
    """Every value is stored as its integer form, so the walks read and build
    forms: over the pinned 5-stage target, ``realize`` and the exact check
    build 22 ``Fraction``s in all (a height and a sup increment per stage,
    and a level per bump; storing ``Fraction``s and converting them in
    each walk built 189) and convert 28 rationals to forms (the zero entry's
    four, and a level and a height per bump)."""
    built, converted = Counter(), Counter()

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built["Fraction"] += 1
            return super().__new__(cls, *args, **kwargs)

    def frac(x, real=goodearl.frac):
        converted["frac"] += 1
        return real(x)

    f = StepFn((0, "1/3", "3/5", 1), ("1/4", "7/8", "1/2"), ("1/4", "1/4", "1/2", "1/2"))
    monkeypatch.setattr(goodearl, "Fraction", Counting)
    monkeypatch.setattr(goodearl, "frac", frac)
    result = realize(f, RealizationSchedule.dyadic(5), 5)
    assert dimension_discrepancies(result) == []
    assert (built, converted) == ({"Fraction": 22}, {"frac": 28})
    assert [stage.sup_increment for stage in result.stages] == [
        Fraction(1, 2**i) for i in range(1, 6)
    ]


def test_realize_refuses_a_merge_that_drops_an_old_breakpoint(monkeypatch):
    # a "maximum" that returns the bump alone loses the old entry's knot at
    # 1/2 in stage 2, where the bump on {f > 1/4} = [0, 1] is constant
    monkeypatch.setattr(PLFn, "pointwise_max", lambda self, other: other)
    realize(two_level(), RealizationSchedule.dyadic(1), 1)
    with pytest.raises(RuntimeError, match="lost a breakpoint"):
        realize(two_level(), RealizationSchedule.dyadic(2), 2)


def test_exact_check_finds_what_the_grid_misses():
    result = realize(two_level(), RealizationSchedule.dyadic(5), 5)
    last = result.stages[-1]
    entries = list(last.element.entries)
    slot = next(k for k, e in enumerate(entries) if not any(e.values))
    narrow = OpenSet(((fr("1/81"), fr("2/81"), False, False),))
    entries[slot] = bump_on(narrow, fr("1/64"))
    planted = RealizationStage(last.index, last.size, DiagonalElement(last.size, entries),
                               last.approximant, last.sup_increment, last.monotone)
    broken = RealizationResult(result.target, result.stages[:-1] + (planted,))
    [(index, witness)] = dimension_discrepancies(broken)
    assert index == 5
    assert fr("1/81") < witness < fr("2/81")
    grid = [Fraction(j, 40) for j in range(41)]
    element, approximant = planted.element, planted.approximant
    assert [p for p in grid if dim_fn(element, point_mass(p)) != approximant(p)] == []


def test_schedule_validation():
    assert RealizationSchedule.dyadic(3).sizes == (2, 4, 8)
    RealizationSchedule((3, 6, 12))
    with pytest.raises(ValueError):
        RealizationSchedule((2, 3))
    with pytest.raises(ValueError):
        RealizationSchedule((4, 4))
    with pytest.raises(ValueError):
        RealizationSchedule(())


# ---------------------------------------------------------------------------
# the stored integer forms


def stored_forms(value) -> list:
    """Every (numerator, denominator) pair a value of goodearl stores."""
    out = []
    for name in type(value)._fields:
        for item in getattr(value, name):
            out += [item] if isinstance(item[1], int) else item[:2]  # an interval's ends
    return out


def test_values_written_two_ways_are_equal_and_hash_equal():
    one_ways = (1, "1", Fraction(1), "4/4")
    for one in one_ways:
        pairs = (
            (PLFn((0, "2/4", one), (one, "3/6", 0)), PLFn((0, "1/2", 1), (1, "1/2", 0))),
            (StepFn(("0/7", "2/4", one), ("2/4", one), ("1/2", "1/2", one)), two_level()),
            (OpenSet((("2/4", one, False, True),)), OpenSet((("1/2", 1, False, True),))),
        )
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert stored_forms(a) == stored_forms(b)
    assert PLFn((0, 1), ("1/3", 0)) != PLFn((0, 1), ("1/3", "1/99991"))


def test_every_accessor_gives_a_tuple_of_fractions():
    g = PLFn((0, "2/4", 1), (1, "3/6", 0))
    f = StepFn((0, "2/4", 1), ("2/4", 1), ("1/2", "1/2", "4/4"))
    opens = OpenSet(((0, "1/3", True, False), ("2/4", 1, False, True)))
    fields = {
        "breakpoints": (g.breakpoints, (0, fr("1/2"), 1)),
        "values": (g.values, (1, fr("1/2"), 0)),
        "partition": (f.partition, (0, fr("1/2"), 1)),
        "interval_values": (f.interval_values, (fr("1/2"), 1)),
        "point_values": (f.point_values, (fr("1/2"), fr("1/2"), 1)),
    }
    for name, (got, want) in fields.items():
        assert type(got) is tuple and got == want, name
        assert all(type(x) is Fraction for x in got), name
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g if name in ("breakpoints", "values") else f, name, want)
    ivs = opens.intervals
    assert type(ivs) is tuple and ivs == (
        Iv(fr(0), fr("1/3"), True, False), Iv(fr("1/2"), fr(1), False, True)
    )
    assert all(type(iv) is Iv for iv in ivs)
    assert all(type(x) is Fraction for iv in ivs for x in iv[:2])
    assert all(type(x) is bool for iv in ivs for x in iv[2:])
    for read in (g("1/4"), g("1/2"), f("1/4"), f("1/2")):
        assert type(read) is Fraction


def test_every_form_the_walks_build_is_in_lowest_terms():
    # targets over mixed denominators, and merges of random entries, most of
    # them with crossing points
    rng = random.Random(35)
    seen = crossings = 0
    for _ in range(12):
        f = random_step_target(rng)
        for schedule in (RealizationSchedule.dyadic(4), RealizationSchedule((3, 6, 12))):
            result = realize(f, schedule, len(schedule.sizes))
            values = [stage.approximant for stage in result.stages]
            values += [dim_profile(stage.element) for stage in result.stages]
            values += [e for stage in result.stages for e in stage.element.entries]
            values += [e.cozero() for e in values if isinstance(e, PLFn)]
            g, h = random_plfn(rng), random_plfn(rng)
            top = g.pointwise_max(h)
            crossings += len(top.breakpoints) > len(set(g.breakpoints) | set(h.breakpoints))
            values += [g.minus_clamped(rng.choice(g.values) / 2), top]
            for n, d in (form for value in values for form in stored_forms(value)):
                assert d > 0 and math.gcd(n, d) == 1, (n, d)
                seen += 1
    assert seen > 5000 and crossings > 10, (seen, crossings)


# ---------------------------------------------------------------------------
# the comparison gap and prescribed-measure supports


class TestComparisonLemma:
    def test_full_tent_drops_strictly(self):
        a = DiagonalElement(1, (full_tent(),))
        assert comparison_lemma_check(a, "1/8", "1/4", "1/2", lebesgue())

    def test_spectral_membership_is_required(self):
        small = DiagonalElement(1, (full_tent("1/2"),))
        with pytest.raises(ValueError):
            comparison_lemma_check(small, "1/8", "1/4", "3/4", lebesgue())

    def test_ordering_is_required(self):
        a = DiagonalElement(1, (full_tent(),))
        with pytest.raises(ValueError):
            comparison_lemma_check(a, "1/4", "1/4", "1/2", lebesgue())

    def test_measure_preconditions(self):
        a = DiagonalElement(1, (full_tent(),))
        with pytest.raises(ValueError):
            comparison_lemma_check(a, "1/8", "1/4", "1/2", point_mass("1/2"))
        gappy = MeasureSpec(1, density=StepDensity((0, "1/2", 1), (2, 0)))
        with pytest.raises(ValueError):
            comparison_lemma_check(a, "1/8", "1/4", "1/2", gappy)


class TestOpenSetOfMeasure:
    """Left-anchored open intervals (0, t) and their exact measures."""

    def test_uniform_cases(self):
        third = OpenSet(((0, "1/3", False, False),))
        assert measure(lebesgue(), third) == fr("1/3")
        everything = OpenSet(((0, 1, False, False),))
        assert measure(lebesgue(), everything) == 1

    def test_inverse_cdf_through_a_denser_stretch(self):
        mu = MeasureSpec(1, density=StepDensity((0, "1/2", 1), (2, 0)))
        got = OpenSet(((0, "1/4", False, False),))
        assert measure(mu, got) == fr("1/2")

    def test_walk_skips_zero_density_chunks(self):
        dens = StepDensity((0, "1/4", "3/4", 1), (2, 0, 2))
        mu = MeasureSpec(1, density=dens)
        # the zero-density stretch (1/4, 3/4) adds no mass
        for t in ("1/4", "1/2", "3/4"):
            assert measure(mu, OpenSet(((0, t, False, False),))) == fr("1/2")
        got = OpenSet(((0, "7/8", False, False),))
        assert measure(mu, got) == fr("3/4")

    def test_measure_round_trip(self):
        for lam in (fr("1/8"), fr("1/2"), fr("5/6"), fr(1)):
            got = OpenSet(((0, lam, False, False),))
            assert measure(lebesgue(), got) == lam

    def test_bump_on_the_result_has_the_prescribed_dimension(self):
        lam = fr("2/5")
        opens = OpenSet(((0, lam, False, False),))
        a = DiagonalElement(1, (bump_on(opens, 1),))
        assert dim_fn(a, lebesgue()) == lam


# ---------------------------------------------------------------------------
# agreement with the finite-trace model order


def _as_class(a: DiagonalElement, traces) -> CuntzClass:
    if zero_is_isolated(a):
        count = sum(1 for e in a.entries if any(e.values))
        return CuntzClass.proj((count,))
    return CuntzClass.soft(tuple(dim_fn(a, mu) for mu in traces))


def _dimension_leq(a: DiagonalElement, b: DiagonalElement, traces) -> bool:
    """Reference order from dimension values over the traces.

    A purely positive a needs non-strict inequality everywhere; a
    projection-like a below a purely positive b needs strict inequality at
    every trace; two projection-like elements compare non-strictly.
    """
    da = [dim_fn(a, mu) for mu in traces]
    db = [dim_fn(b, mu) for mu in traces]
    if zero_is_isolated(a) and not zero_is_isolated(b):
        return all(x < y for x, y in zip(da, db))
    return all(x <= y for x, y in zip(da, db))


def test_model_comparison_agrees_with_dimension_comparison():
    smooth = MeasureSpec(1, density=StepDensity((0, "1/2", 1), ("3/2", "1/2")))
    traces = [lebesgue(), smooth]
    size = 2
    model = WModel(K0Model(1, ((Fraction(1, size),), (Fraction(1, size),)), (size,)))
    pool = [
        DiagonalElement(2, (PLFn.zero(), PLFn.zero())),
        DiagonalElement(2, (PLFn.constant(1), PLFn.zero())),
        DiagonalElement(2, (PLFn.constant(1), PLFn.constant("1/2"))),
        DiagonalElement(2, (left_tent("1/2"), left_tent("3/4"))),
        DiagonalElement(2, (full_tent(), left_tent("1/4"))),
        DiagonalElement(2, (left_tent(1), left_tent(1))),
    ]
    for a in pool:
        for b in pool:
            lhs = _dimension_leq(a, b, traces)
            rhs = model.compare(_as_class(a, traces), _as_class(b, traces))
            assert lhs == rhs, (a, b)
