"""The integer order tests of the realization path against the ``Fraction``
expressions they replaced.

Seeded sweeps of 700 to 2,100 cases each take in negatives, zero, equal
values written two ways ("2/4" and "1/2"), values a hair apart, and
denominators up to 10^17 (one realization stage reaches an lcm of 3.1·10^16
among its breakpoint denominators).  Each check compares an integer form with
the ``Fraction`` expression it stands for: comparison and sign, ``_lerp``,
the approximant's ceiling, the constructor checks, the
superlevel sets, the merge walk and the increment sweep.  A few whole
realizations of such targets are then checked pointwise.
"""

import math
import random

import pytest
from fractions import Fraction

from cuntzcalc.goodearl import (
    Iv,
    OpenSet,
    PLFn,
    RealizationSchedule,
    StepFn,
    _increasing,
    _increment,
    _lerp,
    _merge_slots,
    bump_on,
    dimension_discrepancies,
    realize,
    step_approximant,
    step_witnesses,
    superlevel,
)

BIG = 10**17


def rational(rng, low=-2, high=2) -> Fraction:
    """A rational in [low, high], over a small, a prime or a huge denominator."""
    den = rng.choice((1, 2, 3, 12, 99991, 10**8 + 7, rng.randint(1, BIG)))
    return Fraction(rng.randint(low * den, high * den), den)


def rewritten(x: Fraction, rng) -> str:
    """x with numerator and denominator scaled up, as "2/4" writes 1/2."""
    m = rng.randint(2, 10**6)
    return f"{x.numerator * m}/{x.denominator * m}"


def nearby(x: Fraction, rng) -> Fraction:
    """x itself written another way, x a hair off, or an unrelated rational."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rewritten(x, rng))
    if kind == 1:
        return x + Fraction(rng.choice((-1, 1)), rng.randint(BIG, 4 * BIG))
    return rational(rng)


def unit_point(rng) -> Fraction:
    """A point of [0, 1]: an end, on a small grid, a hair inside, or huge."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(rng.randint(0, 1))
    if kind == 1:
        return Fraction(rng.randint(0, 27), 27)
    if kind == 2:
        return Fraction(rng.choice((1, BIG - 1)), BIG)
    return rational(rng, 0, 1)


def error_of(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def test_order_and_sign_match_fraction_comparisons():
    rng = random.Random(2201)
    for _ in range(2000):
        a = rational(rng)
        b = nearby(a, rng)
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        assert ad > 0 and bd > 0 and math.gcd(an, ad) == 1
        assert (an * bd < bn * ad) == (a < b)
        assert ((an, ad) == (bn, bd)) == (a == b)
        s = an * bd - bn * ad
        assert (s > 0) - (s < 0) == (a > b) - (a < b)
        assert (an < 0, an == 0) == (a < 0, a == 0)
        assert (an <= ad, an == ad) == (a <= 1, a == 1)
        xs = [a, b, *(nearby(b, rng) for _ in range(rng.randint(0, 3)))]
        forms = [x.as_integer_ratio() for x in xs]
        assert _increasing(forms) == all(x < y for x, y in zip(xs, xs[1:]))


def test_lerp_matches_the_fraction_expression():
    rng = random.Random(2202)
    for _ in range(2000):
        x0 = rational(rng, 0, 1)
        x1 = nearby(x0, rng)
        if x1 == x0:
            continue
        x0, x1 = min(x0, x1), max(x0, x1)
        x = rng.choice((x0, x1, x0 + (x1 - x0) * unit_point(rng), rational(rng)))
        v0 = rational(rng)
        v1 = nearby(v0, rng)
        want = v0 if v0 == v1 else v0 + (v1 - v0) * (x - x0) / (x1 - x0)
        n, d = _lerp(*(r.as_integer_ratio() for r in (x0, v0, x1, v1, x)))
        assert d > 0 and Fraction(n, d) == want


def test_approximant_ceiling_matches_the_fraction_ceiling():
    rng = random.Random(2203)
    for _ in range(2000):
        n = rng.choice((1, 2, 3, 27, 4096, rng.randint(1, 4096)))
        kind = rng.randrange(3)
        if kind == 0:  # on the grid, written another way
            t = Fraction(rewritten(Fraction(rng.randint(0, n), n), rng))
        elif kind == 1:  # a hair off the grid
            t = Fraction(rng.randint(0, n), n) + Fraction(rng.choice((-1, 1)), BIG)
            t = min(max(t, Fraction(0)), Fraction(1))
        else:
            t = unit_point(rng)
        got = step_approximant(StepFn((0, 1), (t,), (t, t)), n)
        want = Fraction(max(1, math.ceil(n * t)) - 1, n)
        assert got.interval_values == (want,) and got.point_values == (want, want)


# the constructor checks as they read on Fraction comparisons


def plfn_error(bp, vals):
    bp, vals = [Fraction(x) for x in bp], [Fraction(v) for v in vals]
    if len(bp) != len(vals) or len(bp) < 2:
        return "need matching breakpoints and values, at least two"
    if bp[0] != 0 or bp[-1] != 1:
        return "breakpoints must start at 0 and end at 1"
    if any(a >= b for a, b in zip(bp, bp[1:])):
        return "breakpoints must strictly increase"
    if any(v < 0 for v in vals):
        return "values must be non-negative"
    return None


def stepfn_error(part, ivals, pvals):
    part = [Fraction(x) for x in part]
    ivals, pvals = [Fraction(v) for v in ivals], [Fraction(v) for v in pvals]
    if len(part) < 2 or part[0] != 0 or part[-1] != 1:
        return "partition must run from 0 to 1"
    if any(a >= b for a, b in zip(part, part[1:])):
        return "partition must strictly increase"
    if len(ivals) != len(part) - 1 or len(pvals) != len(part):
        return "value counts do not match the partition"
    if any(v < 0 for v in ivals) or any(v < 0 for v in pvals):
        return "values must be non-negative"
    for i, pv in enumerate(pvals):
        neighbours = [ivals[j] for j in (i - 1, i) if 0 <= j < len(ivals)]
        if pv > min(neighbours):
            return (f"not lower semicontinuous at {part[i]}: point value {pv} "
                    f"exceeds an adjacent interval value")
    return None


def openset_error(intervals):
    prev = None
    for left, right, lc, rc in intervals:
        left, right = Fraction(left), Fraction(right)
        if not (0 <= left < right <= 1):
            return f"bad interval {Iv(left, right, lc, rc)}"
        if lc and left != 0:
            return "left endpoint may be included only at 0"
        if rc and right != 1:
            return "right endpoint may be included only at 1"
        if prev is not None and left < prev:
            return "intervals must be sorted and disjoint"
        prev = right
    return None


def near_partition(rng) -> list:
    """Sorted points from 0 to 1, now and then with a repeat written another
    way, an end a hair off, or a pair out of order."""
    inner = sorted({rational(rng, 0, 1) for _ in range(rng.randint(0, 4))} - {0, 1})
    points = [Fraction(0), *inner, Fraction(1)]
    kind = rng.randrange(6)
    if kind == 0 and len(points) > 2:
        i = rng.randrange(1, len(points) - 1)
        points.insert(i, Fraction(rewritten(points[i], rng)))
    elif kind == 1:
        i = rng.choice((0, -1))
        points[i] += Fraction(rng.choice((-1, 1)), BIG)
    elif kind == 2 and len(points) > 3:
        i = rng.randrange(1, len(points) - 2)
        points[i], points[i + 1] = points[i + 1], points[i]
    return [rewritten(x, rng) if rng.random() < 0.2 else x for x in points]


def value(rng) -> Fraction:
    return Fraction(-1, rng.randint(BIG, 4 * BIG)) if rng.random() < 0.05 else unit_point(rng)


def test_constructor_checks_match_the_fraction_checks():
    rng = random.Random(2205)
    outcomes = set()
    for _ in range(2000):
        part = near_partition(rng)
        vals = [value(rng) for _ in range(len(part) - (rng.random() < 0.03))]
        want = plfn_error(part, vals)
        assert error_of(lambda: PLFn(part, vals)) == want
        outcomes.add(("plfn", want))

        ivals = [value(rng) for _ in range(len(part) - 1 + (rng.random() < 0.03))]
        pvals = []
        for i in range(len(part)):
            near = [ivals[j] for j in (i - 1, i) if 0 <= j < len(ivals)]
            low = min(near) if near else Fraction(0)
            pvals.append(rng.choice((low, nearby(low, rng), Fraction(rewritten(low, rng)))))
        want = stepfn_error(part, ivals, pvals)
        assert error_of(lambda: StepFn(part, ivals, pvals)) == want
        outcomes.add(("stepfn", want and want.split(" at ")[0]))

        ends = [Fraction(x) for x in part]
        intervals = []
        for a, b in zip(ends, ends[1:]):
            if rng.random() < 0.6:
                lc = a == 0 if rng.random() < 0.9 else True
                rc = b == 1 if rng.random() < 0.9 else True
                intervals.append((a, nearby(b, rng) if rng.random() < 0.2 else b, lc, rc))
        want = openset_error(intervals)
        assert error_of(lambda: OpenSet(intervals)) == want
        outcomes.add(("openset", want and want.split("(")[0]))
    # every message comes up, and so does acceptance
    assert len({o for o in outcomes if o[0] == "plfn"}) == 5
    assert len({o for o in outcomes if o[0] == "stepfn"}) == 6
    assert len({o for o in outcomes if o[0] == "openset"}) == 5


def random_target(rng) -> StepFn:
    """A lower semicontinuous step target in [0, 1] with large integer forms."""
    inner = sorted({rational(rng, 0, 1) for _ in range(rng.randint(0, 4))} - {0, 1})
    part = [Fraction(0), *inner, Fraction(1)]
    ivals = [unit_point(rng) for _ in range(len(part) - 1)]
    pvals = []
    for i in range(len(part)):
        low = min(ivals[j] for j in (i - 1, i) if 0 <= j < len(ivals))
        pvals.append(rng.choice((low, low * rng.choice((0, Fraction(1, 3))))))
    return StepFn(part, ivals, pvals)


def fraction_superlevel(f: StepFn, q: Fraction) -> OpenSet:
    part, pvals = f.partition, f.point_values
    pieces, start = [], None
    for i, val in enumerate(f.interval_values):
        if val <= q:
            continue
        if start is None:
            start = part[i]
        if part[i + 1] == 1 or pvals[i + 1] <= q:
            pieces.append((start, part[i + 1], start == 0 and pvals[0] > q, pvals[i + 1] > q))
            start = None
    return OpenSet(pieces)


def test_superlevel_sets_match_the_fraction_walk():
    rng = random.Random(2206)
    for _ in range(500):
        f = random_target(rng)
        levels = sorted(set(f.interval_values) | set(f.point_values))
        for q in (*levels, nearby(rng.choice(levels), rng), rewritten(rng.choice(levels), rng)):
            assert superlevel(f, q) == fraction_superlevel(f, Fraction(q))
            opens = superlevel(f, q)
            if opens.intervals:
                assert bump_on(opens, Fraction(1, 8)).cozero() == opens


def fraction_max(g: PLFn, h: PLFn) -> PLFn:
    """The merge walk as it read on Fraction comparisons and arithmetic."""

    def lerp(x0, v0, x1, v1, x):
        return v0 if v0 == v1 else v0 + (v1 - v0) * (x - x0) / (x1 - x0)

    xs, vs, ys, ws = g.breakpoints, g.values, h.breakpoints, h.values
    x0, v0, d0 = xs[0], vs[0], vs[0] - ws[0]
    pts, vals = [x0], [v0 if d0 >= 0 else ws[0]]
    i = j = 1
    while i < len(xs):
        at_x, at_y = xs[i] <= ys[j], ys[j] <= xs[i]
        x = xs[i] if at_x else ys[j]
        v = vs[i] if at_x else lerp(xs[i - 1], vs[i - 1], xs[i], vs[i], x)
        w = ws[j] if at_y else lerp(ys[j - 1], ws[j - 1], ys[j], ws[j], x)
        i, j = i + at_x, j + at_y
        d = v - w
        if d0 * d < 0:
            t = d0 / (d0 - d)
            pts.append(x0 + (x - x0) * t)
            vals.append(v0 + (v - v0) * t)
        pts.append(x)
        vals.append(max(v, w))
        x0, v0, d0 = x, v, d
    return PLFn(pts, vals)


def random_plfn(rng) -> PLFn:
    inner = sorted({rational(rng, 0, 1) for _ in range(rng.randint(0, 4))} - {0, 1})
    points = [Fraction(0), *inner, Fraction(1)]
    return PLFn(points, [rational(rng, 0, 1) * rng.randint(0, 1) for _ in points])


def test_merges_match_the_fraction_walk():
    rng = random.Random(2207)
    crossings = 0
    for _ in range(350):
        g = random_plfn(rng)
        # unrelated; on g's breakpoints written another way, with values at,
        # a hair off or away from g's; and constant at one of g's values
        close = [max(nearby(v, rng), Fraction(0)) for v in g.values]
        others = (
            random_plfn(rng),
            PLFn([rewritten(x, rng) for x in g.breakpoints], close),
            PLFn.constant(rng.choice(g.values)),
        )
        for h in others:
            for a, b in ((g, h), (h, g)):
                got, want = a.pointwise_max(b), fraction_max(a, b)
                assert (got.breakpoints, got.values) == (want.breakpoints, want.values)
                crossings += len(got.breakpoints) > len(set(a.breakpoints) | set(b.breakpoints))
    assert crossings > 50


def test_increments_match_pointwise_evaluation():
    rng = random.Random(2209)
    for _ in range(700):
        old = random_plfn(rng)
        extra = {rational(rng, 0, 1) for _ in range(rng.randint(0, 3))}
        points = sorted(set(old.breakpoints) | extra)
        # at, a hair off or away from old's value, now and then below it
        values = [max(nearby(old(x), rng), Fraction(0)) for x in points]
        new = PLFn([rewritten(x, rng) for x in points], values)
        (n, d), rose = _increment(old, new)
        assert d > 0 and Fraction(n, d) == max(abs(new(x) - old(x)) for x in points)
        assert rose == all(new(x) >= old(x) for x in points)
        lost = [x for x in old.breakpoints[1:-1] if x not in extra]
        if lost:
            dropped = rng.choice(lost)
            missing = [x for x in points if x != dropped]
            with pytest.raises(RuntimeError, match="lost a breakpoint"):
                _increment(old, PLFn(missing, [new(x) for x in missing]))


def at_or_below(a, b) -> bool:
    """a <= b for integer forms, as ``step_witnesses`` hands them over."""
    return a[0] * b[1] <= b[0] * a[1]


def test_realizations_of_large_targets_check_out_pointwise():
    rng = random.Random(2208)
    for _ in range(8):
        f = random_target(rng)
        for schedule in (RealizationSchedule.dyadic(4), RealizationSchedule((3, 9, 27))):
            result = realize(f, schedule, len(schedule.sizes))
            assert dimension_discrepancies(result) == []
            previous = None
            for stage in result.stages:
                n = stage.size
                for x, y in zip(stage.approximant.interval_values, f.interval_values):
                    assert x == Fraction(max(1, math.ceil(n * y)) - 1, n)
                olds = [PLFn.zero()] * n if previous is None else _merge_slots(previous, n)
                diffs = []
                for old, new in zip(olds, stage.element.entries):
                    common = sorted(set(old.breakpoints) | set(new.breakpoints))
                    diffs += [new(x) - old(x) for x in common]
                assert stage.sup_increment == max(map(abs, diffs))
                assert stage.monotone == (min(diffs) >= 0)
                assert step_witnesses(stage.approximant, f, at_or_below) == []
                previous = stage.element.entries
