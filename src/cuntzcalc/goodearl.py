"""Diagonal elements over [0, 1] with exact piecewise-linear entries.

Everything here is exact rational: piecewise-linear functions know their
cozero sets as finite unions of intervals with explicit endpoint flags
(sets are relatively open in [0, 1], so an endpoint flag can only be set at
0 or 1), lower semicontinuous step functions have superlevel sets
{f > q} that are open sets of the same kind, read off the step function in
one walk, and measures are a piecewise-constant density plus finitely many
atoms.

The centerpiece is ``realize``: given a step target f with values in
[0, 1] and a divisibility schedule of matrix sizes, it builds diagonal
elements a_i whose dimension function at every point mass equals the
stage approximant of f exactly, with stage-to-stage sup-norm increments
at most 2^-i.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .linalg import frac, vector


class Iv(NamedTuple):
    """One interval of an open set, with endpoint inclusion flags."""

    left: Fraction
    right: Fraction
    left_closed: bool
    right_closed: bool


@dataclass(frozen=True)
class OpenSet:
    """Disjoint union of intervals, relatively open in [0, 1].

    Endpoint inclusion is only legal at 0 (left) and 1 (right); that is
    what relative openness permits.
    """

    intervals: tuple[Iv, ...]

    def __init__(self, intervals):
        ivs = tuple(
            Iv(frac(l), frac(r), bool(lc), bool(rc)) for l, r, lc, rc in intervals
        )
        prev_right = None
        for iv in ivs:
            if not (0 <= iv.left < iv.right <= 1):
                raise ValueError(f"bad interval {iv}")
            if iv.left_closed and iv.left != 0:
                raise ValueError("left endpoint may be included only at 0")
            if iv.right_closed and iv.right != 1:
                raise ValueError("right endpoint may be included only at 1")
            if prev_right is not None and iv.left < prev_right:
                raise ValueError("intervals must be sorted and disjoint")
            prev_right = iv.right
        object.__setattr__(self, "intervals", ivs)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = frac(x)
        for iv in self.intervals:
            if iv.left < x < iv.right:
                return True
            if x == iv.left and iv.left_closed:
                return True
            if x == iv.right and iv.right_closed:
                return True
        return False


@dataclass(frozen=True)
class ClosedSet:
    """Finite union of closed intervals (points are degenerate intervals)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals):
        pieces = sorted((frac(a), frac(b)) for a, b in intervals)
        for a, b in pieces:
            if not (0 <= a <= b <= 1):
                raise ValueError(f"bad closed piece [{a}, {b}]")
        merged: list[list[Fraction]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        object.__setattr__(self, "intervals", tuple((a, b) for a, b in merged))

    def contains(self, x) -> bool:
        x = frac(x)
        return any(a <= x <= b for a, b in self.intervals)


# ---------------------------------------------------------------------------
# Piecewise-linear functions


def _lerp(x0: Fraction, v0: Fraction, x1: Fraction, v1: Fraction, x: Fraction) -> Fraction:
    """Value at x of the segment from (x0, v0) to (x1, v1)."""
    return v0 if v0 == v1 else v0 + (v1 - v0) * (x - x0) / (x1 - x0)


@dataclass(frozen=True)
class PLFn:
    """Continuous piecewise-linear function on [0, 1] with values >= 0."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __init__(self, breakpoints, values):
        bp = vector(breakpoints)
        vals = vector(values)
        if len(bp) != len(vals) or len(bp) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must strictly increase")
        if any(v < 0 for v in vals):
            raise ValueError("values must be non-negative")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, c) -> "PLFn":
        return cls((0, 1), (c, c))

    @classmethod
    def zero(cls) -> "PLFn":
        return cls.constant(0)

    def __call__(self, x) -> Fraction:
        x = frac(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        return self.on_grid((x,))[0]

    def on_grid(self, grid: Sequence[Fraction]) -> list[Fraction]:
        """Values at the points of a sorted grid in [0, 1], in one sweep.

        A moving breakpoint index walks the breakpoints once for the whole
        grid; values between breakpoints are linearly interpolated.
        """
        bp, vals = self.breakpoints, self.values
        if grid and grid[-1] > 1:
            raise ValueError("grid must be sorted within [0, 1]")
        out, i, prev = [], 0, 0
        for x in grid:
            if x < prev:
                raise ValueError("grid must be sorted within [0, 1]")
            prev = x
            while bp[i] < x:
                i += 1
            if bp[i] == x:
                out.append(vals[i])
            else:
                out.append(_lerp(bp[i - 1], vals[i - 1], bp[i], vals[i], x))
        return out

    def pointwise_max(self, other: "PLFn") -> "PLFn":
        """The pointwise maximum, in one walk over both breakpoint lists: the
        owner of each point is read, the other interpolated, and a crossing
        point goes in wherever the sign of the difference flips strictly."""
        xs, vs = self.breakpoints, self.values
        ys, ws = other.breakpoints, other.values
        x0, v0, d0 = xs[0], vs[0], vs[0] - ws[0]  # both start at 0
        pts, vals = [x0], [v0 if d0.numerator >= 0 else ws[0]]
        i = j = 1
        while i < len(xs):  # both end at 1, so they run out together
            at_x, at_y = xs[i] <= ys[j], ys[j] <= xs[i]
            x = xs[i] if at_x else ys[j]
            v = vs[i] if at_x else _lerp(xs[i - 1], vs[i - 1], xs[i], vs[i], x)
            w = ws[j] if at_y else _lerp(ys[j - 1], ws[j - 1], ys[j], ws[j], x)
            i, j = i + at_x, j + at_y
            d = v - w
            if d0.numerator * d.numerator < 0:  # the sign flips strictly inside
                t = d0 / (d0 - d)
                pts.append(x0 + (x - x0) * t)
                vals.append(v0 + (v - v0) * t)
            pts.append(x)
            vals.append(v if d.numerator >= 0 else w)
            x0, v0, d0 = x, v, d
        return PLFn(pts, vals)

    def minus_clamped(self, eps) -> "PLFn":
        """(self - eps) clamped below at zero, exactly: max(self, eps) - eps."""
        eps = frac(eps)
        if eps < 0:
            raise ValueError("eps must be non-negative")
        top = self.pointwise_max(PLFn.constant(eps))
        return PLFn(top.breakpoints, tuple(v - eps for v in top.values))

    def cozero(self) -> OpenSet:
        """The exact set where the function is positive.

        Between adjacent breakpoints the function is linear with
        non-negative endpoint values, so it vanishes on a whole segment or
        only at breakpoints; the positive set is a finite interval union.
        """
        bp, vals = self.breakpoints, self.values
        pieces = []
        start: Optional[tuple[Fraction, bool]] = None
        for i in range(len(bp) - 1):
            if vals[i] == 0 and vals[i + 1] == 0:
                if start is not None:
                    pieces.append((start[0], bp[i], start[1], False))
                    start = None
                continue
            if start is None:
                start = (bp[i], vals[i] > 0)
            elif vals[i] == 0:
                # positive on both sides of an interior zero: split there
                pieces.append((start[0], bp[i], start[1], False))
                start = (bp[i], False)
        if start is not None:
            pieces.append((start[0], bp[-1], start[1], vals[-1] > 0))
        return OpenSet(tuple(pieces))

    def range_pieces(self) -> ClosedSet:
        """Closure of the set of attained values."""
        segs = [
            (min(a, b), max(a, b)) for a, b in zip(self.values, self.values[1:])
        ]
        return ClosedSet(segs)


# ---------------------------------------------------------------------------
# Lower semicontinuous step functions


@dataclass(frozen=True)
class StepFn:
    """A lower semicontinuous step function on [0, 1].

    ``interval_values[i]`` is the value on the open interval between
    partition points i and i+1; ``point_values[i]`` is the value at
    partition point i.  Lower semicontinuity pins each point value at or
    below the neighbouring interval values.
    """

    partition: tuple[Fraction, ...]
    interval_values: tuple[Fraction, ...]
    point_values: tuple[Fraction, ...]

    def __init__(self, partition, interval_values, point_values):
        part = vector(partition)
        ivals = vector(interval_values)
        pvals = vector(point_values)
        if len(part) < 2 or part[0] != 0 or part[-1] != 1:
            raise ValueError("partition must run from 0 to 1")
        if any(a >= b for a, b in zip(part, part[1:])):
            raise ValueError("partition must strictly increase")
        if len(ivals) != len(part) - 1 or len(pvals) != len(part):
            raise ValueError("value counts do not match the partition")
        if any(v < 0 for v in ivals) or any(v < 0 for v in pvals):
            raise ValueError("values must be non-negative")
        for i, pv in enumerate(pvals):
            neighbours = []
            if i > 0:
                neighbours.append(ivals[i - 1])
            if i < len(ivals):
                neighbours.append(ivals[i])
            if pv > min(neighbours):
                raise ValueError(
                    f"not lower semicontinuous at {part[i]}: point value {pv} "
                    f"exceeds an adjacent interval value"
                )
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "interval_values", ivals)
        object.__setattr__(self, "point_values", pvals)

    def __call__(self, x) -> Fraction:
        x = frac(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        i = bisect_left(self.partition, x)
        if self.partition[i] == x:
            return self.point_values[i]
        return self.interval_values[i - 1]

    @property
    def sup(self) -> Fraction:
        return max(self.interval_values)

    def map_values(self, phi) -> "StepFn":
        return StepFn(
            self.partition,
            tuple(phi(v) for v in self.interval_values),
            tuple(phi(v) for v in self.point_values),
        )


def step_witnesses(f: StepFn, g: StepFn, holds) -> list[Fraction]:
    """Points of [0, 1] where ``holds(f(x), g(x))`` fails, one per failing piece.

    Both functions are constant on each open piece between consecutive
    points of the union of their partitions, so checking every such point
    and every piece decides the relation on all of [0, 1]; a failing piece
    is witnessed by its midpoint.  One walk reads both values off each piece.
    """
    fp, gp = f.partition, g.partition
    out, i, j = [], 0, 0
    while True:
        x = min(fp[i], gp[j])
        at_f, at_g = fp[i] == x, gp[j] == x
        fx = f.point_values[i] if at_f else f.interval_values[i - 1]
        gx = g.point_values[j] if at_g else g.interval_values[j - 1]
        if not holds(fx, gx):
            out.append(x)
        if x == 1:
            return out
        i, j = i + at_f, j + at_g  # the open piece after x ends at fp[i] or gp[j]
        if not holds(f.interval_values[i - 1], g.interval_values[j - 1]):
            out.append((x + min(fp[i], gp[j])) / 2)


def superlevel(f: StepFn, q) -> OpenSet:
    """The set where f > q; relatively open because f is lower semicontinuous.

    A point value never exceeds its neighbouring interval values, so each
    component starts at the left end of a piece above q (closed only at 0)
    and runs on to 1 or to the first partition point whose value is at most q.
    """
    q = frac(q)
    part, pvals = f.partition, f.point_values
    pieces, start = [], None
    for i, val in enumerate(f.interval_values):
        if val <= q:
            continue
        if start is None:
            start = part[i]
        if part[i + 1] == 1 or pvals[i + 1] <= q:
            closed_left = start == 0 and pvals[0] > q
            pieces.append((start, part[i + 1], closed_left, pvals[i + 1] > q))
            start = None
    return OpenSet(pieces)


def step_approximant(f: StepFn, n: int) -> StepFn:
    """Largest grid step function below f determined by the sublevels at k/n.

    Sends a value t to (k - 1)/n where k is minimal with t <= k/n; the
    result sits within 1/n below f and is again lower semicontinuous.
    """
    n = int(n)
    if n < 1:
        raise ValueError("grid size must be positive")
    if f.sup > 1:  # lower semicontinuity keeps every point value at or below the sup
        raise ValueError("approximation targets take values in [0, 1]")

    def phi(t: Fraction) -> Fraction:
        k = max(1, math.ceil(n * t))
        return Fraction(k - 1, n)

    return f.map_values(phi)


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant probability density on [0, 1]."""

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __init__(self, breakpoints, densities):
        bp = vector(breakpoints)
        dens = vector(densities)
        if len(bp) < 2 or bp[0] != 0 or bp[-1] != 1:
            raise ValueError("density breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("density breakpoints must strictly increase")
        if len(dens) != len(bp) - 1:
            raise ValueError("need one density per interval")
        if any(d < 0 for d in dens):
            raise ValueError("densities must be non-negative")
        total = sum(
            d * (b - a) for d, a, b in zip(dens, bp, bp[1:])
        )
        if total != 1:
            raise ValueError(f"density must integrate to 1, got {total}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "densities", dens)

    def cdf(self, t) -> Fraction:
        t = frac(t)
        if not 0 <= t <= 1:
            raise ValueError("argument outside [0, 1]")
        acc = Fraction(0)
        for d, a, b in zip(self.densities, self.breakpoints, self.breakpoints[1:]):
            if t <= a:
                break
            acc += d * (min(t, b) - a)
        return acc

    @property
    def everywhere_positive(self) -> bool:
        return all(d > 0 for d in self.densities)


@dataclass(frozen=True)
class MeasureSpec:
    """A probability measure: weighted continuous part plus finite atoms.

    The continuous part is ``lebesgue_weight`` times the (default uniform)
    ``density``; total mass must be exactly 1.
    """

    lebesgue_weight: Fraction
    atoms: tuple[tuple[Fraction, Fraction], ...]
    density: StepDensity

    def __init__(self, lebesgue_weight, atoms=(), density=None):
        lw = frac(lebesgue_weight)
        if lw < 0:
            raise ValueError("lebesgue weight must be non-negative")
        ats = tuple((frac(p), frac(w)) for p, w in atoms)
        seen = set()
        for p, w in ats:
            if not 0 <= p <= 1:
                raise ValueError("atoms must sit in [0, 1]")
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if p in seen:
                raise ValueError("atom points must be distinct")
            seen.add(p)
        mass = lw + sum((w for _, w in ats), Fraction(0))
        if mass != 1:
            raise ValueError(f"total mass must be 1, got {mass}")
        object.__setattr__(self, "lebesgue_weight", lw)
        object.__setattr__(self, "atoms", ats)
        object.__setattr__(self, "density", density or StepDensity((0, 1), (1,)))

    @property
    def atom_free(self) -> bool:
        return not self.atoms

    @property
    def full_support(self) -> bool:
        return self.lebesgue_weight > 0 and self.density.everywhere_positive


def lebesgue() -> MeasureSpec:
    return MeasureSpec(1)


def point_mass(x) -> MeasureSpec:
    return MeasureSpec(0, ((x, 1),))


def measure(mu: MeasureSpec, opens: OpenSet) -> Fraction:
    """Exact measure of an open set; endpoint flags matter only to atoms."""
    total = Fraction(0)
    if mu.lebesgue_weight > 0:
        for iv in opens.intervals:
            right, left = mu.density.cdf(iv.right), mu.density.cdf(iv.left)
            total += mu.lebesgue_weight * (right - left)
    for p, w in mu.atoms:
        if opens.contains(p):
            total += w
    return total


# ---------------------------------------------------------------------------
# Diagonal elements


@dataclass(frozen=True)
class DiagonalElement:
    """A diagonal of piecewise-linear entries, one slot per matrix row."""

    size: int
    entries: tuple[PLFn, ...]

    def __init__(self, size: int, entries):
        size = int(size)
        entries = tuple(entries)
        if size < 1 or len(entries) != size:
            raise ValueError("entry count must equal the size")
        if not all(isinstance(e, PLFn) for e in entries):
            raise TypeError("entries must be piecewise-linear functions")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)


def dim_fn(a: DiagonalElement, mu: MeasureSpec) -> Fraction:
    """Dimension value: average measure of the entries' cozero sets."""
    total = sum((measure(mu, e.cozero()) for e in a.entries), Fraction(0))
    return total / a.size


def dim_profile(a: DiagonalElement) -> StepFn:
    """The dimension function at every point mass, as an exact step function.

    Each distinct entry's cozero set is read once, weighted by the number
    of slots holding that entry object; one difference-array sweep over the
    union of the interval endpoints then counts the nonzero entries on every
    open piece and at every partition point.  Cozero sets are relatively
    open, so the result is lower semicontinuous.
    """
    distinct = {id(e): e for e in a.entries}
    weight = Counter(id(e) for e in a.entries)
    cozeros = [(e.cozero(), weight[key]) for key, e in distinct.items()]
    ends = {
        x for opens, _ in cozeros for iv in opens.intervals for x in (iv.left, iv.right)
    }
    part = sorted(ends | {Fraction(0), Fraction(1)})
    index = {x: i for i, x in enumerate(part)}
    # position 2i is partition point i, position 2i + 1 the open piece after it
    diff = [0] * (2 * len(part))
    for opens, w in cozeros:
        for iv in opens.intervals:
            lo, hi = 2 * index[iv.left], 2 * index[iv.right]
            diff[lo if iv.left_closed else lo + 1] += w
            diff[hi + 1 if iv.right_closed else hi] -= w
    counts, acc = [], 0
    for d in diff[:-1]:
        acc += d
        counts.append(Fraction(acc, a.size))
    return StepFn(part, counts[1::2], counts[::2])


def cutdown(a: DiagonalElement, eps) -> DiagonalElement:
    """Entrywise (g - eps) clamped at zero."""
    return DiagonalElement(a.size, tuple(e.minus_clamped(eps) for e in a.entries))


def spectrum(a: DiagonalElement) -> ClosedSet:
    """Closure of the union of attained entry values, together with 0."""
    pieces = [(Fraction(0), Fraction(0))]
    for e in a.entries:
        pieces.extend(e.range_pieces().intervals)
    return ClosedSet(pieces)


# ---------------------------------------------------------------------------
# Realization of step targets


def bump_on(opens: OpenSet, height) -> PLFn:
    """A piecewise-linear bump of the given height whose cozero set is exactly
    the given open set: tents on interior components, ramps against an
    included endpoint, constant when the set is all of [0, 1]."""
    height = frac(height)
    if height <= 0:
        raise ValueError("height must be positive")
    knots = [(Fraction(0), Fraction(0))]
    # Components are sorted and disjoint, so the knots come in order.  A left
    # endpoint equal to the last knot is 0 or an endpoint shared by two
    # components, which is 0 on both.  Midpoints lie strictly inside.
    for iv in opens.intervals:
        if iv.left_closed and iv.right_closed:
            return PLFn.constant(height)
        if iv.left == knots[-1][0]:
            knots.pop()
        knots.append((iv.left, height if iv.left_closed else Fraction(0)))
        if not (iv.left_closed or iv.right_closed):
            knots.append(((iv.left + iv.right) / 2, height))
        knots.append((iv.right, height if iv.right_closed else Fraction(0)))
    if knots[-1][0] != 1:
        knots.append((Fraction(1), Fraction(0)))
    return PLFn(*zip(*knots))


@dataclass(frozen=True)
class RealizationSchedule:
    """Matrix sizes n_1 | n_2 | ... for the stages, strictly increasing."""

    sizes: tuple[int, ...]

    def __init__(self, sizes):
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ValueError("need at least one stage size")
        if sizes[0] < 1:
            raise ValueError("sizes must be positive")
        for a, b in zip(sizes, sizes[1:]):
            if b <= a or b % a != 0:
                raise ValueError("sizes must strictly increase and divide")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def dyadic(cls, stages: int) -> "RealizationSchedule":
        if stages < 1:
            raise ValueError("need at least one stage")
        return cls(tuple(2**i for i in range(1, stages + 1)))


@dataclass(frozen=True)
class RealizationStage:
    index: int
    size: int
    element: DiagonalElement
    approximant: StepFn
    sup_increment: Fraction
    monotone: bool


@dataclass(frozen=True)
class RealizationResult:
    target: StepFn
    stages: tuple[RealizationStage, ...]


def _merge_slots(prev: Sequence[PLFn], n: int) -> list[PLFn]:
    """Distribute the previous entries over n slots so that the slot for
    grid index m only ever receives an entry whose cozero set contains the
    superlevel set {f > (m - 1)/n}.

    With r = n / len(prev), entry k of the previous stage fills slots
    (k-2)r + 2 .. (k-1)r + 1, one block lower than naive repetition; the
    zero entry fills slot 1 and the top r - 1 slots.  This keeps every
    slot's cozero set equal to its own superlevel set after merging.
    """
    r = n // len(prev)
    return [prev[0], *(e for e in prev[1:] for _ in range(r)), *[prev[0]] * (r - 1)]


def realize(f: StepFn, schedule: RealizationSchedule, stages: int) -> RealizationResult:
    """Diagonal elements whose pointwise dimension functions walk up to f.

    Stage i of size n uses one zero entry plus bumps of height 2^-i whose
    cozero sets are exactly the superlevel sets {f > (k-1)/n} of f at the
    grid levels; previous entries merge in by pointwise
    maximum.  Each stage's dimension function at the point mass in x equals
    the stage approximant of f at x, exactly.  Slots share their immutable
    entries: each distinct bump and each distinct merge is built once.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    if stages > len(schedule.sizes):
        raise ValueError("schedule is shorter than the requested stages")
    if f.sup > 1:  # bounds the point values too, as in step_approximant
        raise ValueError("realization targets take values in [0, 1]")
    levels = sorted(set(f.interval_values) | set(f.point_values))
    records = []
    prev_entries: Optional[list[PLFn]] = None
    for idx in range(1, stages + 1):
        n = schedule.sizes[idx - 1]
        height = Fraction(1, 2**idx)
        zero = PLFn.zero()
        # {f > q} is fixed by the values of f above q: one bump per open set
        bumps: dict[int, PLFn] = {}
        fresh = [zero]
        for k in range(2, n + 1):
            q = Fraction(k - 1, n)
            key = bisect_right(levels, q)
            if key not in bumps:
                opens = superlevel(f, q)
                bumps[key] = zero if opens.is_empty else bump_on(opens, height)
            fresh.append(bumps[key])
        if prev_entries is None:
            embedded: list[PLFn] = [zero] * n
        else:
            embedded = _merge_slots(prev_entries, n)
        # slots share entries, so each distinct (old, bump) pair is merged once
        merged: dict[tuple[int, int], PLFn] = {}
        entries, increment, monotone = [], Fraction(0), True
        for old, bump in zip(embedded, fresh):
            key = id(old), id(bump)
            if key not in merged:
                new = merged[key] = old.pointwise_max(bump)
                # new's breakpoints contain old's, so both are linear between
                # them: read old at its own breakpoints, interpolate in between
                xs, vs, i = old.breakpoints, old.values, 0
                for x, now in zip(new.breakpoints, new.values):
                    if x == xs[i]:
                        was, i = vs[i], i + 1
                    else:
                        was = _lerp(xs[i - 1], vs[i - 1], xs[i], vs[i], x)
                    if now != was:
                        increment = max(increment, abs(now - was))
                        monotone = monotone and was <= now
                if i != len(xs):
                    raise RuntimeError("a merged entry lost a breakpoint of the old entry")
            entries.append(merged[key])
        records.append(
            RealizationStage(
                index=idx,
                size=n,
                element=DiagonalElement(n, tuple(entries)),
                approximant=step_approximant(f, n),
                sup_increment=increment,
                monotone=monotone,
            )
        )
        prev_entries = entries
    return RealizationResult(f, tuple(records))


def dimension_discrepancies(result: RealizationResult) -> list[tuple[int, Fraction]]:
    """Points of [0, 1] where a stage's dimension function misses the approximant.

    Compares each stage's exact ``dim_profile`` with its approximant on
    every partition point and open piece, so an empty list means equality
    at every point of [0, 1].  Returns (stage index, witness) pairs: a bad
    partition point, or the midpoint of a bad open piece.
    """
    return [
        (stage.index, p)
        for stage in result.stages
        for p in step_witnesses(
            dim_profile(stage.element), stage.approximant, operator.eq
        )
    ]


# ---------------------------------------------------------------------------
# Comparison helpers


def comparison_lemma_check(a: DiagonalElement, eps, eta, delta, mu: MeasureSpec) -> bool:
    """Strict dimension drop across a spectral gap.

    Requires rationals 0 < eps < eta < delta, all in the spectrum of a, and
    an atom-free fully supported measure; then the cutdown at delta must
    have strictly smaller dimension than the cutdown at eps.  Violated
    preconditions raise, they do not return False.
    """
    eps, eta, delta = frac(eps), frac(eta), frac(delta)
    if not 0 < eps < eta < delta:
        raise ValueError("need 0 < eps < eta < delta")
    spec = spectrum(a)
    for name, value in (("eps", eps), ("eta", eta), ("delta", delta)):
        if not spec.contains(value):
            raise ValueError(f"{name} = {value} is not in the spectrum")
    if not mu.atom_free:
        raise ValueError("measure must be atom-free")
    if not mu.full_support:
        raise ValueError("measure must have full support")
    return dim_fn(cutdown(a, delta), mu) < dim_fn(cutdown(a, eps), mu)
