"""Diagonal elements over [0, 1] with exact piecewise-linear entries.

Everything here is exact rational: piecewise-linear functions know their
cozero sets as finite unions of intervals with explicit endpoint flags
(sets are relatively open in [0, 1], so an endpoint flag can only be set at
0 or 1), lower semicontinuous step functions have sublevel sets that are
finite unions of closed intervals and points, and measures are a
piecewise-constant density plus finitely many atoms.

The centerpiece is ``realize``: given a step target f with values in
[0, 1] and a divisibility schedule of matrix sizes, it builds diagonal
elements a_i whose dimension function at every point mass equals the
stage approximant of f exactly, with stage-to-stage sup-norm increments
at most 2^-i.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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

    def total_length(self) -> Fraction:
        return sum((iv.right - iv.left for iv in self.intervals), Fraction(0))


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

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = frac(x)
        return any(a <= x <= b for a, b in self.intervals)


def complement_open(closed: ClosedSet) -> OpenSet:
    """[0, 1] minus a closed set, with relative-openness flags."""
    if closed.is_empty:
        return OpenSet(((Fraction(0), Fraction(1), True, True),))
    pieces = []
    first_a = closed.intervals[0][0]
    if first_a > 0:
        pieces.append((Fraction(0), first_a, True, False))
    for (_, b), (a2, _) in zip(closed.intervals, closed.intervals[1:]):
        pieces.append((b, a2, False, False))
    last_b = closed.intervals[-1][1]
    if last_b < 1:
        pieces.append((last_b, Fraction(1), False, True))
    return OpenSet(tuple(pieces))


# ---------------------------------------------------------------------------
# Piecewise-linear functions


def _merge_sorted(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sorted(set(a) | set(b)))


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
        bp = self.breakpoints
        lo, hi = 0, len(bp) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if bp[mid] <= x:
                lo = mid
            else:
                hi = mid
        if x == bp[hi]:
            return self.values[hi]
        v0, v1 = self.values[lo], self.values[hi]
        if v0 == v1:
            return v0
        return v0 + (v1 - v0) * (x - bp[lo]) / (bp[hi] - bp[lo])

    @property
    def sup(self) -> Fraction:
        return max(self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def _common_grid(self, other: "PLFn") -> tuple[Fraction, ...]:
        return _merge_sorted(self.breakpoints, other.breakpoints)

    def pointwise_max(self, other: "PLFn") -> "PLFn":
        grid = list(self._common_grid(other))
        # insert crossing points so the maximum stays piecewise linear
        extra = []
        for p, q in zip(grid, grid[1:]):
            d0 = self(p) - other(p)
            d1 = self(q) - other(q)
            if (d0 > 0 > d1) or (d0 < 0 < d1):
                extra.append(p + (q - p) * d0 / (d0 - d1))
        pts = _merge_sorted(grid, extra)
        return PLFn(pts, tuple(max(self(x), other(x)) for x in pts))

    def minus_clamped(self, eps) -> "PLFn":
        """The function (self - eps) clamped below at zero, exactly."""
        eps = frac(eps)
        if eps < 0:
            raise ValueError("eps must be non-negative")
        extra = []
        bp, vals = self.breakpoints, self.values
        for i in range(len(bp) - 1):
            d0, d1 = vals[i] - eps, vals[i + 1] - eps
            if (d0 > 0 > d1) or (d0 < 0 < d1):
                extra.append(bp[i] + (bp[i + 1] - bp[i]) * d0 / (d0 - d1))
        pts = _merge_sorted(bp, extra)
        return PLFn(pts, tuple(max(self(x) - eps, Fraction(0)) for x in pts))

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

    def leq(self, other: "PLFn") -> bool:
        grid = self._common_grid(other)
        return all(self(x) <= other(x) for x in grid)

    def sup_abs_diff(self, other: "PLFn") -> Fraction:
        grid = self._common_grid(other)
        return max(abs(self(x) - other(x)) for x in grid)


@lru_cache(maxsize=None)
def coz(g: PLFn) -> OpenSet:
    """Cached cozero set; realization stages query it repeatedly."""
    return g.cozero()


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

    @classmethod
    def constant(cls, c) -> "StepFn":
        return cls((0, 1), (c,), (c, c))

    def __call__(self, x) -> Fraction:
        x = frac(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        part = self.partition
        lo, hi = 0, len(part) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if part[mid] <= x:
                lo = mid
            else:
                hi = mid
        if x == part[lo]:
            return self.point_values[lo]
        if x == part[hi]:
            return self.point_values[hi]
        return self.interval_values[lo]

    @property
    def sup(self) -> Fraction:
        return max(self.interval_values)

    def refine(self, points) -> "StepFn":
        """The same function with extra partition points inserted."""
        extra = sorted(set(frac(p) for p in points) - set(self.partition))
        part = list(self.partition)
        ivals = list(self.interval_values)
        pvals = list(self.point_values)
        for p in extra:
            for i in range(len(part) - 1):
                if part[i] < p < part[i + 1]:
                    part.insert(i + 1, p)
                    pvals.insert(i + 1, ivals[i])
                    ivals.insert(i + 1, ivals[i])
                    break
        return StepFn(tuple(part), tuple(ivals), tuple(pvals))

    def map_values(self, phi) -> "StepFn":
        return StepFn(
            self.partition,
            tuple(phi(v) for v in self.interval_values),
            tuple(phi(v) for v in self.point_values),
        )


def common_refinement(f: StepFn, g: StepFn) -> tuple[StepFn, StepFn]:
    pts = set(f.partition) | set(g.partition)
    return f.refine(pts), g.refine(pts)


def sublevel(f: StepFn, q) -> ClosedSet:
    """The set where f <= q; closed because f is lower semicontinuous."""
    q = frac(q)
    pieces = []
    for i, val in enumerate(f.interval_values):
        if val <= q:
            pieces.append((f.partition[i], f.partition[i + 1]))
    for i, val in enumerate(f.point_values):
        if val <= q:
            pieces.append((f.partition[i], f.partition[i]))
    return ClosedSet(pieces)


def step_approximant(f: StepFn, n: int) -> StepFn:
    """Largest grid step function below f determined by the sublevels at k/n.

    Sends a value t to (k - 1)/n where k is minimal with t <= k/n; the
    result sits within 1/n below f and is again lower semicontinuous.
    """
    n = int(n)
    if n < 1:
        raise ValueError("grid size must be positive")
    if f.sup > 1 or max(f.point_values) > 1:
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

    @classmethod
    def uniform(cls) -> "StepDensity":
        return cls((0, 1), (1,))

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
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    density: Optional[StepDensity] = None

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
        object.__setattr__(self, "density", density)

    @property
    def atom_free(self) -> bool:
        return not self.atoms

    @property
    def full_support(self) -> bool:
        if self.lebesgue_weight <= 0:
            return False
        return self.density is None or self.density.everywhere_positive

    def _cdf(self, t) -> Fraction:
        if self.density is None:
            return frac(t)
        return self.density.cdf(t)


def lebesgue() -> MeasureSpec:
    return MeasureSpec(1)


def point_mass(x) -> MeasureSpec:
    return MeasureSpec(0, ((x, 1),))


def measure(mu: MeasureSpec, opens: OpenSet) -> Fraction:
    """Exact measure of an open set; endpoint flags matter only to atoms."""
    total = Fraction(0)
    if mu.lebesgue_weight > 0:
        for iv in opens.intervals:
            total += mu.lebesgue_weight * (mu._cdf(iv.right) - mu._cdf(iv.left))
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

    @property
    def sup(self) -> Fraction:
        return max(e.sup for e in self.entries)


def dim_fn(a: DiagonalElement, mu: MeasureSpec) -> Fraction:
    """Dimension value: average measure of the entries' cozero sets."""
    total = sum((measure(mu, coz(e)) for e in a.entries), Fraction(0))
    return total / a.size


def cutdown(a: DiagonalElement, eps) -> DiagonalElement:
    """Entrywise (g - eps) clamped at zero."""
    return DiagonalElement(a.size, tuple(e.minus_clamped(eps) for e in a.entries))


def spectrum(a: DiagonalElement) -> ClosedSet:
    """Closure of the union of attained entry values, together with 0."""
    pieces = [(Fraction(0), Fraction(0))]
    for e in a.entries:
        pieces.extend(e.range_pieces().intervals)
    return ClosedSet(pieces)


class SpectrumKind(enum.Enum):
    PROJECTION_LIKE = "projection-like"
    PURELY_POSITIVE = "purely-positive"


def spectrum_classify(a: DiagonalElement) -> SpectrumKind:
    """Projection-like iff 0 is isolated in the spectrum."""
    for lo, hi in spectrum(a).intervals:
        if lo == 0 and hi > 0:
            return SpectrumKind.PURELY_POSITIVE
    return SpectrumKind.PROJECTION_LIKE


def compare_elements(
    a: DiagonalElement, b: DiagonalElement, traces: Sequence[MeasureSpec]
) -> bool:
    """Decide a below b from dimension values over the given traces.

    A purely positive a needs non-strict inequality everywhere; a
    projection-like a below a purely positive b needs strict inequality at
    every trace; two projection-like elements compare non-strictly.
    """
    if not traces:
        raise ValueError("need at least one trace")
    da = [dim_fn(a, mu) for mu in traces]
    db = [dim_fn(b, mu) for mu in traces]
    if spectrum_classify(a) is SpectrumKind.PROJECTION_LIKE and (
        spectrum_classify(b) is SpectrumKind.PURELY_POSITIVE
    ):
        return all(x < y for x, y in zip(da, db))
    return all(x <= y for x, y in zip(da, db))


# ---------------------------------------------------------------------------
# Realization of step targets


def bump_on(opens: OpenSet, height) -> PLFn:
    """A piecewise-linear bump of the given height whose cozero set is exactly
    the given open set: tents on interior components, ramps against an
    included endpoint, constant when the set is all of [0, 1]."""
    height = frac(height)
    if height <= 0:
        raise ValueError("height must be positive")
    knots: dict[Fraction, Fraction] = {Fraction(0): Fraction(0), Fraction(1): Fraction(0)}

    def put(x, v):
        old = knots.get(x)
        if old is not None and old != v and x not in (0, 1):
            raise ValueError("conflicting bump knots")
        knots[x] = v

    for iv in opens.intervals:
        if iv.left_closed and iv.right_closed:
            return PLFn.constant(height)
        if iv.left_closed:
            put(iv.left, height)
            put(iv.right, Fraction(0))
        elif iv.right_closed:
            put(iv.left, Fraction(0))
            put(iv.right, height)
        else:
            put(iv.left, Fraction(0))
            put((iv.left + iv.right) / 2, height)
            put(iv.right, Fraction(0))
    points = tuple(sorted(knots))
    return PLFn(points, tuple(knots[p] for p in points))


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
    complement of the sublevel set at (m - 1)/n.

    Entry k of the previous stage goes to slots (k-2)r + 2 .. (k-1)r + 1,
    one block lower than naive repetition; the zero entry fills slot 1 and
    the top r - 1 slots.  This keeps every slot's cozero set equal to the
    complement of its own sublevel set after merging.
    """
    n_prev = len(prev)
    r = n // n_prev
    slots: list[Optional[PLFn]] = [None] * n
    slots[0] = prev[0]
    for k in range(2, n_prev + 1):
        for m in range((k - 2) * r + 2, (k - 1) * r + 2):
            slots[m - 1] = prev[k - 1]
    for m in range((n_prev - 1) * r + 2, n + 1):
        slots[m - 1] = prev[0]
    assert all(s is not None for s in slots)
    return slots  # type: ignore[return-value]


def realize(f: StepFn, schedule: RealizationSchedule, stages: int) -> RealizationResult:
    """Diagonal elements whose pointwise dimension functions walk up to f.

    Stage i of size n uses one zero entry plus bumps of height 2^-i whose
    cozero sets are exactly the complements of the sublevel sets of f at
    the grid levels (k-1)/n; previous entries merge in by pointwise
    maximum.  Each stage's dimension function at the point mass in x equals
    the stage approximant of f at x, exactly.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    if stages > len(schedule.sizes):
        raise ValueError("schedule is shorter than the requested stages")
    if f.sup > 1 or max(f.point_values) > 1:
        raise ValueError("realization targets take values in [0, 1]")
    records = []
    prev_entries: Optional[list[PLFn]] = None
    for idx in range(1, stages + 1):
        n = schedule.sizes[idx - 1]
        height = Fraction(1, 2**idx)
        fresh = [PLFn.zero()]
        for k in range(2, n + 1):
            opens = complement_open(sublevel(f, Fraction(k - 1, n)))
            fresh.append(PLFn.zero() if opens.is_empty else bump_on(opens, height))
        if prev_entries is None:
            embedded: list[PLFn] = [PLFn.zero()] * n
        else:
            embedded = _merge_slots(prev_entries, n)
        entries = [e.pointwise_max(b) for e, b in zip(embedded, fresh)]
        increment = max(
            new.sup_abs_diff(old) for new, old in zip(entries, embedded)
        )
        monotone = all(old.leq(new) for new, old in zip(entries, embedded))
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


def dimension_discrepancies(
    result: RealizationResult, points: Sequence
) -> list[tuple[int, Fraction]]:
    """Grid points where a stage's dimension value misses the approximant.

    Returns (stage index, point) pairs; the construction promises an empty
    list at every rational point, not just small error.
    """
    bad = []
    for stage in result.stages:
        for p in points:
            p = frac(p)
            if dim_fn(stage.element, point_mass(p)) != stage.approximant(p):
                bad.append((stage.index, p))
    return bad


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


def open_set_of_measure(mu: MeasureSpec, lam) -> OpenSet:
    """The left-anchored open interval (0, t) of prescribed measure.

    Needs an atom-free measure so the distribution function is continuous
    and the inverse image is exact; zero-density stretches are skipped by
    the walk, the returned right endpoint always sits where mass accrues.
    """
    lam = frac(lam)
    if not 0 < lam <= 1:
        raise ValueError("the measure value must lie in (0, 1]")
    if not mu.atom_free:
        raise ValueError("measure must be atom-free")
    if mu.lebesgue_weight <= 0:
        raise ValueError("measure must have a continuous part")
    density = mu.density or StepDensity.uniform()
    target = lam / mu.lebesgue_weight
    acc = Fraction(0)
    for d, a, b in zip(density.densities, density.breakpoints, density.breakpoints[1:]):
        chunk = d * (b - a)
        if acc + chunk >= target:
            t = a + (target - acc) / d
            return OpenSet(((Fraction(0), t, False, False),))
        acc += chunk
    raise ValueError("measure exhausted before reaching the target")
