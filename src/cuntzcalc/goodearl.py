"""Diagonal elements over [0, 1] with exact piecewise-linear entries.

Everything here is exact rational: piecewise-linear functions know their
cozero sets as finite unions of intervals with explicit endpoint flags
(sets are relatively open in [0, 1], so an endpoint flag can only be set at
0 or 1), lower semicontinuous step functions have superlevel sets
{f > q} that are open sets of the same kind; both are read off piece and
point flags in one walk.  A dimension function reads a diagonal element
through a measure on [0, 1]; ``dim_profile`` gives it at every point mass
at once, and ``dim_fn`` takes any measure given as a function on open sets.

The centerpiece is ``realize``: given a step target f with values in
[0, 1] and a divisibility schedule of matrix sizes, it builds diagonal
elements a_i whose dimension function at every point mass equals the
stage approximant of f exactly, with stage-to-stage sup-norm increments
at most 2^-i.  Each stage reads f only through that approximant: its bumps
sit on the approximant's superlevel sets.

``PLFn``, ``StepFn`` and ``OpenSet`` store every rational as its integer
form (numerator, denominator), in lowest terms with a positive denominator,
so a < b iff an·bd < bn·ad, and a == b iff the forms are equal.  Each class
has one check routine on forms, ``_init_forms``: the public constructor runs
it after converting its rationals once, and each walk that builds a value
runs it on the forms it made.  Every order question, sign test and
interpolation is decided on forms; a ``Fraction`` is built only at the edge
of the module: by the field accessors (``breakpoints``, ``values``,
``partition``, ``interval_values``, ``point_values``, ``intervals``), for a
stage's ``sup_increment``, a witness point, ``grid_below``, the value of a
function called at a point, and the height and levels that ``realize`` hands
to ``bump_on`` and ``superlevel``.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

from .linalg import Frozen, frac

Form = tuple[int, int]


def _form(x) -> Form:
    return frac(x).as_integer_ratio()


def _forms(xs) -> tuple[Form, ...]:
    return tuple(map(_form, xs))


def _reduced(n: int, d: int) -> Form:
    """The form of n/d, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _increasing(forms) -> bool:
    return all(an * bd < bn * ad for (an, ad), (bn, bd) in zip(forms, forms[1:]))


def _from_forms(cls, *forms):
    """A value of ``cls`` made from integer forms in lowest terms, checked by
    the class's one check routine as its public constructor checks it."""
    value = cls.__new__(cls)
    value._init_forms(*forms)
    return value


def _fractions(slot: str) -> property:
    """A read-only field that gives the forms stored in ``slot`` as Fractions."""
    return property(lambda self: tuple([Fraction(n, d) for n, d in getattr(self, slot)]))


def _locate(points, x) -> tuple[int, Form]:
    """The index of the first of the increasing forms at or above x, a point
    of [0, 1], and the form of x."""
    xn, xd = x = _form(x)
    if not 0 <= xn <= xd:
        raise ValueError("argument outside [0, 1]")
    return next(i for i, (n, d) in enumerate(points) if xn * d <= n * xd), x


class Iv(NamedTuple):
    """One interval of an open set, with endpoint inclusion flags."""

    left: Fraction
    right: Fraction
    left_closed: bool
    right_closed: bool


class OpenSet(Frozen):
    """Disjoint union of intervals, relatively open in [0, 1].

    Endpoint inclusion is only legal at 0 (left) and 1 (right); that is
    what relative openness permits.  Each interval is stored as (left form,
    right form, left_closed, right_closed); ``intervals`` reads them as
    ``Iv``s.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals):
        self._init_forms(
            tuple([(_form(l), _form(r), bool(lc), bool(rc)) for l, r, lc, rc in intervals])
        )

    def _init_forms(self, ivs):
        pn, pd = 0, 1  # the previous right end; 0 bounds the first left end
        for (ln, ld), (rn, rd), lc, rc in ivs:
            if not (0 <= ln and ln * rd < rn * ld and rn <= rd):
                raise ValueError(f"bad interval {Iv(Fraction(ln, ld), Fraction(rn, rd), lc, rc)}")
            if lc and ln != 0:
                raise ValueError("left endpoint may be included only at 0")
            if rc and rn != rd:
                raise ValueError("right endpoint may be included only at 1")
            if ln * pd < pn * ld:
                raise ValueError("intervals must be sorted and disjoint")
            pn, pd = rn, rd
        object.__setattr__(self, "_ivs", ivs)

    intervals = property(
        lambda self: tuple([Iv(Fraction(*l), Fraction(*r), lc, rc) for l, r, lc, rc in self._ivs])
    )


# ---------------------------------------------------------------------------
# Piecewise-linear functions


def _lerp(x0, v0, x1, v1, x) -> Form:
    """Value at x of the segment from (x0, v0) to (x1, v1), all given as
    integer forms; the value comes back as a (numerator, denominator) pair
    with a positive denominator but not in lowest terms."""
    if v0 == v1:
        return v0
    (an, ad), (bn, bd), (pn, pd), (qn, qd), (xn, xd) = v0, v1, x0, x1, x
    # v0 + (v1 - v0)(x - x0)/(x1 - x0) over the denominator ad·bd·span
    span = (qn * pd - pn * qd) * xd
    return an * bd * span + (bn * ad - an * bd) * (xn * pd - pn * xd) * qd, ad * bd * span


class PLFn(Frozen):
    """Continuous piecewise-linear function on [0, 1] with values >= 0,
    stored as the forms of its breakpoints and of its values there."""

    __slots__ = ("_bp", "_vals")

    def __init__(self, breakpoints, values):
        self._init_forms(_forms(breakpoints), _forms(values))

    def _init_forms(self, bp, vals):
        if len(bp) != len(vals) or len(bp) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        if bp[0][0] != 0 or bp[-1] != (1, 1):
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not _increasing(bp):
            raise ValueError("breakpoints must strictly increase")
        if any(n < 0 for n, _ in vals):
            raise ValueError("values must be non-negative")
        object.__setattr__(self, "_bp", bp)
        object.__setattr__(self, "_vals", vals)

    breakpoints = _fractions("_bp")
    values = _fractions("_vals")

    @classmethod
    def constant(cls, c) -> "PLFn":
        return cls((0, 1), (c, c))

    @classmethod
    def zero(cls) -> "PLFn":
        return cls.constant(0)

    def __call__(self, x) -> Fraction:
        bp, vals = self._bp, self._vals
        i, x = _locate(bp, x)
        if bp[i] == x:
            return Fraction(*vals[i])
        return Fraction(*_lerp(bp[i - 1], vals[i - 1], bp[i], vals[i], x))

    def pointwise_max(self, other: "PLFn") -> "PLFn":
        """The pointwise maximum, in one walk over both breakpoint lists: the
        owner of each point is read, the other interpolated, and a crossing
        point goes in wherever the sign of the difference flips strictly.

        A read value is kept as the owner's form; an interpolated one is
        reduced only if it is the larger, and a crossing is interpolated at
        the integer ratio t of the two differences."""
        xs, vs, ys, ws = self._bp, self._vals, other._bp, other._vals
        # the last point and v, w and the sign of v - w there; both start at 0
        x0, a0, b0 = xs[0], vs[0], ws[0]
        s0 = a0[0] * b0[1] - b0[0] * a0[1]
        pts, vals = [x0], [a0 if s0 >= 0 else b0]
        i = j = 1
        while i < len(xs):  # both end at 1, so they run out together
            (xn, xd), (yn, yd) = xs[i], ys[j]
            c = xn * yd - yn * xd  # the sign of xs[i] - ys[j]
            x = xs[i] if c <= 0 else ys[j]
            a = vs[i] if c <= 0 else _lerp(xs[i - 1], vs[i - 1], xs[i], vs[i], x)
            b = ws[j] if c >= 0 else _lerp(ys[j - 1], ws[j - 1], ys[j], ws[j], x)
            s = a[0] * b[1] - b[0] * a[1]
            if s0 * s < 0:  # the sign flips strictly inside, at t = d0/(d0 - d)
                # with d0 = s0/(a0d·b0d) and d = s/(ad·bd), of opposite signs
                u, w = abs(s0) * a[1] * b[1], abs(s) * a0[1] * b0[1]
                t = u, u + w
                pts.append(_reduced(*_lerp((0, 1), x0, (1, 1), x, t)))
                vals.append(_reduced(*_lerp((0, 1), a0, (1, 1), a, t)))
            pts.append(x)
            if s >= 0:
                vals.append(a if c <= 0 else _reduced(*a))
            else:
                vals.append(b if c >= 0 else _reduced(*b))
            i, j = i + (c <= 0), j + (c >= 0)
            x0, a0, b0, s0 = x, a, b, s
        return _from_forms(PLFn, tuple(pts), tuple(vals))

    def minus_clamped(self, eps) -> "PLFn":
        """(self - eps) clamped below at zero, exactly: max(self, eps) - eps."""
        en, ed = _form(eps)
        if en < 0:
            raise ValueError("eps must be non-negative")
        top = self.pointwise_max(PLFn.constant(eps))
        cut = tuple([_reduced(n * ed - en * d, d * ed) for n, d in top._vals])
        return _from_forms(PLFn, top._bp, cut)

    def cozero(self) -> OpenSet:
        """The exact set where the function is positive.

        Between adjacent breakpoints the function is linear with
        non-negative endpoint values, so it is positive on the open piece
        iff it is at either end; a positive breakpoint has both of its
        pieces positive, which is what ``_components`` asks.
        """
        pos = [n > 0 for n, _ in self._vals]
        return _components(self._bp, [a or b for a, b in zip(pos, pos[1:])], pos)


# ---------------------------------------------------------------------------
# Lower semicontinuous step functions


class StepFn(Frozen):
    """A lower semicontinuous step function on [0, 1].

    ``interval_values[i]`` is the value on the open interval between
    partition points i and i+1; ``point_values[i]`` is the value at
    partition point i.  Lower semicontinuity pins each point value at or
    below the neighbouring interval values.  All three are stored as forms.
    """

    __slots__ = ("_part", "_ivals", "_pvals")

    def __init__(self, partition, interval_values, point_values):
        self._init_forms(_forms(partition), _forms(interval_values), _forms(point_values))

    def _init_forms(self, part, ivals, pvals):
        if len(part) < 2 or part[0][0] != 0 or part[-1] != (1, 1):
            raise ValueError("partition must run from 0 to 1")
        if not _increasing(part):
            raise ValueError("partition must strictly increase")
        if len(ivals) != len(part) - 1 or len(pvals) != len(part):
            raise ValueError("value counts do not match the partition")
        if any(n < 0 for n, _ in ivals) or any(n < 0 for n, _ in pvals):
            raise ValueError("values must be non-negative")
        for i, (n, d) in enumerate(pvals):
            # the neighbouring interval values, ivals[i - 1] and ivals[i]
            if any(n * md > mn * d for mn, md in ivals[max(i - 1, 0) : i + 1]):
                raise ValueError(
                    f"not lower semicontinuous at {Fraction(*part[i])}: point value "
                    f"{Fraction(n, d)} exceeds an adjacent interval value"
                )
        object.__setattr__(self, "_part", part)
        object.__setattr__(self, "_ivals", ivals)
        object.__setattr__(self, "_pvals", pvals)

    partition = _fractions("_part")
    interval_values = _fractions("_ivals")
    point_values = _fractions("_pvals")

    def __call__(self, x) -> Fraction:
        i, x = _locate(self._part, x)
        return Fraction(*(self._pvals[i] if self._part[i] == x else self._ivals[i - 1]))


def step_witnesses(f: StepFn, g: StepFn, holds) -> list[Fraction]:
    """Points of [0, 1] where ``holds(f(x), g(x))`` fails, one per failing piece.

    Both functions are constant on each open piece between consecutive
    points of the union of their partitions, so checking every such point
    and every piece decides the relation on all of [0, 1]; a failing piece
    is witnessed by its midpoint.  One walk reads both values off each piece
    and hands them to ``holds`` as integer forms.
    """
    fp, gp, fi, gi = f._part, g._part, f._ivals, g._ivals
    out, i, j = [], 0, 0
    while True:
        (fn, fd), (gn, gd) = fp[i], gp[j]
        c = fn * gd - gn * fd  # the sign of fp[i] - gp[j]
        at_f, at_g = c <= 0, c >= 0
        x = fp[i] if at_f else gp[j]
        fx = f._pvals[i] if at_f else fi[i - 1]
        gx = g._pvals[j] if at_g else gi[j - 1]
        if not holds(fx, gx):
            out.append(Fraction(*x))
        if at_f and i == len(fp) - 1:  # x is 1, where both partitions end
            return out
        i, j = i + at_f, j + at_g  # the open piece after x ends at fp[i] or gp[j]
        if not holds(fi[i - 1], gi[j - 1]):
            (xn, xd), (pn, pd), (qn, qd) = x, fp[i], gp[j]
            yn, yd = fp[i] if pn * qd <= qn * pd else gp[j]
            out.append(Fraction(xn * yd + yn * xd, 2 * xd * yd))


def _components(points, on_piece, at_point) -> OpenSet:
    """The open set made of the flagged pieces and points, given as forms.

    ``on_piece[i]`` flags the open piece between ``points[i]`` and
    ``points[i + 1]``, and ``at_point[i]`` flags ``points[i]``; a flagged
    point must have every piece next to it flagged, as lower semicontinuity
    gives.  So each component is a run of flagged pieces joined at flagged
    points, and it includes an end point only at 0 or 1.
    """
    last = len(on_piece) - 1
    pieces, start = [], None
    for i, flagged in enumerate(on_piece):
        if not flagged:
            continue
        if start is None:
            start = i
        if i == last or not at_point[i + 1]:
            closed_left = start == 0 and at_point[0]
            pieces.append((points[start], points[i + 1], closed_left, at_point[i + 1]))
            start = None
    return _from_forms(OpenSet, tuple(pieces))


def superlevel(f: StepFn, q) -> OpenSet:
    """The set where f > q; relatively open because f is lower semicontinuous.

    A point value never exceeds its neighbouring interval values, so a point
    above q has both of its pieces above q, as ``_components`` asks.
    ``realize`` reads it on stage approximants only, at their own levels.
    """
    qn, qd = _form(q)
    on_piece = [n * qd > qn * d for n, d in f._ivals]
    at_point = [n * qd > qn * d for n, d in f._pvals]
    return _components(f._part, on_piece, at_point)


def _grid_form(t: Form, n: int) -> Form:
    p, q = t
    return _reduced(max(1, -(-n * p // q)) - 1, n)


def grid_below(t, n: int) -> Fraction:
    """(max(1, ceil(n·t)) - 1)/n: the largest k/n strictly below t > 0, and 0
    for t <= 0.  The ceiling is taken on the integers of t."""
    return Fraction(*_grid_form(t.as_integer_ratio(), n))


def step_approximant(f: StepFn, n: int) -> StepFn:
    """Largest grid step function below f determined by the sublevels at k/n.

    Sends a value t to ``grid_below(t, n)``, that is (k - 1)/n where k is
    minimal with t <= k/n; the result sits within 1/n below f and is again
    lower semicontinuous.
    """
    n = int(n)
    if n < 1:
        raise ValueError("grid size must be positive")
    # lower semicontinuity keeps every point value at or below the sup
    if any(p > q for p, q in f._ivals):
        raise ValueError("realization targets take values in [0, 1]")
    return _from_forms(
        StepFn,
        f._part,
        tuple([_grid_form(t, n) for t in f._ivals]),
        tuple([_grid_form(t, n) for t in f._pvals]),
    )


# ---------------------------------------------------------------------------
# Diagonal elements


class DiagonalElement(Frozen):
    """A diagonal of piecewise-linear entries, one slot per matrix row."""

    __slots__ = ("size", "entries")
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


def dim_fn(a: DiagonalElement, mu: Callable[[OpenSet], Fraction]) -> Fraction:
    """The dimension value d_μ(a): the average of μ(coz e) over the entries,
    where ``mu`` gives the measure of an open set."""
    return sum((mu(e.cozero()) for e in a.entries), Fraction(0)) / a.size


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
    cozeros = [(e.cozero()._ivs, weight[key]) for key, e in distinct.items()]
    ends = {(0, 1), (1, 1)}
    for ivs, _ in cozeros:
        for left, right, _, _ in ivs:
            ends.add(left)
            ends.add(right)
    # over one common denominator the numerators order the points exactly
    common = lcm(*(d for _, d in ends))
    part = sorted(ends, key=lambda x: x[0] * (common // x[1]))
    index = {x: i for i, x in enumerate(part)}
    # position 2i is partition point i, position 2i + 1 the open piece after it
    diff = [0] * (2 * len(part))
    for ivs, w in cozeros:
        for left, right, left_closed, right_closed in ivs:
            lo, hi = 2 * index[left], 2 * index[right]
            diff[lo if left_closed else lo + 1] += w
            diff[hi + 1 if right_closed else hi] -= w
    counts = list(accumulate(diff[:-1]))
    value = {c: _reduced(c, a.size) for c in set(counts)}  # one per distinct count
    values = [value[c] for c in counts]
    return _from_forms(StepFn, tuple(part), tuple(values[1::2]), tuple(values[::2]))


# ---------------------------------------------------------------------------
# Realization of step targets


def bump_on(opens: OpenSet, height) -> PLFn:
    """A piecewise-linear bump of the given height whose cozero set is exactly
    the given open set: tents on interior components, ramps against an
    included endpoint, constant when the set is all of [0, 1]."""
    height = _form(height)
    if height[0] <= 0:
        raise ValueError("height must be positive")
    zero = (0, 1)
    knots, last = [(zero, zero)], zero  # last: the last knot
    # Components are sorted and disjoint, so the knots come in order.  A left
    # endpoint equal to the last knot is 0 or an endpoint shared by two
    # components, which is 0 on both.  Midpoints lie strictly inside.
    for left, right, left_closed, right_closed in opens._ivs:
        if left_closed and right_closed:
            return _from_forms(PLFn, (zero, (1, 1)), (height, height))
        if left == last:
            knots.pop()
        knots.append((left, height if left_closed else zero))
        if not (left_closed or right_closed):
            (ln, ld), (rn, rd) = left, right
            knots.append((_reduced(ln * rd + rn * ld, 2 * ld * rd), height))
        knots.append((right, height if right_closed else zero))
        last = right
    if last != (1, 1):
        knots.append(((1, 1), zero))
    return _from_forms(PLFn, *zip(*knots))


class RealizationSchedule(Frozen):
    """A divisibility chain n_1 | n_2 | ..., strictly increasing: the matrix
    sizes of a step realization's stages, or the denominators of a vector
    realization's."""

    __slots__ = ("sizes",)
    sizes: tuple[int, ...]

    def __init__(self, sizes):
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ValueError("schedule needs at least one entry")
        if sizes[0] < 1:
            raise ValueError("schedule entries must be positive")
        for a, b in zip(sizes, sizes[1:]):
            if b <= a or b % a != 0:
                raise ValueError("schedule entries must strictly increase and divide")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def dyadic(cls, stages: int) -> "RealizationSchedule":
        return cls(tuple(2**i for i in range(1, stages + 1)))


class RealizationStage(Frozen):
    __slots__ = ("index", "size", "element", "approximant", "sup_increment", "monotone")
    index: int
    size: int
    element: DiagonalElement
    approximant: StepFn
    sup_increment: Fraction
    monotone: bool


class RealizationResult(Frozen):
    __slots__ = ("target", "stages")
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


def _increment(old: PLFn, new: PLFn) -> tuple[Form, bool]:
    """sup |new - old| as a (numerator, denominator) pair, not reduced, and
    whether new >= old everywhere, for a ``new`` whose breakpoints contain
    old's.  Both are linear between new's breakpoints, so those decide both:
    old is read at its own breakpoints and interpolated in between."""
    xs, vs, i = old._bp, old._vals, 0
    top_n, top_d, rose = 0, 1, True
    for x, (nn, nd) in zip(new._bp, new._vals):
        if x == xs[i]:
            (wn, wd), i = vs[i], i + 1
        else:
            wn, wd = _lerp(xs[i - 1], vs[i - 1], xs[i], vs[i], x)
        gap = nn * wd - wn * nd  # (new - old)·nd·wd at x
        if abs(gap) * top_d > top_n * nd * wd:
            top_n, top_d = abs(gap), nd * wd
        rose = rose and gap >= 0
    if i != len(xs):
        raise RuntimeError("a merged entry lost a breakpoint of the old entry")
    return (top_n, top_d), rose


def realize(f: StepFn, schedule: RealizationSchedule, stages: int) -> RealizationResult:
    """Diagonal elements whose pointwise dimension functions walk up to f.

    Stage i of size n reads f only through g = ``step_approximant(f, n)``: one
    zero entry plus bumps of height 2^-i on the superlevel sets {f > (k-1)/n}
    = {g > (k-2)/n}, one bump per positive level of g; previous entries merge
    in by pointwise maximum.  Each stage's dimension function at the point
    mass in x equals g(x), exactly.  Slots share their immutable entries: each
    distinct bump and each distinct merge is built once.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    if stages > len(schedule.sizes):
        raise ValueError("schedule is shorter than the requested stages")
    records = []
    zero = PLFn.zero()
    prev_entries = [zero]  # _merge_slots spreads it over n zero slots
    for idx in range(1, stages + 1):
        n = schedule.sizes[idx - 1]
        height = Fraction(1, 2**idx)
        approximant = step_approximant(f, n)
        # slot m takes {f > m/n} = {approximant > (m - 1)/n}: slots low + 1 ..
        # high share {approximant > low/n} between consecutive levels low/n <
        # high/n, and the slots above the top level take the zero entry
        values = {*approximant._ivals, *approximant._pvals}
        fresh, low = [zero], 0
        for high in sorted(n // q * p for p, q in values if p):
            opens = superlevel(approximant, Fraction(low, n))
            fresh += [bump_on(opens, height)] * (high - low)
            low = high
        fresh += [zero] * (n - 1 - low)
        embedded = _merge_slots(prev_entries, n)
        # slots share entries, so each distinct (old, bump) pair is merged once
        merged: dict[tuple[int, int], PLFn] = {}
        entries, (top_n, top_d), monotone = [], (0, 1), True
        for old, bump in zip(embedded, fresh):
            key = id(old), id(bump)
            if key not in merged:
                new = merged[key] = old.pointwise_max(bump)
                (sn, sd), rose = _increment(old, new)
                if sn * top_d > top_n * sd:
                    top_n, top_d = sn, sd
                monotone = monotone and rose
            entries.append(merged[key])
        records.append(
            RealizationStage(
                index=idx,
                size=n,
                element=DiagonalElement(n, tuple(entries)),
                approximant=approximant,
                sup_increment=Fraction(top_n, top_d),
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
