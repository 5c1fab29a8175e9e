"""Realizing strictly positive trace profiles from below by lattice stages.

Two constructions on positive rational n-vectors:

* a dyadic staircase g_i with coordinates (floor(2^i f) - 1) / 2^i, strictly
  increasing in i, strictly below f, with sup gap at most 2^(1-i), whose
  increments form a summable telescope;
* a sup-realization by vectors over a fixed divisibility chain of
  denominators, non-decreasing and strictly below f with gap at most
  2 / m_i at stage i.

Plus a density heuristic for whether a denominator chain can reach every
state value within a prescribed margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import vector
from .wmodel import K0Model


@dataclass(frozen=True)
class DenseSubgroupSpec:
    """A divisibility chain of denominators m_1 | m_2 | ... , increasing."""

    denominators: tuple[int, ...]
    max_denominator: int = 2**30

    def __init__(self, denominators, max_denominator: int = 2**30):
        dens = tuple(int(d) for d in denominators)
        if not dens:
            raise ValueError("need at least one denominator")
        if any(d < 1 for d in dens):
            raise ValueError("denominators must be positive")
        for a, b in zip(dens, dens[1:]):
            if b <= a or b % a != 0:
                raise ValueError("denominators must strictly increase and divide")
        if dens[-1] > max_denominator:
            raise ValueError("denominator chain exceeds the configured maximum")
        object.__setattr__(self, "denominators", dens)
        object.__setattr__(self, "max_denominator", int(max_denominator))


def _positive_profile(f) -> tuple[Fraction, ...]:
    prof = vector(f)
    if not prof:
        raise ValueError("empty target")
    if any(v <= 0 for v in prof):
        raise ValueError("target profile must be strictly positive")
    return prof


def first_stage(f) -> int:
    """Least i such that every coordinate of the dyadic stage is positive."""
    prof = _positive_profile(f)
    i = 0
    while any(math.floor((1 << i) * v) < 2 for v in prof):
        i += 1
    return i


def dyadic_below(f, i: int) -> tuple[Fraction, ...]:
    """Stage i of the dyadic staircase under f.

    Coordinates are (floor(2^i f_j) - 1) / 2^i; requires i at or past the
    first stage with all coordinates positive.
    """
    prof = _positive_profile(f)
    if i < first_stage(prof):
        raise ValueError(f"stage {i} is below the first positive stage")
    scale = 1 << i
    return tuple(Fraction(math.floor(scale * v) - 1, scale) for v in prof)


@dataclass(frozen=True)
class DecompositionStage:
    index: int
    level: tuple[Fraction, ...]
    increment: tuple[Fraction, ...]
    sup_gap: Fraction


@dataclass(frozen=True)
class DecompositionReport:
    """Telescoping dyadic decomposition of a strictly positive profile."""

    target: tuple[Fraction, ...]
    stages: tuple[DecompositionStage, ...]
    increment_norm_total: Fraction

    @property
    def final_level(self) -> tuple[Fraction, ...]:
        return self.stages[-1].level


def summable_decomposition(f, i_max: int) -> DecompositionReport:
    """Stages first_stage(f) .. i_max with their increments and gap bounds.

    The increments h_i satisfy g_i = g_{i-1} + h_i (the first stage is its
    own increment) and their sup norms total at most sup(f) + 2.
    """
    prof = _positive_profile(f)
    start = first_stage(prof)
    if i_max < start:
        raise ValueError(f"need at least stage {start} for this target")
    stages = []
    prev = None
    total = Fraction(0)
    for i in range(start, i_max + 1):
        level = dyadic_below(prof, i)
        if prev is None:
            increment = level
        else:
            increment = tuple(a - b for a, b in zip(level, prev))
        sup_gap = max(a - b for a, b in zip(prof, level))
        total += max(increment)
        stages.append(DecompositionStage(i, level, increment, sup_gap))
        prev = level
    return DecompositionReport(prof, tuple(stages), total)


def projection_sup_realization(
    f, subgroup: DenseSubgroupSpec, i_max: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Non-decreasing stages strictly below f over the denominator chain.

    Stage i has coordinates (ceil(m_i f_j) - 1) / m_i clamped from below by
    the previous stage; divisibility keeps every stage inside the stage-i
    grid.  The gap obeys f - p_i <= 2 / m_i.
    """
    prof = _positive_profile(f)
    if i_max < 1:
        raise ValueError("need at least one stage")
    if i_max > len(subgroup.denominators):
        raise ValueError("denominator chain is shorter than the requested stages")
    out = []
    prev = None
    for i in range(i_max):
        m = subgroup.denominators[i]
        raw = tuple(Fraction(math.ceil(m * v) - 1, m) for v in prof)
        if prev is not None:
            raw = tuple(max(a, b) for a, b in zip(raw, prev))
        out.append(raw)
        prev = raw
    return tuple(out)


PLAUSIBLE = "plausible"
REFUTED = "refuted"


def condition_d_check(k0: K0Model, subgroup: DenseSubgroupSpec, eps) -> str:
    """Heuristic density check for a denominator chain against state values.

    Collects the state values of a small deterministic cone sample together
    with the top-denominator grid {k / m_L} and measures how far a point of
    [0, 1] can sit from that set.  Returns ``refuted`` when the covering
    radius exceeds eps, else ``plausible``.  A refutation at this scale is
    genuine; plausibility is only sample-deep.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    m_last = subgroup.denominators[-1]
    values = {Fraction(k, m_last) for k in range(m_last + 1)}
    samples = [tuple(k0.unit)]
    for i in range(k0.rank):
        e = tuple(1 if j == i else 0 for j in range(k0.rank))
        if k0.cone_member(e):
            samples.append(e)
    for v in samples:
        for s in k0.states(v):
            if 0 <= s <= 1:
                values.add(Fraction(s))
    points = sorted(values)
    radius = max(points[0] - 0, 1 - points[-1])
    for a, b in zip(points, points[1:]):
        radius = max(radius, (b - a) / 2)
    return REFUTED if radius > eps else PLAUSIBLE
