"""Realizing strictly positive trace profiles from below by lattice stages.

Two constructions on positive rational n-vectors:

* ``summable_decomposition``, a dyadic staircase g_i with coordinates
  (floor(2^i f) - 1) / 2^i from ``first_stage(f)`` on, strictly increasing,
  strictly below f, with sup gap at most 2^(1-i) and summable increments;
* a sup-realization by vectors over a divisibility chain of denominators,
  a ``goodearl.RealizationSchedule`` (the chain a step realization takes
  as matrix sizes), non-decreasing and strictly below f with gap at most
  2 / m_i at stage i.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .goodearl import RealizationSchedule, grid_below
from .linalg import Frozen, vector


def _positive_profile(f) -> tuple[Fraction, ...]:
    prof = vector(f)
    if not prof:
        raise ValueError("empty target")
    if any(v <= 0 for v in prof):
        raise ValueError("target profile must be strictly positive")
    return prof


def first_stage(f) -> int:
    """Least i such that every coordinate of the dyadic stage is positive.

    That is the least i with floor(2^i·p/q) >= 2, i.e. p·2^i >= 2q, at
    every coordinate p/q.  Per coordinate it is k = max(0, (2q).bit_length()
    - p.bit_length()) or k + 1, because for k > 0 the number p·2^k has the
    bit length of 2q; so no stage is tried one by one.
    """
    def least(v: Fraction) -> int:
        p, q2 = v.numerator, 2 * v.denominator
        k = max(0, q2.bit_length() - p.bit_length())
        return k if p << k >= q2 else k + 1

    return max(map(least, _positive_profile(f)))


class DecompositionStage(Frozen):
    __slots__ = ("index", "level", "increment", "sup_gap")
    index: int
    level: tuple[Fraction, ...]
    increment: tuple[Fraction, ...]
    sup_gap: Fraction


class DecompositionReport(Frozen):
    """Telescoping dyadic decomposition of a strictly positive profile."""

    __slots__ = ("target", "stages", "increment_norm_total")
    target: tuple[Fraction, ...]
    stages: tuple[DecompositionStage, ...]
    increment_norm_total: Fraction


def summable_decomposition(f, i_max: int) -> DecompositionReport:
    """Stages first_stage(f) .. i_max with their increments and gap bounds.

    Stage i is (floor(2^i f) - 1) / 2^i, positive as i >= first_stage(f).
    The increments h_i satisfy g_i = g_{i-1} + h_i (the first stage is its
    own increment) and their sup norms total at most sup(f) + 2.
    """
    prof = _positive_profile(f)
    start = first_stage(prof)
    if i_max < start:
        raise ValueError(f"need at least stage {start} for this target")
    stages = []
    prev = (0,) * len(prof)  # so the first stage is its own increment
    total = Fraction(0)
    for i in range(start, i_max + 1):
        scale = 1 << i
        level = tuple(Fraction(math.floor(scale * v) - 1, scale) for v in prof)
        increment = tuple(a - b for a, b in zip(level, prev))
        sup_gap = max(a - b for a, b in zip(prof, level))
        total += max(increment)
        stages.append(DecompositionStage(i, level, increment, sup_gap))
        prev = level
    return DecompositionReport(prof, tuple(stages), total)


def projection_sup_realization(
    f, schedule: RealizationSchedule, i_max: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Non-decreasing stages strictly below f over the denominator chain.

    Stage i has coordinates ``grid_below(f_j, m_i)`` = (ceil(m_i f_j) - 1) / m_i,
    with m_i the i-th entry of ``schedule.sizes``, and the gap obeys
    f - p_i <= 2 / m_i.
    Divisibility makes the stages non-decreasing: for v > 0 let
    a = ceil(m·v) - 1 and m' = k·m.  Then a/m < v gives a·k < m'·v, and
    a·k is an integer, so a·k <= ceil(m'·v) - 1, that is
    a/m <= (ceil(m'·v) - 1)/m'.
    """
    prof = _positive_profile(f)
    if i_max < 1:
        raise ValueError("need at least one stage")
    if i_max > len(schedule.sizes):
        raise ValueError("denominator chain is shorter than the requested stages")
    return tuple(
        tuple(grid_below(v, m) for v in prof)
        for m in schedule.sizes[:i_max]
    )
