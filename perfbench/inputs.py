"""Seeded inputs for the benchmark, in the cuntzcalc document format.

Nothing here imports cuntzcalc, so a change to the program (its
``sampling`` module included) cannot change what the benchmark feeds it.
Every rational is written as a string such as "3/4"; no float is ever
written.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rng_for(workload: str, seed: int, tag) -> random.Random:
    """Independent stream per (workload, seed, tag); string seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{tag}")


def rat(q) -> str:
    return str(Fraction(q))


def rats(values) -> list[str]:
    return [rat(q) for q in values]


def proj(values) -> tuple:
    return ("proj", tuple(int(v) for v in values))


def soft(values) -> tuple:
    return ("soft", tuple(Fraction(v) for v in values))


def class_doc(c) -> dict:
    kind, values = c
    if kind == "proj":
        return {"kind": "class", "type": "proj", "values": list(values)}
    return {"kind": "class", "type": "soft", "values": rats(values)}


class Model:
    """A finite model: K0 = Z^rank, one state row per trace, an order unit."""

    def __init__(self, rank: int, rows, unit):
        self.rank = rank
        self.rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        self.unit = tuple(unit)

    @classmethod
    def random(cls, rng: random.Random, rank: int, traces: int) -> "Model":
        """States with positive weights, normalised to 1 on a random unit."""
        unit = [rng.randint(1, 4) for _ in range(rank)]
        rows = []
        for _ in range(traces):
            weights = [rng.randint(1, 6) for _ in range(rank)]
            total = sum(w * u for w, u in zip(weights, unit))
            rows.append([Fraction(w, total) for w in weights])
        return cls(rank, rows, unit)

    @property
    def traces(self) -> int:
        return len(self.rows)

    def states(self, v) -> tuple:
        return tuple(sum(r * x for r, x in zip(row, v)) for row in self.rows)

    def in_cone(self, v) -> bool:
        return all(x == 0 for x in v) or all(s > 0 for s in self.states(v))

    def doc(self) -> dict:
        return {
            "kind": "wmodel",
            "variant": "finite",
            "rank": self.rank,
            "states": [rats(row) for row in self.rows],
            "unit": list(self.unit),
        }

    def invariant_doc(self, k1: dict) -> dict:
        return {
            "kind": "invariant",
            "k0": {
                "rank": self.rank,
                "states": [rats(row) for row in self.rows],
                "unit": list(self.unit),
            },
            "k1": k1,
        }


PURELY_INFINITE_DOC = {"kind": "wmodel", "variant": "purely-infinite"}


def random_fraction(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_proj(rng: random.Random, model: Model) -> tuple:
    """A nonzero projection class in the K0 cone; the unit is the fallback."""
    for _ in range(32):
        v = tuple(rng.randint(0, 3) for _ in range(model.rank))
        if any(v) and model.in_cone(v):
            return proj(v)
    return proj(model.unit)


def random_soft(rng: random.Random, model: Model) -> tuple:
    return soft(random_fraction(rng) for _ in range(model.traces))


def random_k1(rng: random.Random) -> dict:
    torsion = rng.choice(([], [2], [3], [2, 4]))
    return {"free_rank": rng.randint(0, 2), "torsion": torsion}


def collapse_morphism_doc(
    rng: random.Random, model: Model, target_traces: int, valid: bool = True
) -> tuple[dict, dict]:
    """A trace-collapsing morphism with identity on K0 and on K1.

    Each target trace is a convex combination of the source traces, so the
    target states are gamma^T R and the state square commutes.  With
    ``valid`` false one gamma entry is shifted by 1/7 afterwards, which
    breaks both the column sum and the square.  Returns the morphism
    document and its source invariant document.
    """
    columns = []
    for _ in range(target_traces):
        weights = [rng.randint(1, 6) for _ in range(model.traces)]
        total = sum(weights)
        columns.append([Fraction(w, total) for w in weights])
    gamma = [[columns[j][i] for j in range(target_traces)] for i in range(model.traces)]
    target = Model(
        model.rank,
        [
            [sum(columns[j][i] * model.rows[i][c] for i in range(model.traces))
             for c in range(model.rank)]
            for j in range(target_traces)
        ],
        model.unit,
    )
    if not valid:
        gamma[0][0] += Fraction(1, 7)
    k1 = random_k1(rng)
    identity = [[int(i == j) for j in range(model.rank)] for i in range(model.rank)]
    k1_gens = k1["free_rank"] + len(k1["torsion"])
    source = model.invariant_doc(k1)
    doc = {
        "kind": "morphism",
        "source": source,
        "target": target.invariant_doc(k1),
        "theta0": identity,
        "theta1": {
            "source": k1,
            "target": k1,
            "matrix": [[int(i == j) for j in range(k1_gens)] for i in range(k1_gens)],
        },
        "gamma": [rats(row) for row in gamma],
    }
    return doc, source


def simplicial_pogroup_doc(rank: int, unit) -> dict:
    return {"kind": "pogroup", "rank": rank, "cone": {"type": "simplicial"}, "unit": list(unit)}


def strict_state_pogroup_doc(rng: random.Random, rank: int, states: int = 0) -> dict:
    """``states`` strictly positive states (one or two when 0), normalised on
    a random unit."""
    unit = [rng.randint(1, 3) for _ in range(rank)]
    rows = []
    for _ in range(states or rng.randint(1, 2)):
        weights = [rng.randint(1, 5) for _ in range(rank)]
        total = sum(w * u for w, u in zip(weights, unit))
        rows.append(rats(Fraction(w, total) for w in weights))
    return {
        "kind": "pogroup",
        "rank": rank,
        "cone": {"type": "strict-states", "states": rows},
        "unit": unit,
    }


# The numerical semigroup <2, 3> misses only 1, so 1 is not positive while 2*1 is.
PERFORATED_DOC = {
    "kind": "pogroup",
    "rank": 1,
    "cone": {"type": "generated", "generators": [[2], [3]], "coeff_bound": 24},
    "unit": [2],
}

LEXICOGRAPHIC_DOC = {
    "kind": "pogroup",
    "rank": 2,
    "cone": {"type": "lexicographic"},
    "unit": [1, 0],
}


def vector_target(rng: random.Random, n: int) -> tuple:
    """A strictly positive profile with every coordinate at least 1/4."""
    return tuple(Fraction(rng.randint(4, 48), 16) + Fraction(1, rng.randint(3, 9)) for _ in range(n))


def step_target(rng: random.Random, pieces: int) -> dict:
    """A lower semicontinuous step function on [0, 1] with values in (0, 1].

    Cut points lie on a grid of 1/24 or 1/36; interval values lie in
    (1/2, 1].  Each point value is the smaller neighbouring interval value
    times 1, except at one point, drawn at random, where it is 0 and at
    another where it is 1/2 of it, so the function is lower semicontinuous
    by construction.  Targets of one piece count thus share their shape,
    which keeps the cost of realizing them within a narrow band.
    """
    grid = rng.choice((24, 36))
    cuts = sorted(rng.sample(range(1, grid), pieces - 1))
    partition = [Fraction(0)] + [Fraction(c, grid) for c in cuts] + [Fraction(1)]
    levels = rng.choice((8, 12))
    interval_values = [Fraction(rng.randint(levels // 2 + 1, levels), levels)
                       for _ in range(pieces)]
    factors = [Fraction(0), Fraction(1, 2)] + [Fraction(1)] * (pieces - 1)
    rng.shuffle(factors)
    point_values = []
    for i in range(pieces + 1):
        low = min(interval_values[j] for j in (i - 1, i) if 0 <= j < pieces)
        point_values.append(low * factors[i])
    return {
        "kind": "target",
        "type": "step",
        "partition": rats(partition),
        "interval_values": rats(interval_values),
        "point_values": rats(point_values),
    }
