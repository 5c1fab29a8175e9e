"""Output checks written apart from the program.

Each check takes what the benchmark generated and what cuntzcalc printed
and returns None when the output is right, or a short reason when it is
not.  They use only ``fractions`` and the benchmark's own ``Model``; none
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from inputs import Model


def leq(model: Model, x, y) -> bool:
    """The model order, unrolled rule by rule on the raw state matrix."""
    (xk, xv), (yk, yv) = x, y
    if xk == "proj" and yk == "proj":
        diff = [b - a for a, b in zip(xv, yv)]
        return all(d == 0 for d in diff) or all(s > 0 for s in model.states(diff))
    if xk == "proj":  # strict at every trace, zero sits below everything
        return all(v == 0 for v in xv) or all(
            s < f for s, f in zip(model.states(xv), yv)
        )
    if yk == "proj":  # non-strict
        return all(f <= s for f, s in zip(xv, model.states(yv)))
    return all(f <= g for f, g in zip(xv, yv))


def profile(model: Model, c) -> tuple:
    """The class's image in Q^n: its trace vector."""
    kind, values = c
    return model.states(values) if kind == "proj" else values


def add(model: Model, x, y) -> tuple:
    if x[0] == "proj" and y[0] == "proj":
        return ("proj", tuple(a + b for a, b in zip(x[1], y[1])))
    return ("soft", tuple(a + b for a, b in zip(profile(model, x), profile(model, y))))


def read_class(doc: dict) -> tuple:
    if doc["type"] == "proj":
        return ("proj", tuple(doc["values"]))
    return ("soft", tuple(Fraction(v) for v in doc["values"]))


def expect(condition: bool, reason: str):
    return None if condition else reason


def check_compare(model: Model, x, y, report: dict):
    want = (leq(model, x, y), leq(model, y, x))
    got = (report["x_leq_y"], report["y_leq_x"])
    return expect(got == want, f"compare verdict {got} != oracle {want}")


def check_compare_pi(x_nonzero: bool, y_nonzero: bool, report: dict):
    """Purely infinite model: x <= y iff x = 0 or y != 0."""
    want = (not x_nonzero or y_nonzero, not y_nonzero or x_nonzero)
    got = (report["x_leq_y"], report["y_leq_x"])
    return expect(got == want, f"purely infinite compare {got} != {want}")


def check_class_result(want, report: dict):
    got = read_class(report["result"])
    return expect(got == want, f"{report['command']} gave {got}, expected {want}")


def check_complement(model: Model, x, y, report: dict):
    if report.get("verdict") != "found":
        return f"complement verdict {report.get('verdict')!r}, expected found"
    z = read_class(report["z"])
    lhs = tuple(a + b for a, b in zip(profile(model, x), profile(model, z)))
    return expect(lhs == profile(model, y), "gamma(x) + gamma(z) != gamma(y)")


def check_order_unit(d, report: dict):
    want = all(v > 0 for v in d)
    if report["is_order_unit"] != want:
        return f"order-unit said {report['is_order_unit']} for {d}"
    if want and Fraction(report["epsilon"]) != min(d):
        return "order-unit margin is not the least coordinate"
    return None


def check_k0star(model: Model, report: dict):
    ok = report["n"] == model.traces and report["unit_image"] == ["1"] * model.traces
    return expect(ok, "k0star group does not match the trace count")


def _matrix(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def check_functor(model: Model, report: dict, morphism: dict = None):
    out = report["model"]
    ok = (
        out["variant"] == "finite"
        and out["rank"] == model.rank
        and tuple(out["unit"]) == model.unit
        and _matrix(out["states"]) == [list(r) for r in model.rows]
    )
    if not ok:
        return "functor model differs from the invariant's K0 data"
    if morphism is None:
        return None
    induced = report["induced"]
    if induced["theta0"] != morphism["theta0"]:
        return "induced theta0 differs from the morphism"
    gamma = _matrix(induced["gamma"])
    if gamma != _matrix(morphism["gamma"]):
        return "induced gamma differs from the morphism"
    target = _matrix(induced["target_model"]["states"])
    if target != _matrix(morphism["target"]["k0"]["states"]):
        return "induced target model differs from the target invariant"
    # the state square gamma^T R_source = R_target theta0, in own arithmetic
    source = [list(r) for r in model.rows]
    theta0 = induced["theta0"]
    for j in range(len(target)):
        for c in range(model.rank):
            lhs = sum(gamma[i][j] * source[i][c] for i in range(len(source)))
            rhs = sum(target[j][k] * theta0[k][c] for k in range(model.rank))
            if lhs != rhs:
                return "induced map breaks the state square"
    return None


def check_morphism(valid: bool, report: dict):
    want = "valid" if valid else "invalid"
    ok = report["verdict"] == want and bool(report["problems"]) != valid
    return expect(ok, f"morphism-check said {report['verdict']}, expected {want}")


def _levels(report: dict, column: int) -> list:
    return [tuple(Fraction(v) for v in row[column].split(",")) for row in report["table"]["rows"]]


def _staircase_problem(target, levels, bounds):
    prev = None
    for level, bound in zip(levels, bounds):
        if not all(a < t for a, t in zip(level, target)):
            return "stage is not strictly below the target"
        if prev is not None and not all(a >= b for a, b in zip(level, prev)):
            return "stages decrease"
        if max(t - a for t, a in zip(target, level)) > bound:
            return "stage gap exceeds its bound"
        prev = level
    return None


def check_vector_dyadic(target, stages: int, report: dict):
    """Dyadic staircase: stage i sits strictly below f within 2^(1-i)."""
    rows = report["table"]["rows"]
    if report["mode"] != "dyadic" or not rows or rows[-1][0] != stages:
        return "dyadic realize did not run to the requested stage"
    bounds = [Fraction(2, 2 ** row[0]) for row in rows]
    return _staircase_problem(target, _levels(report, 1), bounds)


def check_vector_denominators(target, chain, report: dict):
    """Sup-realization: stage i sits strictly below f within 2 / m_i."""
    rows = report["table"]["rows"]
    if report["mode"] != "projection-sup" or [row[1] for row in rows] != list(chain):
        return "denominator realize did not follow the chain"
    bounds = [Fraction(2, m) for m in chain]
    return _staircase_problem(target, _levels(report, 2), bounds)


def check_suite_passed(report: dict):
    d = report["details"]
    ok = report["passed"] is True and d["failures"] == [] and d["verdict"] == "pass"
    return expect(ok, f"suite {report['suite']} failed: {d['failures'][:1]}")


def check_search_verdict(want: str, report: dict):
    got = report["details"]["verdict"]
    return expect(got == want, f"{report['suite']} verdict {got!r}, expected {want!r}")


def check_perforated(report: dict):
    """<2, 3> misses only 1: x = 1 is not positive, 2x is."""
    d = report["details"]
    ok = d["verdict"] == "counterexample" and d["failures"] == [{"x": [1], "n": 2}]
    return expect(ok, f"<2,3> weak unperforation gave {d}")


def _lex_nonnegative(v) -> bool:
    for entry in v:
        if entry:
            return entry > 0
    return True


def check_lexicographic_witness(n_max: int, report: dict):
    """x is not below 0, yet y - n x stays lexicographically >= 0 for n <= n_max."""
    d = report["details"]
    if d["verdict"] != "witness":
        return f"lexicographic archimedean verdict {d['verdict']!r}"
    x, y = d["failures"][0]["x"], d["failures"][0]["y"]
    if _lex_nonnegative([-v for v in x]):
        return "lexicographic witness x is below 0"
    for n in range(1, n_max + 1):
        if not _lex_nonnegative([b - n * a for a, b in zip(x, y)]):
            return f"lexicographic witness fails at n = {n}"
    return None


def step_value(target: dict, p: Fraction) -> Fraction:
    part = [Fraction(v) for v in target["partition"]]
    for i, q in enumerate(part):
        if p == q:
            return Fraction(target["point_values"][i])
        if p < q:
            return Fraction(target["interval_values"][i - 1])
    raise ValueError("point outside [0, 1]")


def check_step_report(sizes, report: dict):
    """Verdict pass, every column true, sizes as scheduled, increments <= 2^-i."""
    if report["verdict"] != "pass":
        return "realization verdict is not pass"
    rows = report["table"]["rows"]
    if [row[1] for row in rows] != list(sizes):
        return "stage sizes differ from the schedule"
    for row in rows:
        if any(flag != "true" for flag in row[3:]):
            return f"stage {row[0]} has a false column"
        if Fraction(row[2]) > Fraction(1, 2 ** row[0]):
            return f"stage {row[0]} increment exceeds 2^-{row[0]}"
    return None


GRID = [Fraction(j, 40) for j in range(41)]


def _pl_on_grid(breakpoints, values) -> list:
    """The piecewise-linear function's values at every GRID point, in one sweep."""
    out, i = [], 1
    for p in GRID:
        while breakpoints[i] < p:
            i += 1
        a, b = breakpoints[i - 1], breakpoints[i]
        v0, v1 = values[i - 1], values[i]
        if p == b:
            out.append(v1)
        elif v0 == v1:
            out.append(v0)
        else:
            out.append(v0 + (v1 - v0) * (p - a) / (b - a))
    return out


def check_step_entries(target: dict, result):
    """Dimension at each grid point equals the staircase of the target.

    ``result`` is what ``goodearl.realize`` returned inside the request; its
    entries are evaluated here by linear interpolation between breakpoints.
    """
    if result is None:
        return "no realization was captured"
    f = [step_value(target, p) for p in GRID]
    signs = {}  # merged slots share entry objects; evaluate each once
    for stage in result.stages:
        n = stage.size
        positive = [0] * len(GRID)
        for entry in stage.element.entries:
            if id(entry) not in signs:
                signs[id(entry)] = [v > 0 for v in _pl_on_grid(entry.breakpoints, entry.values)]
            for j, sign in enumerate(signs[id(entry)]):
                positive[j] += sign
        for j, p in enumerate(GRID):
            staircase = max(1, math.ceil(n * f[j])) - 1
            if positive[j] != staircase:
                return f"stage {stage.index} dimension {positive[j]}/{n} != {staircase}/{n} at {p}"
    return None
