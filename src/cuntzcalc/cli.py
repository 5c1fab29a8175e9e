"""Command-line front end.

Loads JSON documents, runs comparisons, property suites, the invariant
functor, and the realization algorithms, and prints a deterministic JSON
(or TSV) report to stdout.  Exit codes: 0 success, 2 validation or
contract error, 1 internal error.  Wall-clock timing goes to stderr so
that reports stay byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import documents as docs
from .approx import (
    DenseSubgroupSpec,
    projection_sup_realization,
    summable_decomposition,
)
from .documents import DocumentError
from .elliott import (
    functor_g_mor,
    functor_g_obj,
    validate_invariant,
    validate_morphism,
)
from .goodearl import (
    RealizationSchedule,
    StepFn,
    dimension_discrepancies,
    realize,
)
from .linalg import identity
from .ordmon import (
    PoGroupModel,
    SimplicialCone,
    StrictStateCone,
    archimedean_witness,
    is_weakly_unperforated,
)
from .sampling import random_class, rng_for
from .wmodel import FINITE, PURELY_INFINITE, CuntzClass, WModel

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2

DEFAULT_SEED = 17041999

SUITES = (
    "order-axioms",
    "strict-cone",
    "weak-unperforation",
    "archimedean",
    "oracle-agreement",
)


def _rat(q) -> str:
    return docs.rational_str(q)


def _rats(values) -> list[str]:
    return [docs.rational_str(q) for q in values]


def _read(path: str, *kinds: str):
    text = Path(path).read_text(encoding="utf-8")
    kind, obj = docs.load_document(text)
    if kind not in kinds:
        raise DocumentError(f"{path}: expected a {'/'.join(kinds)} document, got {kind}")
    return obj


# ---------------------------------------------------------------------------
# Order-rule helpers


def _rule_label(model: WModel, x: CuntzClass, y: CuntzClass) -> str:
    if model.variant == PURELY_INFINITE:
        return "purely-infinite"
    if x.is_proj and y.is_proj:
        return "proj-proj (cone difference)"
    if x.is_soft and y.is_soft:
        return "soft-soft (pointwise)"
    if x.is_soft:
        return "soft-proj (non-strict pointwise)"
    return "proj-soft (strict pointwise)"


def _oracle_leq(model: WModel, x: CuntzClass, y: CuntzClass) -> bool:
    """Rule-unrolling order oracle, coded separately from the model method.

    Works from the raw state matrix: projection payloads are compared by
    membership of the difference in the strict-state cone, mixed pairs by
    comparing trace vectors with the strictness dictated by which side is
    the projection.
    """
    if model.variant == PURELY_INFINITE:
        return x.is_zero or not y.is_zero
    rows = model.k0.state_matrix

    def states(v):
        return [sum(r * c for r, c in zip(row, v)) for row in rows]

    if x.is_proj and y.is_proj:
        diff = [b - a for a, b in zip(x.values, y.values)]
        if all(d == 0 for d in diff):
            return True
        return all(s > 0 for s in states(diff))
    if x.is_proj:  # strict rule
        if all(v == 0 for v in x.values):
            return True
        return all(s < f for s, f in zip(states(x.values), y.values))
    if y.is_proj:  # non-strict rule
        return all(f <= s for f, s in zip(x.values, states(y.values)))
    return all(f <= g for f, g in zip(x.values, y.values))


# ---------------------------------------------------------------------------
# Commands: pointwise semigroup operations


def cmd_compare(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    x = model.validate_class(_read(args.x, "class"))
    y = model.validate_class(_read(args.y, "class"))
    fwd = model.compare(x, y)
    bwd = model.compare(y, x)
    verdict = {
        (True, True): "≤ and ≥",
        (True, False): "≤ only",
        (False, True): "≥ only",
        (False, False): "neither",
    }[(fwd, bwd)]
    report = {
        "command": "compare",
        "x": docs.encode_class(x),
        "y": docs.encode_class(y),
        "x_leq_y": fwd,
        "y_leq_x": bwd,
        "rules": {
            "x_vs_y": _rule_label(model, x, y),
            "y_vs_x": _rule_label(model, y, x),
        },
        "verdict": verdict,
    }
    return report, None


def cmd_add(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    x = model.validate_class(_read(args.x, "class"))
    y = model.validate_class(_read(args.y, "class"))
    result = model.add(x, y)
    out = docs.encode_class(result)
    return {"command": "add", "result": out}, out


def cmd_scale(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    x = model.validate_class(_read(args.x, "class"))
    factor = docs.parse_rational(args.factor)
    result = model.scale(x, factor)
    out = docs.encode_class(result)
    return {"command": "scale", "factor": _rat(factor), "result": out}, out


def cmd_soften(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    x = model.validate_class(_read(args.x, "class"))
    result = model.soften(x)
    out = docs.encode_class(result)
    return {"command": "soften", "result": out}, out


def cmd_complement(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    x = model.validate_class(_read(args.x, "class"))
    y = model.validate_class(_read(args.y, "class"))
    if not model.compare(x, y):
        raise DocumentError("complement requires x ≤ y")
    z = model.complement(x, y)
    if z is None:
        return {"command": "complement", "verdict": "none"}, None
    out = docs.encode_class(z)
    recovered = model.add(x, z)
    report = {
        "command": "complement",
        "verdict": "found",
        "z": out,
        "recovers_y": recovered == y,
    }
    return report, out


def cmd_k0star(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    star = model.k0star()
    report = {
        "command": "k0star",
        "n": star.n,
        "unit_image": _rats(star.unit_image),
    }
    return report, None


def cmd_order_unit(args) -> tuple[dict, Optional[dict]]:
    model = _read(args.model, "wmodel")
    star = model.k0star()
    d = tuple(docs.parse_rational(v) for v in args.values.split(","))
    verdict = star.is_order_unit(d)
    report = {
        "command": "order-unit",
        "d": _rats(d),
        "is_order_unit": verdict,
    }
    if verdict and d:
        report["epsilon"] = _rat(min(d))
    return report, None


# ---------------------------------------------------------------------------
# Commands: property suites


def _class_pool(model: WModel, rng, count: int) -> list[CuntzClass]:
    pool = [model.zero_class, model.unit_class]
    if model.variant == FINITE:
        pool.extend(random_class(rng, model) for _ in range(count))
    return pool


def _suite_order_axioms(model: WModel, rng, bound: int) -> dict:
    pool = _class_pool(model, rng, bound or 24)
    failures: list[str] = []
    for x in pool:
        if not model.compare(x, x):
            failures.append(f"not reflexive at {x!r}")
    for _ in range(400):
        x, y = rng.choice(pool), rng.choice(pool)
        if model.compare(x, y) and model.compare(y, x) and x != y:
            failures.append(f"antisymmetry: {x!r} vs {y!r}")
    for _ in range(1200):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if model.compare(x, y) and model.compare(y, z) and not model.compare(x, z):
            failures.append(f"transitivity: {x!r}, {y!r}, {z!r}")
        if model.variant == FINITE and model.compare(x, y):
            if not model.compare(model.add(x, z), model.add(y, z)):
                failures.append(f"add-compatibility: {x!r}, {y!r}, {z!r}")
    return {"checked": len(pool), "failures": failures[:5]}


def _suite_strict_cone(model: WModel, rng, bound: int) -> dict:
    if model.variant != FINITE:
        raise DocumentError("strict-cone needs a finite-variant model")
    star = model.k0star()
    violations = []
    for _ in range(bound or 500):
        x = random_class(rng, model)
        y = random_class(rng, model)
        d = tuple(a - b for a, b in zip(model.gamma(x), model.gamma(y)))
        if any(v != 0 for v in d):
            if star.cone_plusplus(d) and star.cone_plusplus(tuple(-v for v in d)):
                violations.append(_rats(d))
    return {"checked": bound or 500, "failures": violations[:5]}


def _star_group(model: WModel, simplicial: bool) -> PoGroupModel:
    star = model.k0star()
    if star.n == 0:
        raise DocumentError("the purely infinite model has a zero group")
    ones = (1,) * star.n
    cone = SimplicialCone() if simplicial else StrictStateCone(identity(star.n))
    return PoGroupModel(star.n, cone, ones)


def _enum_bound(rank: int) -> int:
    return {1: 12, 2: 8, 3: 6, 4: 4}.get(rank, 3)


def _suite_weak_unperforation(group: PoGroupModel, bound: int) -> dict:
    witness = is_weakly_unperforated(
        group, n_max=bound or 10, enumeration_bound=_enum_bound(group.rank)
    )
    if witness is None:
        return {"verdict": "holds-on-sample", "failures": []}
    x, n = witness
    return {"verdict": "counterexample", "failures": [{"x": list(x), "n": n}]}


def _suite_archimedean(group: PoGroupModel, bound: int) -> dict:
    witness = archimedean_witness(
        group, n_max=bound or 10, enumeration_bound=_enum_bound(group.rank)
    )
    if witness is None:
        return {"verdict": "none", "failures": []}
    x, y = witness
    return {"verdict": "witness", "failures": [{"x": list(x), "y": list(y)}]}


def _suite_oracle_agreement(model: WModel, rng, bound: int) -> dict:
    if model.variant != FINITE:
        raise DocumentError("oracle-agreement needs a finite-variant model")
    pool = _class_pool(model, rng, 30)
    mismatches = []
    for _ in range(bound or 2000):
        x, y = rng.choice(pool), rng.choice(pool)
        if model.compare(x, y) != _oracle_leq(model, x, y):
            mismatches.append([repr(x), repr(y)])
    return {"checked": bound or 2000, "failures": mismatches[:5]}


def cmd_check(args) -> tuple[dict, Optional[dict]]:
    if args.suite not in SUITES:
        raise DocumentError(f"unknown suite {args.suite!r}")
    target = _read(args.model, "wmodel", "pogroup")
    rng = rng_for(args.seed)
    bound = args.bound or 0
    if isinstance(target, PoGroupModel):
        if args.suite == "weak-unperforation":
            details = _suite_weak_unperforation(target, bound)
        elif args.suite == "archimedean":
            details = _suite_archimedean(target, bound)
        else:
            raise DocumentError(f"suite {args.suite!r} needs a wmodel document")
    else:
        if args.suite == "order-axioms":
            details = _suite_order_axioms(target, rng, bound)
        elif args.suite == "strict-cone":
            details = _suite_strict_cone(target, rng, bound)
        elif args.suite == "oracle-agreement":
            details = _suite_oracle_agreement(target, rng, bound)
        elif args.suite == "weak-unperforation":
            details = _suite_weak_unperforation(_star_group(target, False), bound)
        else:
            details = _suite_archimedean(_star_group(target, True), bound)
    bad = details.get("failures")
    verdict = details.get("verdict")
    if verdict is None:
        verdict = "fail" if bad else "pass"
        details["verdict"] = verdict
    passed = verdict in ("pass", "holds-on-sample", "none")
    report = {
        "command": "check",
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "details": details,
    }
    return report, None


# ---------------------------------------------------------------------------
# Commands: functor and morphisms


def cmd_functor(args) -> tuple[dict, Optional[dict]]:
    inv = _read(args.invariant, "invariant")
    model = functor_g_obj(inv)
    model_doc = docs.encode_wmodel(model)
    report: dict = {"command": "functor", "model": model_doc}
    if args.morphism:
        mor, source, target = _read(args.morphism, "morphism")
        if docs.encode_invariant(source) != docs.encode_invariant(inv):
            raise DocumentError("morphism source differs from the invariant")
        induced = functor_g_mor(mor, source, target)
        report["induced"] = {
            "theta0": [list(r) for r in induced.theta0],
            "gamma": [_rats(r) for r in induced.gamma],
            "target_model": docs.encode_wmodel(induced.target),
        }
    return report, model_doc


def cmd_morphism_check(args) -> tuple[dict, Optional[dict]]:
    mor, source, target = _read(args.morphism, "morphism")
    problems = validate_morphism(mor, source, target)
    problems += [f"source: {p}" for p in validate_invariant(source)]
    problems += [f"target: {p}" for p in validate_invariant(target)]
    report = {
        "command": "morphism-check",
        "verdict": "valid" if not problems else "invalid",
        "problems": problems,
    }
    return report, None


# ---------------------------------------------------------------------------
# Commands: realizations


def _vector_realize_report(profile, schedule, stages: int) -> dict:
    if isinstance(schedule, RealizationSchedule):
        raise DocumentError("vector targets take a denominator schedule")
    if isinstance(schedule, DenseSubgroupSpec):
        levels = projection_sup_realization(profile, schedule, stages)
        rows = []
        for i, level in enumerate(levels, start=1):
            m = schedule.denominators[i - 1]
            gap = max(a - b for a, b in zip(profile, level))
            rows.append([i, m, ",".join(_rats(level)), _rat(gap)])
        return {
            "command": "realize",
            "mode": "projection-sup",
            "target": _rats(profile),
            "table": {
                "columns": ["stage", "denominator", "level", "sup_gap"],
                "rows": rows,
            },
        }
    report = summable_decomposition(profile, stages)
    rows = []
    for st in report.stages:
        rows.append(
            [
                st.index,
                ",".join(_rats(st.level)),
                ",".join(_rats(st.increment)),
                _rat(st.sup_gap),
            ]
        )
    return {
        "command": "realize",
        "mode": "dyadic",
        "target": _rats(report.target),
        "increment_norm_total": _rat(report.increment_norm_total),
        "table": {
            "columns": ["stage", "level", "increment", "sup_gap"],
            "rows": rows,
        },
    }


def _step_realize_report(f: StepFn, schedule, stages: int, command: str) -> dict:
    if isinstance(schedule, DenseSubgroupSpec):
        raise DocumentError("step targets take a sizes schedule")
    if schedule is None:
        schedule = RealizationSchedule.dyadic(stages)
    result = realize(f, schedule, stages)
    grid = [Fraction(j, 40) for j in range(41)]
    bad = dimension_discrepancies(result, grid)
    rows = []
    all_ok = not bad
    for stage in result.stages:
        bound = Fraction(1, 2**stage.index)
        increment_ok = stage.sup_increment <= bound
        gap_ok = all(
            0 <= f(p) - stage.approximant(p) <= Fraction(1, stage.size)
            for p in grid
        )
        stage_bad = [p for i, p in bad if i == stage.index]
        all_ok = all_ok and increment_ok and stage.monotone and gap_ok
        rows.append(
            [
                stage.index,
                stage.size,
                _rat(stage.sup_increment),
                str(increment_ok).lower(),
                str(stage.monotone).lower(),
                str(gap_ok).lower(),
                str(not stage_bad).lower(),
            ]
        )
    return {
        "command": command,
        "mode": "step",
        "stages": stages,
        "verdict": "pass" if all_ok else "fail",
        "grid_points": len(grid),
        "table": {
            "columns": [
                "stage",
                "size",
                "sup_increment",
                "increment_ok",
                "monotone",
                "gap_ok",
                "dimension_exact",
            ],
            "rows": rows,
        },
    }


def cmd_realize(args) -> tuple[dict, Optional[dict]]:
    ttype, payload = _read(args.target, "target")
    schedule = _read(args.schedule, "schedule") if args.schedule else None
    if args.stages is None or args.stages < 1:
        raise DocumentError("realize needs --stages >= 1")
    if ttype == "vector":
        return _vector_realize_report(payload, schedule, args.stages), None
    return _step_realize_report(payload, schedule, args.stages, "realize"), None


def cmd_goodearl(args) -> tuple[dict, Optional[dict]]:
    ttype, payload = _read(args.target, "target")
    if ttype != "step":
        raise DocumentError("goodearl needs a step target")
    schedule = _read(args.schedule, "schedule") if args.schedule else None
    if args.stages is None or args.stages < 1:
        raise DocumentError("goodearl needs --stages >= 1")
    return _step_realize_report(payload, schedule, args.stages, "goodearl"), None


# ---------------------------------------------------------------------------
# Dispatch


def _render_table(report: dict) -> str:
    table = report.get("table")
    if table:
        lines = ["\t".join(str(c) for c in table["columns"])]
        lines.extend("\t".join(str(v) for v in row) for row in table["rows"])
        return "\n".join(lines) + "\n"
    flat = {
        k: v
        for k, v in sorted(report.items())
        if isinstance(v, (str, int, bool))
    }
    lines = ["key\tvalue"]
    lines.extend(f"{k}\t{v}" for k, v in flat.items())
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--bound", type=int, default=None)
    common.add_argument("--stages", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = argparse.ArgumentParser(
        prog="cuntzcalc",
        description="Exact computations in ordered-semigroup models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *positionals):
        p = sub.add_parser(name, parents=[common])
        for pos, kwargs in positionals:
            p.add_argument(pos, **kwargs)
        p.set_defaults(func=func)
        return p

    add("compare", cmd_compare, ("model", {}), ("x", {}), ("y", {}))
    add("add", cmd_add, ("model", {}), ("x", {}), ("y", {}))
    add("scale", cmd_scale, ("model", {}), ("x", {}), ("factor", {}))
    add("soften", cmd_soften, ("model", {}), ("x", {}))
    add("complement", cmd_complement, ("model", {}), ("x", {}), ("y", {}))
    add("k0star", cmd_k0star, ("model", {}))
    add(
        "order-unit",
        cmd_order_unit,
        ("model", {}),
        ("values", {"help": "comma-separated rationals, e.g. 3/10,0"}),
    )
    add("check", cmd_check, ("model", {}), ("suite", {"choices": SUITES}))
    add(
        "functor",
        cmd_functor,
        ("invariant", {}),
        ("morphism", {"nargs": "?", "default": None}),
    )
    add("morphism-check", cmd_morphism_check, ("morphism", {}))
    add(
        "realize",
        cmd_realize,
        ("target", {}),
        ("schedule", {"nargs": "?", "default": None}),
    )
    add(
        "goodearl",
        cmd_goodearl,
        ("target", {}),
        ("schedule", {"nargs": "?", "default": None}),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, out_doc = args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000
        print(f"# elapsed {elapsed_ms:.1f} ms", file=sys.stderr)
    if args.format == "table":
        sys.stdout.write(_render_table(report))
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if args.out and out_doc is not None:
        Path(args.out).write_text(docs.dump_document(out_doc), encoding="utf-8")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
