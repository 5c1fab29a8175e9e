"""Command-line front end.

Loads JSON documents, runs comparisons, property suites, the invariant
functor, and the realization algorithms, and prints a deterministic JSON
(or TSV) report to stdout.  Exit codes: 0 success, 2 validation or
contract error, 1 internal error.  Wall-clock timing goes to stderr so
that reports stay byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from fractions import Fraction
from itertools import islice
from operator import le, lt
from pathlib import Path
from typing import Optional

from . import documents as docs
from .approx import projection_sup_realization, summable_decomposition
from .documents import DocumentError
from .elliott import (
    functor_g_mor,
    functor_g_obj,
    validate_invariant,  # unused here; perfbench/tracing.py wraps this binding
    validate_morphism,
)
from .goodearl import (
    RealizationSchedule,
    StepFn,
    dimension_discrepancies,
    realize,
    step_witnesses,
)
from .linalg import all_nonnegative, all_positive, vneg, vsub
from .ordmon import (
    PoGroupModel,
    SimplicialCone,
    archimedean_witness,
    is_weakly_unperforated,
)
from .sampling import draws, random_class, rng_for
from .wmodel import CuntzClass, PurelyInfiniteModel, WModel, element_leq

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2

DEFAULT_SEED = 17041999

# Largest --bound (the multiplier n_max) of the weak-unperforation and
# archimedean searches; the archimedean search keeps n_max multiples of
# every candidate x.  ordmon caps how many candidates a search may walk.
SEARCH_BOUND_CAP = 1000

# Largest --bound of the sampling suites (order-axioms, strict-cone,
# oracle-agreement): each draws or compares about --bound classes, and
# order-axioms keeps all of them in memory.
SAMPLE_BOUND_CAP = 100_000

# Largest matrix size of a step realization's stages (dyadic sizes double per
# stage, so --stages 12 without a schedule); realize time doubles with it.
STEP_SIZE_CAP = 4096

# Largest --stages of a vector realization.
VECTOR_STAGES_CAP = 1000


def _read(path: str, *kinds: str):
    text = Path(path).read_text(encoding="utf-8")
    kind, obj = docs.load_document(text)
    if kind not in kinds:
        raise DocumentError(f"{path}: expected a {'/'.join(kinds)} document, got {kind}")
    return obj


# ---------------------------------------------------------------------------
# Order-rule helpers


def _rule_label(model: WModel, x: CuntzClass, y: CuntzClass) -> str:
    if isinstance(model, PurelyInfiniteModel):
        return "purely-infinite"
    if x.is_proj and y.is_proj:
        return "proj-proj (cone difference)"
    if x.is_soft and y.is_soft:
        return "soft-soft (pointwise)"
    if x.is_soft:
        return "soft-proj (non-strict pointwise)"
    return "proj-soft (strict pointwise)"


def _oracle_states(model: WModel, v) -> list[Fraction]:
    """Trace vector of a projection payload, read off the raw state matrix.

    Each row's entries are brought to the lcm q of that row's denominators,
    so a state is one integer sum over q.
    """
    states = []
    for row in model.k0.state_matrix:
        q = math.lcm(*[r.denominator for r in row])
        states.append(Fraction(sum([r.numerator * (q // r.denominator) * c
                                    for r, c in zip(row, v)]), q))
    return states


def _oracle_leq(x: CuntzClass, y: CuntzClass, sx, sy) -> bool:
    """Rule-unrolling order oracle, coded separately from the model method.

    ``sx`` and ``sy`` are the ``_oracle_states`` of x and y where they are
    projections.  Projection payloads are compared by membership of the
    difference in the strict-state cone, whose states are sy - sx by
    linearity; mixed pairs by comparing trace vectors with the strictness
    dictated by which side is the projection.
    """
    if x.is_proj and y.is_proj:
        if x.values == y.values:
            return True
        return all(map(lt, sx, sy))
    if x.is_proj:  # strict rule
        if all(v == 0 for v in x.values):
            return True
        return all(map(lt, sx, y.values))
    if y.is_proj:  # non-strict rule
        return all(map(le, x.values, sy))
    return all(map(le, x.values, y.values))


# ---------------------------------------------------------------------------
# Commands: pointwise semigroup operations


def cmd_compare(args) -> dict:
    model = _read(args.model, "wmodel")
    x, y = _read(args.x, "class"), _read(args.y, "class")
    _, (ex, ey) = model.elements((x, y))
    fwd, bwd = element_leq(ex, ey), element_leq(ey, ex)
    verdict = {
        (True, True): "≤ and ≥",
        (True, False): "≤ only",
        (False, True): "≥ only",
        (False, False): "neither",
    }[(fwd, bwd)]
    return {
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


def cmd_add(args) -> dict:
    model = _read(args.model, "wmodel")
    x, y = _read(args.x, "class"), _read(args.y, "class")
    return {"result": docs.encode_class(model.add(x, y))}


def cmd_scale(args) -> dict:
    model = _read(args.model, "wmodel")
    x = _read(args.x, "class")
    factor = docs.parse_rational(args.factor)
    result = docs.encode_class(model.scale(x, factor))
    return {"factor": docs.rational_str(factor), "result": result}


def cmd_soften(args) -> dict:
    model = _read(args.model, "wmodel")
    result = model.soften(_read(args.x, "class"))
    return {"result": docs.encode_class(result)}


def cmd_complement(args) -> dict:
    model = _read(args.model, "wmodel")
    x, y = _read(args.x, "class"), _read(args.y, "class")
    z = model.complement(x, y)
    if z is None:
        return {"verdict": "none"}
    return {
        "verdict": "found",
        "z": docs.encode_class(z),
        "recovers_y": model.add(x, z) == y,
    }


def cmd_k0star(args) -> dict:
    n = _read(args.model, "wmodel").group_rank
    return {"n": n, "unit_image": ["1"] * n}


def cmd_order_unit(args) -> dict:
    # the order units of Q^n's difference cone are the positive d, margin min(d)
    n = _read(args.model, "wmodel").group_rank
    d = tuple(docs.parse_rational(v) for v in args.values.split(","))
    if len(d) != n:
        raise DocumentError("vector has the wrong length for this group")
    if not all_nonnegative(d):
        raise DocumentError("order unit test expects a vector in the difference cone")
    verdict = all_positive(d)
    report = {"d": docs.rationals(d), "is_order_unit": verdict}
    if verdict:
        report["epsilon"] = docs.rational_str(min(d))
    return report


# ---------------------------------------------------------------------------
# Commands: property suites


def _class_pool(model: WModel, rng, count: int) -> list[CuntzClass]:
    pool = [model.zero_class, model.unit_class]
    if not isinstance(model, PurelyInfiniteModel):
        pool.extend(random_class(rng, model) for _ in range(count))
    return pool


def _suite_order_axioms(model: WModel, rng, bound: int) -> dict:
    # the pool indices of the 400 pairs, then of the 1,200 triples, come from
    # one run of draws after the pool; the pool is converted to elements
    # once, and each pool pair is compared and each pool sum formed once, on
    # integers, when a draw first needs it
    pool = _class_pool(model, rng, bound)
    _, elements = model.elements(pool)
    leq = functools.cache(lambda i, j: element_leq(elements[i], elements[j]))
    add = functools.cache(lambda i, k: model.element_sum(elements[i], elements[k]))
    indices = iter(draws(rng, len(pool), 2 * 400 + 3 * 1200))
    failures: list[str] = []
    for i, x in enumerate(pool):
        if not leq(i, i):
            failures.append(f"not reflexive at {x!r}")
    for i, j in islice(zip(indices, indices), 400):
        if leq(i, j) and leq(j, i) and pool[i] != pool[j]:
            failures.append(f"antisymmetry: {pool[i]!r} vs {pool[j]!r}")
    for i, j, k in zip(indices, indices, indices):
        if not leq(i, j):  # both axioms start from x <= y
            continue
        if leq(j, k) and not leq(i, k):
            failures.append(f"transitivity: {pool[i]!r}, {pool[j]!r}, {pool[k]!r}")
        if not element_leq(add(i, k), add(j, k)):
            failures.append(f"add-compatibility: {pool[i]!r}, {pool[j]!r}, {pool[k]!r}")
    return {"checked": len(pool), "failures": failures}


def _suite_strict_cone(model: WModel, rng, bound: int) -> dict:
    # the difference cone of Q^n is the coordinatewise non-negative vectors;
    # d, on integers, has the signs of gamma(x) - gamma(y) coordinate by
    # coordinate, and the difference itself is formed only to report it
    violations = []
    for _ in range(bound):
        x, y = random_class(rng, model), random_class(rng, model)
        gx, gy = model.gamma(x), model.gamma(y)
        d = [a.numerator * b.denominator - b.numerator * a.denominator
             for a, b in zip(gx, gy)]
        in_cone = all_nonnegative(d)
        if not in_cone and model.compare(y, x):  # gamma must preserve the order
            violations.append(docs.rationals(vsub(gx, gy)))
        elif in_cone and any(d) and all_nonnegative(vneg(d)):
            violations.append(docs.rationals(vsub(gx, gy)))
    return {"checked": bound, "failures": violations}


def _search_group(target) -> PoGroupModel:
    """A pogroup as it is; for a wmodel, Z^n with the coordinatewise cone,
    n the rank of its enveloping group."""
    if isinstance(target, PoGroupModel):
        return target
    n = target.group_rank
    if n == 0:
        raise DocumentError("the purely infinite model has a zero group")
    return PoGroupModel(n, SimplicialCone(n), (1,) * n)


def _suite_weak_unperforation(target, rng, bound: int) -> dict:
    witness = is_weakly_unperforated(_search_group(target), n_max=bound)
    if witness is None:
        return {"verdict": "holds-on-sample", "failures": []}
    x, n = witness
    return {"verdict": "counterexample", "failures": [{"x": list(x), "n": n}]}


def _suite_archimedean(target, rng, bound: int) -> dict:
    witness = archimedean_witness(_search_group(target), n_max=bound)
    if witness is None:
        return {"verdict": "none", "failures": []}
    x, y = witness
    return {"verdict": "witness", "failures": [{"x": list(x), "y": list(y)}]}


def _suite_oracle_agreement(model: WModel, rng, bound: int) -> dict:
    pool = _class_pool(model, rng, 30)
    _, elements = model.elements(pool)
    states = [_oracle_states(model, c.values) if c.is_proj else None for c in pool]

    @functools.cache
    def agree(i, j):
        leq = element_leq(elements[i], elements[j])
        return leq == _oracle_leq(pool[i], pool[j], states[i], states[j])

    indices = iter(draws(rng, len(pool), 2 * bound))
    mismatches = []
    for i, j in zip(indices, indices):
        if not agree(i, j):
            mismatches.append([repr(pool[i]), repr(pool[j])])
    return {"checked": bound, "failures": mismatches}


# suite -> (runner(target, rng, bound), the documents it takes, default --bound,
# largest --bound).  --bound is the pool size of order-axioms, the sample count
# of strict-cone and oracle-agreement, and the multiplier n_max of the searches.
SUITE_TABLE = {
    "order-axioms": (_suite_order_axioms, "wmodel", 24, SAMPLE_BOUND_CAP),
    "strict-cone": (_suite_strict_cone, "finite wmodel", 500, SAMPLE_BOUND_CAP),
    "weak-unperforation":
        (_suite_weak_unperforation, "wmodel or pogroup", 10, SEARCH_BOUND_CAP),
    "archimedean": (_suite_archimedean, "wmodel or pogroup", 10, SEARCH_BOUND_CAP),
    "oracle-agreement": (_suite_oracle_agreement, "finite wmodel", 2000, SAMPLE_BOUND_CAP),
}
SUITES = tuple(SUITE_TABLE)


def cmd_check(args) -> dict:
    runner, takes, bound, cap = SUITE_TABLE[args.suite]
    if args.bound is not None:
        if args.bound < 1:
            raise DocumentError("--bound must be at least 1")
        if args.bound > cap:
            raise DocumentError(f"{args.suite} takes --bound at most {cap}")
        bound = args.bound
    target = _read(args.model, "wmodel", "pogroup")
    if isinstance(target, PoGroupModel) and takes != "wmodel or pogroup":
        raise DocumentError(f"suite {args.suite!r} needs a wmodel document")
    if isinstance(target, PurelyInfiniteModel) and takes == "finite wmodel":
        raise DocumentError(f"{args.suite} needs a finite model")
    details = runner(target, rng_for(args.seed), bound)
    if "verdict" not in details:
        details["verdict"] = "fail" if details["failures"] else "pass"
    details["failures"] = details["failures"][:5]
    return {
        "suite": args.suite,
        "seed": args.seed,
        "passed": details["verdict"] in ("pass", "holds-on-sample", "none"),
        "details": details,
    }


# ---------------------------------------------------------------------------
# Commands: functor and morphisms


def cmd_functor(args) -> dict:
    inv = _read(args.invariant, "invariant")
    report: dict = {"model": docs.encode_wmodel(functor_g_obj(inv))}
    if args.morphism:
        mor, source, target = _read(args.morphism, "morphism")
        if source != inv:
            raise DocumentError("morphism source differs from the invariant")
        induced = functor_g_mor(mor, source, target)
        report["induced"] = {
            "theta0": [list(r) for r in induced.theta0],
            "gamma": [docs.rationals(r) for r in induced.gamma],
            "target_model": docs.encode_wmodel(induced.target),
        }
    return report


def cmd_morphism_check(args) -> dict:
    mor, source, target = _read(args.morphism, "morphism")
    problems = validate_morphism(mor, source, target)
    return {
        "verdict": "valid" if not problems else "invalid",
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# Commands: realizations


def _table(rows: list[dict]) -> dict:
    """A report table: the columns are the keys of the first row record."""
    return {"columns": list(rows[0]), "rows": [list(r.values()) for r in rows]}


def _vector_realize_report(profile, schedule, stages: int) -> dict:
    if stages > VECTOR_STAGES_CAP:
        raise DocumentError(f"vector targets take --stages at most {VECTOR_STAGES_CAP}")
    report = {"target": docs.rationals(profile)}
    if schedule is None:
        staircase = summable_decomposition(profile, stages)
        report["mode"] = "dyadic"
        report["increment_norm_total"] = docs.rational_str(staircase.increment_norm_total)
        rows = [
            {"stage": st.index, "level": ",".join(docs.rationals(st.level)),
             "increment": ",".join(docs.rationals(st.increment)),
             "sup_gap": docs.rational_str(st.sup_gap)}
            for st in staircase.stages
        ]
    else:
        levels = projection_sup_realization(profile, schedule, stages)
        report["mode"] = "projection-sup"
        rows = [
            {"stage": i, "denominator": m, "level": ",".join(docs.rationals(level)),
             "sup_gap": docs.rational_str(max(a - b for a, b in zip(profile, level)))}
            for i, (m, level) in enumerate(zip(schedule.sizes, levels), start=1)
        ]
    report["table"] = _table(rows)
    return report


def _step_realize_report(f: StepFn, schedule, stages: int, command: str) -> dict:
    if schedule is None:  # dyadic sizes 2, 4, ..., up to the first past the cap
        schedule = RealizationSchedule.dyadic(min(stages, STEP_SIZE_CAP.bit_length()))
    if schedule.sizes[:stages][-1] > STEP_SIZE_CAP:
        raise DocumentError(f"{command} takes stage sizes at most {STEP_SIZE_CAP}")
    result = realize(f, schedule, stages)
    bad = dimension_discrepancies(result)
    rows = []
    all_ok = not bad
    for stage in result.stages:
        bound = Fraction(1, 2**stage.index)
        increment_ok = stage.sup_increment <= bound

        def within_gap(fv, av, n=stage.size):  # 0 <= fv - av <= 1/n on forms p/q, r/s
            (p, q), (r, s) = fv, av
            return 0 <= n * (p * s - r * q) <= q * s

        gap_ok = not step_witnesses(f, stage.approximant, within_gap)
        stage_bad = [p for i, p in bad if i == stage.index]
        all_ok = all_ok and increment_ok and stage.monotone and gap_ok
        rows.append({
            "stage": stage.index,
            "size": stage.size,
            "sup_increment": docs.rational_str(stage.sup_increment),
            "increment_ok": str(increment_ok).lower(),
            "monotone": str(stage.monotone).lower(),
            "gap_ok": str(gap_ok).lower(),
            "dimension_exact": str(not stage_bad).lower(),
        })
    return {
        "mode": "step",
        "stages": stages,
        "verdict": "pass" if all_ok else "fail",
        "table": _table(rows),
    }


def cmd_realize(args) -> dict:  # goodearl: step targets only
    ttype, payload = _read(args.target, "target")
    if ttype != "step" and args.command == "goodearl":
        raise DocumentError("goodearl needs a step target")
    spelling, schedule = _read(args.schedule, "schedule") if args.schedule else (None, None)
    if args.stages is None or args.stages < 1:
        raise DocumentError(f"{args.command} needs --stages >= 1")
    if ttype == "vector":
        if spelling == "sizes":
            raise DocumentError("vector targets take a denominator schedule")
        return _vector_realize_report(payload, schedule, args.stages)
    if spelling == "denominators":
        raise DocumentError("step targets take a sizes schedule")
    return _step_realize_report(payload, schedule, args.stages, args.command)


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


_REALIZE = (("target", {}), ("schedule", {"nargs": "?"}), ("--stages", {"type": int}))

# command -> the key of its report whose document --out writes; only these take --out
OUT_KEYS = {"add": "result", "scale": "result", "soften": "result", "complement": "z",
            "functor": "model"}

# command -> (handler, its positionals and options as (name, add_argument keywords))
COMMANDS = {
    "compare": (cmd_compare, (("model", {}), ("x", {}), ("y", {}))),
    "add": (cmd_add, (("model", {}), ("x", {}), ("y", {}))),
    "scale": (cmd_scale, (("model", {}), ("x", {}), ("factor", {}))),
    "soften": (cmd_soften, (("model", {}), ("x", {}))),
    "complement": (cmd_complement, (("model", {}), ("x", {}), ("y", {}))),
    "k0star": (cmd_k0star, (("model", {}),)),
    "order-unit": (
        cmd_order_unit,
        (("model", {}), ("values", {"help": "comma-separated rationals, e.g. 3/10,0"})),
    ),
    "check": (cmd_check, (
        ("model", {}), ("suite", {"choices": SUITES}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}), ("--bound", {"type": int}))),
    "functor": (cmd_functor, (("invariant", {}), ("morphism", {"nargs": "?"}))),
    "morphism-check": (cmd_morphism_check, (("morphism", {}),)),
    "realize": (cmd_realize, _REALIZE),
    "goodearl": (cmd_realize, _REALIZE),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with only the subparser of ``command`` if it names one.

    Otherwise (no arguments, ``--help``, an unknown command, an option before
    the command) every subparser is added.  The one-command parser still
    names every command in its usage line, so its errors read the same.
    """
    parser = argparse.ArgumentParser(
        prog="cuntzcalc", allow_abbrev=False,
        description="Exact computations in ordered-semigroup models.",
    )
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{%s}" % ",".join(COMMANDS) if one else None,
    )
    for name in (command,) if one else COMMANDS:
        func, arguments = COMMANDS[name]
        p = sub.add_parser(name, allow_abbrev=False)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        if name in OUT_KEYS:
            p.add_argument("--out")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.perf_counter()
    try:
        report = {"command": args.command, **args.func(args)}
        key = OUT_KEYS.get(args.command)
        if key in report and args.out:
            Path(args.out).write_text(docs.dump_document(report[key]), encoding="utf-8")
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
        sys.stdout.write(docs.dump_document(report))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
