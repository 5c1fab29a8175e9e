"""Benchmark for cuntzcalc: run one workload, or all four, and print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client in one single-threaded process calls
``cuntzcalc.cli.main(argv)`` in process, with stdout and stderr captured,
on documents the benchmark wrote from ``--seed``.  A run replays its
seeded list of at least 100 requests in whole passes, at least
``MIN_PASSES`` of them, and starts no pass that would end after
``--seconds`` of timed work.  Each request is timed in every pass, scaled
to the speed at which a fixed reference loop takes ``REFERENCE_S`` (see
calibrate.py), and averaged over the passes, so a neighbour's load on the
shared host moves the figures little.  An untimed warm-up on requests that
the list does not hold comes first.  A request fails when its exit code is not 0 or its output
check fails.

``--trace 1`` replays the list once with every layer wrapped, and reports
per-layer counts and self times instead of the end-to-end metrics; the
counts are identical between traced runs of a seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` every workload runs in
its own process, one after another, and the metrics are keyed
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import REFERENCE_S, SpeedLog
from tracing import Tracer

SRC = "src"
OUT = ".perfbench_out"
# each request's time is its mean over at least this many passes
MIN_PASSES = 3
SETUP_REPEATS = 9


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# Run in a fresh interpreter: the import is timed inside it, and the
# reference loop runs after it, so ``fractions`` is not imported early.
SETUP_CODE = """\
import time
start = time.perf_counter()
import cuntzcalc.cli
elapsed = time.perf_counter() - start
from calibrate import reference_s
print(elapsed, sorted(reference_s() for _ in range(3))[1])
"""


def measure_setup() -> tuple[float, float, float]:
    """Median over fresh interpreters of the time to import cuntzcalc.cli.

    Returns it at the reference speed and as measured, and the median wall
    time of the whole subprocess, interpreter start included.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.abspath(SRC), here)))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)  # writes bytecode
    times, raw, whole = [], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, check=True, timeout=120,
                             stdout=subprocess.PIPE, text=True).stdout
        whole.append(time.perf_counter() - start)
        elapsed, reference = (float(v) for v in out.split())
        times.append(elapsed * REFERENCE_S / reference)
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw), statistics.median(whole)


def call(cli, argv: list) -> tuple[int, str]:
    """One cuntzcalc invocation in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def program_caches() -> list:
    """Every functools cache of the imported cuntzcalc modules and classes.

    A ``cuntzcalc`` process starts with them empty, so the runner clears them
    before each request; otherwise a repeated request would find its own
    results cached, which no command-line call does.
    """
    caches = {}
    for name, module in list(sys.modules.items()):
        if name != "cuntzcalc" and not name.startswith("cuntzcalc."):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for value in vars(owner).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


class RealizeCapture:
    """Keeps what ``cli.realize`` returned in the current request.

    The step-target check evaluates those entries itself, untimed, so the
    benchmark does not build each realization a second time.
    """

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.realize
        self.last = None

    def _realize(self, *args, **kwargs):
        self.last = self.original(*args, **kwargs)
        return self.last

    def install(self) -> None:
        self.cli.realize = self._realize

    def remove(self) -> None:
        self.cli.realize = self.original

    def take(self):
        result, self.last = self.last, None
        return result


def verdict(req, code: int, stdout: str, realized):
    """None when the request succeeded, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        reason = req.check(json.loads(stdout))
        if reason is None and req.post is not None:
            reason = req.post(realized)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"malformed report: {exc!r}"
    return reason


class Tally:
    """Checks outputs; a failure other than the request's known fault is incorrect.

    The first pass checks every request in full.  A later pass must print
    exactly what the first printed, and then shares its verdict, so a
    request that fails does so in every pass.
    """

    def __init__(self, reqs: list):
        self.reqs = reqs
        self.first: list = [None] * len(reqs)  # (stdout, reason) of the first pass
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.examples: list[str] = []

    def record(self, index: int, code: int, stdout: str, realized) -> None:
        req = self.reqs[index]
        self.attempted += 1
        if self.first[index] is None:
            reason = verdict(req, code, stdout, realized)
            self.first[index] = (code, stdout, reason)
        elif (code, stdout) != self.first[index][:2]:
            reason = "output differs from the first pass"
        else:
            reason = self.first[index][2]
        if reason is None:
            return
        self.failed += 1
        if req.known_fault is None or reason == "output differs from the first pass":
            self.unexpected += 1
            if len(self.examples) < 5:
                self.examples.append(f"{' '.join(req.argv)}: {reason}")


def ms(seconds: float) -> float:
    return seconds * 1000.0


def replay(cli, reqs: list, caches: list, capture, on_start=None) -> list:
    """One pass over the list.  Per request: (wall s, CPU s, scale, exit code,
    stdout, realized), where scale turns a measured time into the time at
    the reference speed (see calibrate.py)."""
    speed = SpeedLog()
    speed.sample(force=True)
    timed = []
    for index, req in enumerate(reqs):
        for cache in caches:
            cache.cache_clear()
        if on_start is not None:
            on_start(index)
        cpu, start = time.process_time(), time.perf_counter()
        code, stdout = call(cli, req.argv)
        end = time.perf_counter()
        timed.append((start, end, time.process_time() - cpu, code, stdout, capture.take()))
        speed.sample()
    speed.sample(force=True)
    return [(end - start, cpu, speed.scale(start, end), code, stdout, realized)
            for start, end, cpu, code, stdout, realized in timed]


def timed_run(cli, reqs: list, seconds: int, caches: list, capture, tally: Tally):
    """Whole passes over the list: at least ``MIN_PASSES``, and then no pass
    that would end after ``seconds`` of timed work.

    Each request's time is the mean over the passes of its time at the
    reference speed (see calibrate.py).  The mean, not the median: when the
    neighbour's load comes and goes faster than a request, a short request
    runs either slowed or not, and only the mean of its scaled times is
    right on average.
    """
    walls: list[list[float]] = [[] for _ in reqs]
    cpus: list[list[float]] = [[] for _ in reqs]
    raw_walls: list[list[float]] = [[] for _ in reqs]
    scales: list[float] = []
    pass_walls: list[float] = []
    while len(pass_walls) < MIN_PASSES or sum(pass_walls) + pass_walls[-1] <= seconds:
        start = time.perf_counter()
        results = replay(cli, reqs, caches, capture)
        pass_walls.append(time.perf_counter() - start)
        for index, (wall, cpu, factor, code, stdout, realized) in enumerate(results):
            walls[index].append(wall * factor)
            cpus[index].append(cpu * factor)
            raw_walls[index].append(wall)
            scales.append(factor)
            tally.record(index, code, stdout, realized)  # untimed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [statistics.fmean(w) for w in walls]
    cpu = [statistics.fmean(c) for c in cpus]
    raw = [statistics.fmean(w) for w in raw_walls]
    return {
        "requests_per_s": (len(reqs) / sum(wall), "1/s"),
        "latency_p50_ms": (ms(statistics.median(wall)), "ms"),
        "latency_p90_ms": (ms(statistics.quantiles(wall, n=10)[8]), "ms"),
        "cpu_ms_per_request": (ms(statistics.fmean(cpu)), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, {
        "requests": len(reqs),
        "passes": len(pass_walls),
        "pass_s": " ".join(f"{w:.2f}" for w in pass_walls),
        "speed": f"{statistics.median(scales):.3f} of the reference speed, median",
        "measured_requests_per_s": f"{len(reqs) / sum(raw):.6g}",
        "measured_latency_p50_ms": f"{ms(statistics.median(raw)):.6g}",
        "measured_latency_p90_ms": f"{ms(statistics.quantiles(raw, n=10)[8]):.6g}",
    }


def traced_run(cli, reqs: list, trace_path: str, caches: list, capture, tally: Tally):
    tracer = Tracer()

    def on_start(index):
        tracer.request_id = index

    tracer.install()
    try:
        results = replay(cli, reqs, caches, capture, on_start)
    finally:
        tracer.remove()
    for index, (_, _, _, code, stdout, realized) in enumerate(results):
        tally.record(index, code, stdout, realized)
    tracer.write(trace_path)
    walls = [r[0] for r in results]
    notes = {"requests": len(reqs), "traced_latency_p50_ms": ms(statistics.median(walls))}
    return tracer.metrics(), notes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = None if trace else measure_setup()
    sys.path.insert(0, os.path.abspath(SRC))
    import cuntzcalc.cli as cli

    workdir = os.path.join(OUT, "work", f"{name}-{seed}-{os.getpid()}")
    workload = workloads.Workload(name, seed, workdir)
    capture = RealizeCapture(cli)
    capture.install()
    try:
        reqs = workload.requests()
        tally = Tally(reqs)
        caches = program_caches()
        replay(cli, workload.warmup(), caches, capture)
        if trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            path = os.path.join(OUT, "traces", f"{name}-seed{seed}.spans")
            metrics, notes = traced_run(cli, reqs, path, caches, capture, tally)
        else:
            metrics, notes = timed_run(cli, reqs, seconds, caches, capture, tally)
            metrics["setup_s"] = (setup[0], "s")
            notes["measured_setup_s"] = f"{setup[1]:.6g}"
            notes["measured_subprocess_s"] = f"{setup[2]:.6g}"
    finally:
        capture.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.examples:
        print(f"perfbench: {name}: {line}", file=sys.stderr)
    if tally.unexpected:
        print(f"perfbench: {name}: {tally.unexpected} requests failed", file=sys.stderr)
    for key, value in notes.items():
        print(f"# {name} {key} {value}")
    for key, (value, unit) in metrics.items():
        print(f"# {name} {key} {value:.6g} {unit}")
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cuntzcalc", "cli.py")):
        fail("run from the root of a cuntzcalc checkout: src/cuntzcalc is missing")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
