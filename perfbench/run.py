"""End-to-end and per-layer benchmark of ``almterm check``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ``almterm`` is imported from
``src/``.  The inputs of every workload are generated from ``--seed``; each
run repeats whole rounds of them, one request at a time, for about
``--seconds`` seconds and checks every answer against the planted one.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced run (spans are written to
``.perfbench-work/spans-<workload>-<seed>.jsonl``).  The lines before it print
the same figures for people, plus ``check_tail_ms`` and ``rewrites_per_s``
where they apply and the unscaled times, and one ``report:`` line that
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 7

# Host speed.  The machines this runs on are shared, and the speed of a core
# drifts by tens of percent within a minute, CPU time included.  A fixed loop
# of exact rational arithmetic (the kind almterm spends its time in) is timed
# between every two requests.  Each request's time is multiplied by CAL_REF_S
# over the mean loop time within CAL_WINDOW_S of the request, so that figures
# read as on a host where the loop takes CAL_REF_S.  Averaging over a window
# matters: single loop times are noisy, and dividing by them over-corrects.
CAL_REF_S = 0.0045
CAL_WINDOW_S = 2.0

# check_tail_ms is the highest percentile with at least ten requests beyond
# it in one round; it is printed only for rounds of at least this many
TAIL_MIN_REQUESTS = 40


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_almterm():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "almterm" / "__init__.py").is_file():
        fail(f"no almterm package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import almterm
    import almterm.cli

    if Path(almterm.__file__).resolve().parent != SRC / "almterm":
        fail(f"imported almterm from {almterm.__file__}, not from {SRC}")
    return almterm


_REFERENCE = [[Fraction((7 * i + 13 * j) % 19 - 9, 1 + (i + j) % 3) for j in range(22)] for i in range(11)]


def reference_loop() -> tuple[float, float]:
    """Start and end of one run of the fixed reference loop: Gauss-Jordan
    elimination of a fixed rational matrix, like a simplex's pivots."""
    start = time.perf_counter()
    rows = [row[:] for row in _REFERENCE]
    for c, pivot_row in enumerate(rows):
        pivot = next((r for r in rows[c:] if r[c]), None)
        if pivot is None:
            continue
        k = rows.index(pivot)
        rows[c], rows[k] = pivot, pivot_row
        inv = 1 / pivot[c]
        rows[c] = [a * inv for a in pivot]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[c])]
    return start, time.perf_counter()


class HostSpeed:
    """Timed runs of the reference loop, and the scale factor they give for
    any stretch of the run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def sample(self) -> None:
        start, end = reference_loop()
        self.samples.append(((start + end) / 2, end - start))

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean loop time near ``[start, end]``: every
        sample within the window, and at least the one on each side."""
        near = [s for t, s in self.samples if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        before = [s for t, s in self.samples if t < start]
        after = [s for t, s in self.samples if t > end]
        near += before[-1:] + after[:1]
        return CAL_REF_S / statistics.mean(near)


def measure_setup() -> tuple[float, float]:
    """Median time, scaled and raw, from starting a fresh interpreter until
    ``almterm`` and ``almterm.cli`` are imported.  The child reports the
    monotonic clock after its imports, then times the reference loop itself
    (it may run on another core than this process); the parent read the
    clock just before starting the child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = (
        "import almterm, almterm.cli, time\n"
        "done = time.perf_counter_ns()\n"
        "import run\n"
        "print(done, min(b - a for a, b in (run.reference_loop() for _ in range(2))))\n"
    )
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter_ns()
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        done, loop = child.stdout.split()
        if k:  # the first start also writes the bytecode cache
            raw.append((int(done) - start) / 1e9)
            scaled.append(raw[-1] * CAL_REF_S / float(loop))
    return statistics.median(scaled), statistics.median(raw)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Totals:
    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float]] = []  # (request id, start, end)
        self.programs = 0
        self.rules = 0
        self.failed = 0
        self.rewrites = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.round_s: list[float] = []

    def raw(self) -> list[float]:
        return [end - start for _, start, end in self.spans]

    def scale(self, host: HostSpeed) -> dict[int, float]:
        return {rid: host.factor(start, end) for rid, start, end in self.spans}

    def scaled(self, host: HostSpeed) -> list[float]:
        return [(end - start) * host.factor(start, end) for _, start, end in self.spans]


def run_rounds(requests, target, host, seconds, totals, tracer=None, rounds=None) -> None:
    """Whole rounds until another would overrun ``seconds`` (at least one),
    or exactly ``rounds`` rounds."""
    started = time.perf_counter()
    host.sample()
    while True:
        round_start = time.perf_counter()
        for k, req in enumerate(requests):
            rid = totals.rounds * len(requests) + k
            t0 = time.perf_counter()
            if tracer is None:
                answer = req.send(target(req))
            else:
                with tracer.request(rid):
                    answer = req.send(target(req))
            totals.spans.append((rid, t0, time.perf_counter()))
            host.sample()
            outcome = req.check(answer)
            totals.programs += outcome.programs
            totals.rules += outcome.rules
            totals.failed += outcome.failed
            totals.rewrites += outcome.rewrites
            totals.errors.extend(outcome.errors)
        totals.rounds += 1
        totals.round_s.append(time.perf_counter() - round_start)
        if rounds is not None:
            if totals.rounds >= rounds:
                return
        elif time.perf_counter() - started + statistics.mean(totals.round_s) > seconds:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    at = import_almterm()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    host = HostSpeed()
    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)
    inputs = WORK / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        requests = workloads.build(args.workload, args.seed, inputs)

        def target(req):
            return at if isinstance(req, workloads.DeriveRequest) else at.cli

        plain = Totals()
        traced = None
        if args.trace:
            # untraced rounds first, then as many traced ones: the difference
            # per round is the tracing overhead
            run_rounds(requests, target, host, args.seconds / 2, plain)
            tracer = spans.Tracer()
            traced = Totals()
            tracer.install()
            try:
                run_rounds(requests, target, host, 0, traced, tracer, rounds=plain.rounds)
            finally:
                tracer.uninstall()
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            run_rounds(requests, target, host, args.seconds, plain)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [plain] + ([traced] if traced else [])
    errors = [m for t in runs for m in t.errors]
    attempted = sum(t.programs for t in runs)
    failed = sum(t.failed for t in runs)
    for message in errors[:20]:
        print(f"WRONG: {message}")

    times = plain.scaled(host)
    busy = sum(times)
    shown: dict[str, tuple[float, str]] = {}
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "programs_per_s": (plain.programs / busy, "programs/s"),
            "rules_per_s": (plain.rules / busy, "rules/s"),
            "check_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        declared = spec["end_to_end"]
    else:
        table, gap = spans.layer_table(tracer.spans, traced.scale(host))
        if gap > 1e-6:
            fail(f"self times miss {gap:.9f} s of a request span")
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] != "tracing.overhead_s":
                metrics[m["name"]] = (table.get(m["name"], 0.0) / traced.rounds, m["unit"])
        metrics["tracing.overhead_s"] = ((sum(traced.scaled(host)) - busy) / traced.rounds, "s/round")
        declared = spec["per_layer"]
    if [(m["name"], m["unit"]) for m in declared] != [(k, u) for k, (_, u) in metrics.items()]:
        fail("the metrics computed differ from those declared in BENCHMARK.json")
    shown.update(metrics)
    if not args.trace:
        if len(requests) >= TAIL_MIN_REQUESTS:
            q = 100 * (1 - 10 / len(requests))
            shown[f"check_tail_ms (p{q:.0f})"] = (percentile(times, q) * 1e3, "ms")
        if plain.rewrites:
            shown["rewrites_per_s"] = (plain.rewrites / busy, "rewrites/s")
        raw = plain.raw()
        shown["raw.setup_s"] = (setup_raw_s, "s")
        shown["raw.programs_per_s"] = (plain.programs / sum(raw), "programs/s")
        shown["raw.check_p50_ms"] = (statistics.median(raw) * 1e3, "ms")
        shown["host_speed"] = (busy / sum(raw), "x reference")

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{sum(t.rounds for t in runs)} rounds, {sum(len(t.spans) for t in runs)} requests, "
        f"{attempted} programs, {failed} failed, {len(errors)} wrong answers"
    )
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    print("report: " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
