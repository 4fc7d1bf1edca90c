"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files, or directories of files, holding the standard
output of ``perfbench/run.py`` runs; the ``report:`` line of each run is read.
Runs of a workload pair up in the order they appear, so record them
alternately, for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 perfbench/run.py --workload large --seed $seed \
         --seconds 20 --trace 0) >> base/large.txt
      (cd change && python3 perfbench/run.py --workload large --seed $seed \
         --seconds 20 --trace 0) >> change/large.txt
    done

For every workload and metric it prints both sides' medians and quartiles.
``REGRESSION`` marks a change median worse than the base median by more than
the metric's bound in BENCHMARK.json; where the base's own spread (distance
between its quartiles, over its median) is wider than the bound the verdict is
``unresolved`` unless every change run beats every base run.  ``GAIN`` is
claimed only when the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the base's
interquartile distance.  The exit code is 1 when any regression is found.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# metrics printed beside the end-to-end set, with their better direction
EXTRA_BETTER = {"check_tail_ms": "lower", "rewrites_per_s": "higher"}


def load(path: Path) -> dict[tuple[str, int], list[dict[str, float]]]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs: dict[tuple[str, int], list[dict[str, float]]] = defaultdict(list)
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            if line.startswith("report: "):
                rep = json.loads(line[len("report: "):])
                values = {k.split(" ")[0]: m["value"] for k, m in rep["metrics"].items()}
                runs[(rep["workload"], rep["trace"])].append(values)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def judge(base: list[float], change: list[float], better: str, bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > b3 - b1 and sign * (cmed - bmed) > 0:
        return f"GAIN ({wins}/{len(pairs)} pairs)"
    if bound is None:
        return f"({wins}/{len(pairs)} pairs better)"
    worse = -sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    if spread > bound:
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "better in every run"
        return f"unresolved (base spread {spread:.3f} > bound {bound})"
    if worse > bound:
        return f"REGRESSION ({worse:+.3f} > bound {bound})"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = dict(EXTRA_BETTER)
    bounds: dict[str, float] = {}
    for m in spec["end_to_end"]:
        better[m["name"]] = m["better"]
        bounds[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        better[m["name"]] = m["better"]
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    regressions = 0
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'}; {len(base[key])} base, {len(change[key])} change runs)")
        # host_speed describes the host, not the program; raw.X is X unscaled
        names = [
            n for n in base[key][0] if n != "host_speed" and all(n in r for r in base[key] + change[key])
        ]
        for name in names:
            b = [r[name] for r in base[key]]
            c = [r[name] for r in change[key]]
            verdict = judge(b, c, better.get(name.removeprefix("raw."), "lower"), None if trace else bounds.get(name))
            regressions += verdict.startswith("REGRESSION")
            bq, cq = quartiles(b), quartiles(c)
            print(
                f"  {name:38s} base {bq[1]:12.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
                f"  change {cq[1]:12.4f} [{cq[0]:.4f}, {cq[2]:.4f}]  {verdict}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
