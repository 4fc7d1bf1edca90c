"""Print the output of every seeded benchmark request, to show that a change
to internals leaves what the program prints unchanged.

    PYTHONPATH=<checkout>/src python tests/same_output.py SEED > <checkout>.out

Run it once per checkout, at the same seed, and compare the outputs with
``cmp``.  It builds the inputs of ``perfbench/workloads.py`` for ``SEED``
(importing that file read-only) under ``.perfbench-work/same-output/``, a
fixed path, so the ``file`` fields of the two runs agree, and prints:

- every ``small-mixed`` and ``project`` request as ``almterm check ... --json
  --witness --verify --project`` over ``q``, ``q+`` and ``n``;
- every ``large`` request as the benchmark sends it (without ``--project``);
- each ``derive`` request's verdict and ``BoundRun``s.

Each CLI request is printed as its arguments, its output and its exit code.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import almterm
from almterm import cli

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work" / "same-output"
DOMAINS = ("q", "q+", "n")


def main(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, seed, WORK / workload)
        if workload == "derive":
            for req in requests:
                verdict, bound = req.send(almterm)
                print(f"derive {req.item.path} {verdict.kind} samples={req.samples} seed={req.seed}")
                for run in bound.runs if bound else ():
                    print(f"  {run}")
            continue
        if workload != "large":
            requests = [workloads.CliRequest(r.items, d, project=True) for r in requests for d in DOMAINS]
        for req in requests:
            code, text = req.send(cli)
            print(" ".join(req.argv()))
            print(f"{text}exit {code}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
