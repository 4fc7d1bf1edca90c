"""Print the parsed rows and the output of every seeded benchmark request, to
show that a change to internals leaves what the program computes and prints
unchanged.

    PYTHONPATH=<checkout>/src python tests/same_output.py SEED > <checkout>.out

Run it once per checkout, at the same seed, and compare the outputs with
``cmp``.  It builds the inputs of ``perfbench/workloads.py`` for ``SEED``
(importing that file read-only) under the checkout's
``.perfbench-work/same-output/``, so the file names of two runs differ only
in the checkout's root; for checkouts in different directories, replace the
root (``sed "s#$PWD#ROOT#g"``) before comparing.  It prints:

- first, every generated input file's name, the ``repr`` of each parsed
  rule's ``rows`` and :func:`almterm.pretty_print` of the program, so that
  the rows the parser writes, coefficient key order included, and their
  printed form are compared too;
- every ``small-mixed`` and ``project`` request as ``almterm check ... --json
  --witness --verify --project`` over ``q``, ``q+`` and ``n``;
- every ``large`` request as the benchmark sends it (without ``--project``),
  then the first ``large`` program (120 rules) once more with ``--project``,
  so that :func:`almterm.lp.entails` on wide systems is compared too;
- each ``derive`` request's verdict and ``BoundRun``s.

Each CLI request is printed as its arguments, its output and its exit code.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import almterm
from almterm import cli, parse_program, pretty_print

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work" / "same-output"
DOMAINS = ("q", "q+", "n")


def main(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    built = {w: workloads.build(w, seed, WORK / w) for w in workloads.WORKLOADS}
    for requests in built.values():
        items = [i for r in requests for i in (r.items if hasattr(r, "items") else (r.item,))]
        for path in dict.fromkeys(i.path for i in items):
            print(f"rows {path}")
            program = parse_program(Path(path).read_text(encoding="utf-8"), file=path)
            for rule in program.rules:
                print(f"  {rule.rows!r}")
            print(pretty_print(program), end="")
    for workload, requests in built.items():
        if workload == "derive":
            for req in requests:
                verdict, bound = req.send(almterm)
                print(f"derive {req.item.path} {verdict.kind} samples={req.samples} seed={req.seed}")
                for run in bound.runs if bound else ():
                    print(f"  {run}")
            continue
        if workload == "large":
            requests = [*requests, workloads.CliRequest(requests[0].items, "q", project=True)]
        else:
            requests = [workloads.CliRequest(r.items, d, project=True) for r in requests for d in DOMAINS]
        for req in requests:
            code, text = req.send(cli)
            print(" ".join(req.argv()))
            print(f"{text}exit {code}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
