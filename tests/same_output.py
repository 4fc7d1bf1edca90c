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
- each ``derive`` request's verdict and ``BoundRun``s;
- a library section, for paths no benchmark request reaches: the ``repr`` of
  :func:`almterm.lp.minimize` on seeded random systems whose objectives name
  variables outside the system; of :func:`almterm.lp.feasible_point` on
  seeded random systems with fractional bounds, and of
  :func:`almterm.lp.entails` on them with a tested row whose coefficients
  and bound are fractional; of :func:`almterm.verify` for two random mappings
  per seeded ``tests/helpers.random_flat_program_text`` program, over ``q``,
  ``q+`` and ``n``; and of :func:`almterm.derivation.sample_starts` over
  ``q``, ``q+`` and ``n`` on the binarized form of seeded
  ``random_flat_program_text`` programs that have a rule with an arity-0
  head (satisfiable or not).

Each CLI request is printed as its arguments, its output and its exit code.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import almterm
from almterm import (
    Domain,
    LevelMapping,
    LinearSystem,
    binarize,
    cli,
    entails,
    feasible_point,
    minimize,
    parse_program,
    pretty_print,
    verify,
)
from almterm.derivation import sample_starts
from helpers import random_flat_program_text

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work" / "same-output"
DOMAINS = ("q", "q+", "n")
MINIMIZE_CALLS = 300
ENTAILS_CALLS = 300
VERIFY_PROGRAMS = 100
SAMPLED_PROGRAMS = 100


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

    library(seed)


def library(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(MINIMIZE_CALLS):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: c for v in range(n) if (c := rng.randint(-3, 3))}
            rows.append((coeffs, rng.randint(-5, 5)))
        system = LinearSystem(tuple(range(n)), tuple(rows))
        # ids n, n + 1, n + 2 lie outside the system; the first objective
        # always names one of them
        objectives = [
            {v: rng.randint(-3, 3) for v in rng.sample(range(n + 3), rng.randint(1, 3))}
            for _ in range(rng.randint(1, 3))
        ]
        objectives[0][n + rng.randrange(3)] = rng.choice((-2, -1, 1, 2))
        print(f"minimize {system!r} {objectives!r}")
        print(f"  {minimize(system, *objectives)!r}")
    for _ in range(ENTAILS_CALLS):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: c for v in range(n) if (c := rng.randint(-3, 3))}
            rows.append((coeffs, Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        system = LinearSystem(tuple(range(n)), tuple(rows))
        # id n lies outside the system
        coeffs = {v: c for v in range(n + 1) if (c := Fraction(rng.randint(-6, 6), rng.randint(1, 4)))}
        bound = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        print(f"entails {system!r} {coeffs!r} {bound!r}")
        print(f"  {feasible_point(system)!r} {entails(system, coeffs, bound)!r}")
    for _ in range(VERIFY_PROGRAMS):
        text = random_flat_program_text(rng)
        program = parse_program(text)
        print(f"verify {text!r}")
        for _ in range(2):
            lm = LevelMapping(
                {
                    pred: tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(arity + 1))
                    for pred, arity in program.arities.items()
                }
            )
            for tag in DOMAINS:
                print(f"  {tag} {verify(program, lm, Domain(tag))!r}")
    sampled = 0
    while sampled < SAMPLED_PROGRAMS:
        text = random_flat_program_text(rng)
        program = binarize(parse_program(text))
        if all(rule.head.arity for rule in program.rules):
            continue
        sampled += 1
        print(f"sample_starts {text!r}")
        for tag in DOMAINS:
            starts = sample_starts(program, Domain(tag), random.Random(rng.getrandbits(32)))
            print(f"  {tag} {starts!r}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
