"""Print the parsed rows and the output of every seeded benchmark request, to
show that a change to internals leaves what the program computes and prints
unchanged.

    cd <checkout> && PYTHONPATH=src python tests/same_output.py SEED > <out>

Run it from the root of each checkout, at the same seed, and compare the
outputs with ``cmp``.  It builds the inputs of ``perfbench/workloads.py`` for
``SEED`` (importing that file read-only) under the relative
``.perfbench-work/same-output/`` and names them, and ``programs/*.clp``, by
relative paths, so its output holds no absolute path and two checkouts in
different directories print the same.  It prints:

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
  head (satisfiable or not); then of :func:`almterm.lp.minimize` on seeded
  random boxes, systems whose rows each mention one variable (empty,
  half-open or free, with several bounds on a side, coefficients up to 3 in
  size, int and Fraction bounds, variables no row mentions, or no rows at
  all), whose objectives may name variables outside the system;
- a ``drop_redundant`` section: :func:`almterm.lp.drop_redundant` on seeded
  random systems of the shape ``--project`` prunes (2-4 variables, up to 11
  rows, fractional bounds), with one-variable rows, duplicated rows, rows
  without variables and rows followed by their negation, so that implicit
  equalities and infeasible systems, which no benchmark request hands it,
  are compared too;
- a derivation section, for stores no ``derive`` request builds (that
  workload runs only ``q`` and one rule per predicate):
  :func:`almterm.run_ground` from a seeded ground atom of the binarized form
  of each seeded ``random_flat_program_text`` program over ``q``, ``q+`` and
  ``n``, with at most six rewrites (as in
  ``test_run_ground_agrees_with_lp_oracle``), one line per domain with the
  step count and the outcome, then each visited state's goal and store rows;
  its arguments are passed by keyword, so that checkouts whose ``run_ground``
  takes other parameters before them print the same; then every
  ``BoundRun`` of :func:`almterm.check_length_bound` over ``q``, ``q+`` and
  ``n`` on the binarized form of seeded ``random_flat_program_text`` and
  ``random_binary_program_text`` programs that get a witness there, and on
  ``tests/helpers.SAMPLED_RUN_PROGRAMS`` (values that become rational over
  ``n``, runs that hand over to the store path, unsatisfiable rules and
  facts) at four seeds each;
- an options section, for option resolution, which every benchmark request
  passes as flags only: ``cli.main`` on the bundled programs with seeded
  flag combinations and config files (each option absent, a flag, a config
  value or both; comments, blank lines, a byte-order mark and now and then
  a bad value among them),
  then one config file for each input error: a missing file, an unknown
  key, a line without ``=``, a bad domain, an unreadable int and negative
  counts.  Each call is printed as its arguments, its config file's text,
  its stdout, its stderr and its exit code.

Each CLI request is printed as its arguments, its output and its exit code.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import io
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
    check_length_bound,
    cli,
    decide,
    drop_redundant,
    entails,
    feasible_point,
    minimize,
    parse_program,
    pretty_print,
    run_ground,
    verify,
)
from almterm.derivation import sample_starts
from helpers import SAMPLED_RUN_PROGRAMS, random_binary_program_text, random_flat_program_text

WORK = Path(".perfbench-work", "same-output")
DOMAINS = ("q", "q+", "n")
MINIMIZE_CALLS = 300
ENTAILS_CALLS = 300
REDUNDANCY_CALLS = 300
VERIFY_PROGRAMS = 100
SAMPLED_PROGRAMS = 100
BOX_CALLS = 300
DERIVED_PROGRAMS = 100
BOUND_PROGRAMS = 100
BOUND_SAMPLES = 12
OPTION_CALLS = 120
BAD_CONFIGS = (
    "witnes = true\n",
    "domain q+\n",
    "domain = z\nsample = -1\n",
    "seed = x\n",
    "sample = 1\nmax-steps = y\n",
    "sample = -1\n",
    "sample = 2\nmax-steps = -5\n",
)


def main(seed: int) -> None:
    sys.path.insert(0, "perfbench")
    try:
        import workloads
    finally:
        sys.path.remove("perfbench")
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
    redundancy(seed)
    derivations(seed)
    options(seed)


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
    for _ in range(BOX_CALLS):
        # rows over one variable each: several bounds on a side, coefficients
        # up to 3 in size, int and Fraction bounds, unmentioned variables
        variables = rng.sample(range(6), rng.randint(0, 4))
        rows = []
        for v in variables:
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                bound = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                if bound.denominator == 1 and rng.random() < 0.8:
                    bound = bound.numerator
                rows.append(({v: rng.choice((1, 1, 1, 2, 3)) * rng.choice((1, -1))}, bound))
        rng.shuffle(rows)
        system = LinearSystem(tuple(variables), tuple(rows))
        # ids 6 and 7 lie outside the system
        objectives = [
            {
                v: rng.choice((-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2)))
                for v in rng.sample([*variables, 6, 7], rng.randint(0, len(variables) + 2))
            }
            for _ in range(rng.randint(0, 3))
        ]
        print(f"minimize box {system!r} {objectives!r}")
        print(f"  {minimize(system, *objectives)!r}")


def redundancy(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(REDUNDANCY_CALLS):
        n = rng.randint(2, 4)
        rows: list = []
        for _ in range(rng.randint(0, 11)):
            kind = rng.choice(("row", "row", "one", "copy", "negation", "none"))
            if kind in ("copy", "negation") and rows:
                coeffs, bound = rng.choice(rows)
                if kind == "negation":
                    # an implicit equality, or now and then an empty system
                    coeffs = {v: -c for v, c in coeffs.items()}
                    bound = -bound - rng.choice((0, 0, 0, Fraction(1, 2)))
            else:
                if kind == "one":
                    coeffs = {rng.randrange(n): rng.choice((-3, -2, -1, 1, 2, 3))}
                elif kind == "none":
                    coeffs = {}
                else:
                    coeffs = {v: c for v in range(n) if (c := rng.randint(-3, 3))}
                bound = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rows.append((coeffs, bound))
        system = LinearSystem(tuple(range(n)), tuple(rows))
        print(f"drop_redundant {system!r}")
        print(f"  {drop_redundant(system).rows!r}")


def derivations(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(DERIVED_PROGRAMS):
        text = random_flat_program_text(rng)
        program = binarize(parse_program(text))
        pred = rng.choice(sorted(program.arities))
        args = [rng.randint(0, 9) for _ in range(program.arities[pred])]
        print(f"run_ground {text!r} {pred} {args}")
        for tag in DOMAINS:
            trace = run_ground(program, pred, args, max_steps=6, seed=rng.getrandbits(32), domain=Domain(tag))
            print(f"  {tag} {trace.steps} {trace.outcome}")
            for state in trace.states:
                print(f"    {state.goal!r} {state.rows!r}")
    for k in range(BOUND_PROGRAMS):
        generate = (random_flat_program_text, random_binary_program_text)[k % 2]
        text = generate(rng)
        program = binarize(parse_program(text))
        print(f"check_length_bound {text!r}")
        for tag in DOMAINS:
            bound_runs(program, tag, [rng.getrandbits(16)])
    for text, tags in SAMPLED_RUN_PROGRAMS:
        print(f"check_length_bound {text!r}")
        for tag in tags:
            bound_runs(parse_program(text), tag, range(4))


def bound_runs(program, tag: str, seeds) -> None:
    """Print the verdict over ``tag`` and, given a witness, every
    ``BoundRun`` of ``check_length_bound`` at each seed."""
    verdict = decide(program, Domain(tag))
    print(f"  {tag} {verdict.kind}")
    if verdict.witness is not None:
        for seed in seeds:
            for run in check_length_bound(program, verdict.witness, BOUND_SAMPLES, seed, Domain(tag)).runs:
                print(f"    {run}")


def options(seed: int) -> None:
    rng = random.Random(seed)
    programs = sorted(str(p) for p in Path("programs").glob("*.clp"))
    config = WORK / "options.cfg"
    config.parent.mkdir(parents=True, exist_ok=True)
    yes = ("1", "true", "Yes", "ON", "0", "no", "off", "")
    for _ in range(OPTION_CALLS):
        argv = ["check", *rng.sample(programs, rng.randint(1, 2))]
        lines = []
        for key, flag, values in (
            ("domain", lambda v: ["--domain", v], ("q", "q+", "r", "r+", "n")),
            ("witness", lambda v: ["--witness"], yes),
            ("project", lambda v: ["--project"], yes),
            ("verify", lambda v: [rng.choice(("--verify", "--no-verify"))], yes),
            ("sample", lambda v: ["--sample", v], ("0", "1", "2")),
            ("seed", lambda v: ["--seed", v], ("0", "3", "-7")),
            ("max-steps", lambda v: ["--max-steps", v], ("0", "1", "5")),
            ("json", lambda v: ["--json"], yes),
        ):
            where = rng.choice(("none", "flag", "config", "both"))
            if where in ("flag", "both"):
                argv += flag(rng.choice(values))
            if where in ("config", "both"):
                # now and then a value that only a flag keeps from being read
                value = rng.choice(values) if rng.random() < 0.95 else rng.choice(("z", "-1"))
                lines.append(f"{key}{rng.choice(('', ' '))}={rng.choice(('', '  '))}{value}")
            if rng.random() < 0.1:
                lines.append(rng.choice(("", "# comment", "% comment", "  ")))
        rng.shuffle(lines)
        text = "".join(f"{line}\n" for line in lines)
        if rng.random() < 0.1:
            text = "\ufeff" + text
        run_options(argv, text if lines or rng.random() < 0.5 else None, config)
    argv = ["check", programs[0], "--json"]
    run_options([*argv, "--config", str(WORK / "missing.cfg")], None, config)
    for text in BAD_CONFIGS:
        run_options(argv, text, config)


def run_options(argv: list[str], text: str | None, config: Path) -> None:
    """Print ``cli.main(argv)`` with ``text`` as its config file (none if
    ``text`` is None): arguments, config, stdout, stderr and exit code."""
    if text is not None:
        config.write_text(text, encoding="utf-8")
        argv = [*argv, "--config", str(config)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(f"options {' '.join(argv)}")
    print(f"  config {text!r}")
    print(f"{out.getvalue()}stderr {err.getvalue()!r}")
    print(f"exit {code}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
