"""The four workloads: seeded inputs, the requests that send them, and the
independent checks of every answer.

A workload is one *round*: a fixed list of requests built from the seed.  A
run repeats whole rounds, one request at a time (a closed loop with a single
caller), so every run attempts the same operations in the same proportions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import planted as P
from planted import NO, Shape

# --- input make-up -----------------------------------------------------------
# Shapes fix the structure of every generated program (predicate arities and
# the body size of each rule); the seed picks boxes, body arguments, planted
# mappings and which predicate each body atom calls.  Keeping the structure
# fixed keeps the work of a round nearly independent of the seed.

# Every call carries the same four shapes, planted yes, no, yes, no, so
# calls differ only in their domain; half of them run on q+, which puts the
# median request inside one cluster of like calls instead of between two.
SMALL_SHAPES = (
    Shape((1,), (1, 2)),
    Shape((2, 1), (2, 1, 0), answer=NO),
    Shape((1, 2), (1, 3)),
    Shape((2, 1, 1), (1, 1, 2), answer=NO),
)
SMALL_DOMAINS = ("q", "q+", "q+", "n")
SMALL_CALLS = 48

# One three-predicate shape with a fixed planted mapping for the planted-yes
# programs: their cost varies least from seed to seed, and the median request
# falls among fourteen like programs.  The two planted-no programs have four
# predicates and one diverging rule among 121.
_LYES = Shape((1, 1, 2), (1,) * 120, mapping=((10, 1), (10, 1), (10, 1, 1)))
_LNO = Shape((2, 1, 1, 1), (1,) * 120, mapping=((10, 1, 1), (10, 1), (10, 1), (10, 1)), answer=NO)
LARGE_ROUND = (_LYES,) * 4 + (_LNO,) + (_LYES,) * 6 + (_LNO,) + (_LYES,) * 4

PROJECT_SHAPES = (
    Shape((1,), (1, 2)),
    Shape((1,), (1, 1, 2)),
    Shape((2,), (1, 1)),
    Shape((1, 1), (1, 1, 1)),
    Shape((1, 1), (2, 1)),
    Shape((1, 2), (1, 1)),
    Shape((1, 1), (1, 1, 1, 1)),
    Shape((1,), (2, 2)),
)
PROJECT_PROGRAMS = 160

# Countdown chains of 1 or 2 predicates behind DERIVE_ENTRIES entry
# predicates; the seed permutes the lengths and the sample counts over the
# programs and seeds each sampler.  No count exceeds the number of entries,
# so every sample starts at an entry and runs the whole countdown.
DERIVE_CHAINS = (1, 2) * 8
DERIVE_LENGTHS = tuple(range(200, 232, 2))
DERIVE_SAMPLES = (2,) * 3 + (3,) * 10 + (4,) * 3
DERIVE_ENTRIES = 4


# --- requests ------------------------------------------------------------------


@dataclass
class Item:
    path: str
    planted: P.Planted
    domain: str


@dataclass
class Outcome:
    programs: int = 0
    rules: int = 0
    failed: int = 0
    rewrites: int = 0
    errors: list[str] = field(default_factory=list)

    def wrong(self, message: str) -> None:
        self.errors.append(message)


@dataclass
class CliRequest:
    """``almterm check FILE... --json --witness [--project]`` in-process."""

    items: list[Item]
    domain: str
    project: bool

    def argv(self) -> list[str]:
        argv = ["check", *(i.path for i in self.items), "--domain", self.domain, "--json", "--witness", "--verify"]
        if self.project:
            argv.append("--project")
        return argv

    def send(self, cli) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv())
        return code, out.getvalue()

    def check(self, answer: tuple[int, str]) -> Outcome:
        code, text = answer
        outcome = Outcome()
        lines = text.splitlines()
        if len(lines) != len(self.items):
            outcome.wrong(f"{len(lines)} reports for {len(self.items)} files")
            return outcome
        worst = 0
        for item, line in zip(self.items, lines):
            report = json.loads(line)
            outcome.programs += 1
            outcome.rules += item.planted.num_rules
            if report["error"] is not None:
                outcome.failed += 1
                worst = 2
                continue
            _check_report(item, report, self.project, outcome)
            worst = max(worst, 0 if report["verdict"] in ("alm-recurrent", "sound-yes") else 1)
        if code != worst:
            outcome.wrong(f"exit code {code}, expected {worst}")
        return outcome


def _witness(report: dict) -> dict[str, tuple[Fraction, ...]]:
    return {p: tuple(Fraction(c) for c in vec) for p, vec in report["witness"].items()}


def _check_report(item: Item, report: dict, project: bool, outcome: Outcome) -> None:
    pl = item.planted
    want = P.expected_verdict(pl.answer, item.domain)
    if report["file"] != item.path or report["domain"] != item.domain:
        outcome.wrong(f"{item.path}: report for {report['file']} [{report['domain']}]")
    if report["verdict"] != want:
        outcome.wrong(f"{item.path} [{item.domain}]: verdict {report['verdict']}, planted {want}")
        return
    if pl.answer == NO:
        if report["witness"] is not None:
            outcome.wrong(f"{item.path}: witness on a planted-no program")
        return
    if report.get("epsilon") != "1":
        outcome.wrong(f"{item.path}: verification did not run")
    witness = _witness(report)
    if not P.certifies(witness, pl):
        outcome.wrong(f"{item.path}: returned witness fails the box check")
    if project:
        rows = report["projection"]
        if not rows and pl.rules:
            outcome.wrong(f"{item.path}: empty projection")
        for name, mapping in (("planted mapping", pl.mapping), ("witness", witness)):
            if not all(_row_holds(row, mapping) for row in rows):
                outcome.wrong(f"{item.path}: {name} violates the printed projection")


def _row_holds(row: dict, mapping) -> bool:
    """Exact evaluation of a projection row ``sum(c * lm(pred,i)) >= rhs``."""
    total = Fraction(0)
    for name, coeff in row["terms"].items():
        pred, index = name[len("lm("):-1].split(",")
        total += Fraction(coeff) * Fraction(mapping[pred][int(index)])
    if row["rel"] != ">=":
        return False
    return total >= Fraction(row["rhs"])


@dataclass
class DeriveRequest:
    """``decide`` then ``check_length_bound`` through the library API."""

    item: Item
    samples: int
    seed: int

    def send(self, at):
        program = at.parse_program(Path(self.item.path).read_text(encoding="utf-8"), file=self.item.path)
        domain = at.Domain.parse(self.item.domain)
        verdict = at.decide(program, domain)
        if verdict.witness is None:
            return verdict, None
        bound = at.check_length_bound(
            verdict.binary, verdict.witness, samples=self.samples, seed=self.seed, domain=domain
        )
        return verdict, bound

    def check(self, answer) -> Outcome:
        verdict, bound = answer
        pl = self.item.planted
        outcome = Outcome(programs=1, rules=pl.num_rules)
        want = P.expected_verdict(pl.answer, self.item.domain)
        if verdict.kind != want:
            outcome.wrong(f"{self.item.path}: verdict {verdict.kind}, planted {want}")
            return outcome
        witness = {p: tuple(v) for p, v in verdict.witness.coeffs.items()}
        if not P.certifies(witness, pl):
            outcome.wrong(f"{self.item.path}: witness fails the box check")
        if len(bound.runs) != self.samples:
            outcome.wrong(f"{self.item.path}: {len(bound.runs)} samples, {self.samples} requested")
        for run in bound.runs:
            limit = max(0, math.floor(P.level(witness, run.pred, run.args))) + 1
            if run.steps > limit:
                outcome.wrong(f"{self.item.path}: {run.steps} rewrites from {run.pred}{run.args}, bound {limit}")
            outcome.rewrites += run.steps
        return outcome


# --- building a round ---------------------------------------------------------------


def _write(workdir: Path, pl: P.Planted) -> str:
    path = workdir / f"{pl.name}.clp"
    path.write_text(pl.text, encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, workdir: Path) -> list:
    """The requests of one round of ``workload``; input files go to
    ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "small-mixed":
        requests = []
        for call in range(SMALL_CALLS):
            domain = SMALL_DOMAINS[call % len(SMALL_DOMAINS)]
            items = []
            for b, shape in enumerate(SMALL_SHAPES):
                pl = P.generate(rng, shape, f"s{call:02d}{b}")
                items.append(Item(_write(workdir, pl), pl, domain))
            requests.append(CliRequest(items, domain, project=False))
        return requests
    if workload == "large":
        requests = []
        for k, shape in enumerate(LARGE_ROUND):
            pl = P.generate(rng, shape, f"l{k:02d}")
            requests.append(CliRequest([Item(_write(workdir, pl), pl, "q")], "q", project=False))
        return requests
    if workload == "project":
        requests = []
        for k in range(PROJECT_PROGRAMS):
            pl = P.generate(rng, PROJECT_SHAPES[k % len(PROJECT_SHAPES)], f"j{k:03d}")
            requests.append(CliRequest([Item(_write(workdir, pl), pl, "q")], "q", project=True))
        return requests
    if workload == "derive":
        lengths = list(DERIVE_LENGTHS)
        samples = list(DERIVE_SAMPLES)
        rng.shuffle(lengths)
        rng.shuffle(samples)
        requests = []
        for k, (chain, length, count) in enumerate(zip(DERIVE_CHAINS, lengths, samples)):
            pl = P.countdown(rng, f"d{k:02d}", chain, length, DERIVE_ENTRIES)
            requests.append(DeriveRequest(Item(_write(workdir, pl), pl, "q"), count, rng.randrange(1 << 30)))
        return requests
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("small-mixed", "large", "project", "derive")
