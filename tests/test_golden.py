"""Byte-identical CLI output and derivation samples on the bundled programs.

The ``check-*`` golden files hold what ``almterm check --json --witness
--project`` prints for every ``programs/*.clp`` on one domain, followed by the
exit code.  The checks run from inside ``programs/`` with bare file names, so
the ``file`` field does not depend on where the repository lives.  Any change
to a verdict, witness, projection row or report field shows up here.

The ``check-random-*`` golden files hold the same output for a seeded corpus
of small random programs (``helpers.random_binary_program_text``,
``random_flat_program_text`` and ``random_rational_program_text``), written
to a temporary directory and checked from there, again with bare file names.
They cover the kinds of rows the linear-algebra layer sees in practice, beyond
the four bundled programs; the rational programs cover the scaling of ``a/b``
coefficients, parentheses and cancelling terms to integer rows.

The ``bound-*`` golden files hold every ``BoundRun`` of ``check_length_bound``
(fixed seed and sample count) on each bundled program the decider certifies
on that domain, run on the binarized program with the decider's witness.  Any
change to a sampled start, its level and budget, or a derivation's rewrite
count and outcome shows up here.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from almterm import Domain, check_length_bound, decide, parse_program
from almterm.cli import main
from helpers import (
    random_binary_program_text,
    random_flat_program_text,
    random_rational_program_text,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PROGRAMS = HERE.parent / "programs"
DOMAINS = {"q": "q", "q+": "qplus", "n": "n"}
BOUND_SAMPLES = 40
BOUND_SEED = 5
RANDOM_SEEDS = range(30)


def check_output(directory: Path, names: list[str], domain: str) -> str:
    """What ``check --json --witness --project`` prints for ``names``, run
    from ``directory``, followed by the exit code."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(
                ["check", *names, "--json", "--witness", "--project", "--domain", domain]
            )
    finally:
        os.chdir(cwd)
    return f"{out.getvalue()}exit {code}\n"


def golden_output(domain: str) -> str:
    return check_output(PROGRAMS, sorted(p.name for p in PROGRAMS.glob("*.clp")), domain)


def random_corpus() -> dict[str, str]:
    """File name to program text: one binary, one flat and one rational
    program per seed."""
    files: dict[str, str] = {}
    for seed in RANDOM_SEEDS:
        files[f"binary{seed:02d}.clp"] = random_binary_program_text(random.Random(seed))
        files[f"flat{seed:02d}.clp"] = random_flat_program_text(random.Random(seed))
        files[f"rational{seed:02d}.clp"] = random_rational_program_text(random.Random(seed))
    return files


def random_output(domain: str) -> str:
    files = random_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text + "\n", encoding="utf-8")
        return check_output(Path(tmp), sorted(files), domain)


def bound_output(domain: str) -> str:
    dom = Domain.parse(domain)
    lines: list[str] = []
    for path in sorted(PROGRAMS.glob("*.clp")):
        verdict = decide(parse_program(path.read_text(encoding="utf-8")), dom)
        if verdict.witness is None:
            lines.append(f"{path.name} {verdict.kind}")
            continue
        report = check_length_bound(
            verdict.binary, verdict.witness, samples=BOUND_SAMPLES, seed=BOUND_SEED, domain=dom
        )
        for r in report.runs:
            args = ", ".join(str(a) for a in r.args)
            lines.append(
                f"{path.name} {r.pred}({args}) level={r.level} bound={r.bound}"
                f" steps={r.steps} outcome={r.outcome}"
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_check_output_matches_golden(domain):
    expected = (GOLDEN / f"check-{DOMAINS[domain]}.jsonl").read_text(encoding="utf-8")
    assert golden_output(domain) == expected


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_random_check_output_matches_golden(domain):
    expected = (GOLDEN / f"check-random-{DOMAINS[domain]}.jsonl").read_text(encoding="utf-8")
    assert random_output(domain) == expected


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_length_bound_runs_match_golden(domain):
    expected = (GOLDEN / f"bound-{DOMAINS[domain]}.txt").read_text(encoding="utf-8")
    assert bound_output(domain) == expected


if __name__ == "__main__":  # pragma: no cover
    for domain, stem in DOMAINS.items():
        (GOLDEN / f"check-{stem}.jsonl").write_text(golden_output(domain), encoding="utf-8")
        (GOLDEN / f"bound-{stem}.txt").write_text(bound_output(domain), encoding="utf-8")
        (GOLDEN / f"check-random-{stem}.jsonl").write_text(random_output(domain), encoding="utf-8")
    sys.exit(0)
