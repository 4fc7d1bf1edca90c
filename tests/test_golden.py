"""Byte-identical CLI output and derivation samples on the bundled programs.

The ``check-*`` golden files hold what ``almterm check --json --witness
--project`` prints for every ``programs/*.clp`` on one domain, followed by the
exit code.  The checks run from inside ``programs/`` with bare file names, so
the ``file`` field does not depend on where the repository lives.  Any change
to a verdict, witness, projection row or report field shows up here.

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
import sys
from pathlib import Path

import pytest

from almterm import Domain, check_length_bound, decide, parse_program
from almterm.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PROGRAMS = HERE.parent / "programs"
DOMAINS = {"q": "q", "q+": "qplus", "n": "n"}
BOUND_SAMPLES = 40
BOUND_SEED = 5


def golden_output(domain: str) -> str:
    names = sorted(p.name for p in PROGRAMS.glob("*.clp"))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(PROGRAMS)
    try:
        with contextlib.redirect_stdout(out):
            code = main(
                ["check", *names, "--json", "--witness", "--project", "--domain", domain]
            )
    finally:
        os.chdir(cwd)
    return f"{out.getvalue()}exit {code}\n"


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
def test_length_bound_runs_match_golden(domain):
    expected = (GOLDEN / f"bound-{DOMAINS[domain]}.txt").read_text(encoding="utf-8")
    assert bound_output(domain) == expected


if __name__ == "__main__":  # pragma: no cover
    for domain, stem in DOMAINS.items():
        (GOLDEN / f"check-{stem}.jsonl").write_text(golden_output(domain), encoding="utf-8")
        (GOLDEN / f"bound-{stem}.txt").write_text(bound_output(domain), encoding="utf-8")
    sys.exit(0)
