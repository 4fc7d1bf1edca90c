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

``parse-errors.txt`` holds what the parser makes of a seeded corpus of
mutated inputs: the bundled programs and the random corpus, each also with
grammar pieces inserted, deleted and substituted (among them a tab, a
carriage return, a NUL, a non-ASCII letter, a comment that runs to a later
line, an overlong literal and deep nesting).  Each line names the input and
gives the error class, its span and ``str(err)``, or the parsed rules' rows.
Any change to an error message, line or column shows up here.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.

A change to internals should also leave the output of the benchmark's seeded
requests unchanged; ``tests/same_output.py`` prints it for one checkout, to be
compared byte for byte with another's.
"""

import contextlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from almterm import (
    Domain,
    ParseError,
    check_length_bound,
    decide,
    parse_program,
)
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
CORPUS_SEEDS = range(30)
PARSE_SEED = 8
PARSE_MUTANTS = 8
# grammar pieces, whitespace the grammar never mentions, and characters the
# grammar rejects; "?-" is in no clause, but dropping it would change every
# mutant drawn after it
PARSE_PIECES = (
    ":-", "?-", ">=", "<=", "=", "(", ")", ",", ".", "+", "-", "*", "/",
    "p", "q(x)", "p(x, y)", "x", "y", "0", "1", "72", "1/0", "x*y", "2/x",
    " ", "\n", "\t", "\r", "\r\n", "\x00", "\u00e9", "%", "% note\n",
    "% note\n  x = 1", "9" * 5000, "(" * 260, "- " * 260,
)


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
    for seed in CORPUS_SEEDS:
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


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        action = rng.choice(("insert", "delete", "substitute"))
        if action == "insert":
            text = text[:pos] + rng.choice(PARSE_PIECES) + text[pos:]
        else:
            cut = pos + rng.randint(1, 4)
            piece = rng.choice(PARSE_PIECES) if action == "substitute" else ""
            text = text[:pos] + piece + text[cut:]
    return text


def _parse_line(name: str, text: str) -> str:
    try:
        rules = parse_program(text, file=name).rules
    except ParseError as err:
        span = err.span
        return (
            f"{name} {type(err).__name__} {span.line}:{span.col_start}-{span.col_end}"
            f" {str(err)!r}"
        )
    return f"{name} ok rules={len(rules)} rows={[r.rows for r in rules]!r}"


def parse_error_output() -> str:
    bases = {p.name: p.read_text(encoding="utf-8") for p in sorted(PROGRAMS.glob("*.clp"))}
    bases.update(random_corpus())
    rng = random.Random(PARSE_SEED)
    lines: list[str] = []
    for name, text in bases.items():
        lines.append(_parse_line(name, text))
        for k in range(PARSE_MUTANTS):
            lines.append(_parse_line(f"{name}#{k}", _mutate(rng, text)))
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


def test_parse_errors_match_golden():
    expected = (GOLDEN / "parse-errors.txt").read_text(encoding="utf-8")
    assert parse_error_output() == expected


if __name__ == "__main__":  # pragma: no cover
    (GOLDEN / "parse-errors.txt").write_text(parse_error_output(), encoding="utf-8")
    for domain, stem in DOMAINS.items():
        (GOLDEN / f"check-{stem}.jsonl").write_text(golden_output(domain), encoding="utf-8")
        (GOLDEN / f"bound-{stem}.txt").write_text(bound_output(domain), encoding="utf-8")
        (GOLDEN / f"check-random-{stem}.jsonl").write_text(random_output(domain), encoding="utf-8")
    sys.exit(0)
