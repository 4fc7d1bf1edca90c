"""Byte-identical CLI output on the bundled programs.

The golden files hold what ``almterm check --json --witness --project`` prints
for every ``programs/*.clp`` on one domain, followed by the exit code.  The
checks run from inside ``programs/`` with bare file names, so the ``file``
field does not depend on where the repository lives.  Any change to a
verdict, witness, projection row or report field shows up here.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from almterm.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PROGRAMS = HERE.parent / "programs"
DOMAINS = {"q": "q", "q+": "qplus", "n": "n"}


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


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_check_output_matches_golden(domain):
    expected = (GOLDEN / f"check-{DOMAINS[domain]}.jsonl").read_text(encoding="utf-8")
    assert golden_output(domain) == expected


if __name__ == "__main__":  # pragma: no cover
    for domain, stem in DOMAINS.items():
        (GOLDEN / f"check-{stem}.jsonl").write_text(golden_output(domain), encoding="utf-8")
    sys.exit(0)
