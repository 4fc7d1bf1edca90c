"""README.md's CLI transcript and library snippet, checked against what the
program prints and returns."""

import re

from almterm.cli import main
from helpers import PROGRAMS

ROOT = PROGRAMS.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_transcript_and_snippet_match(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    command = "$ almterm check programs/example72.clp --witness --project"
    transcript = README.split(command + "\n", 1)[1].split("\n\n", 1)[0]
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.splitlines() == transcript.splitlines()

    (snippet,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace: dict = {}
    exec(snippet, namespace)
    (line,) = [line for line in snippet.splitlines() if line.startswith("state.goal, state.rows")]
    expression, comment = line.split("#", 1)
    shown = comment.strip().rsplit(": ", 1)[0]
    assert repr(eval(expression, namespace)) == shown
