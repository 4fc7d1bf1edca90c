import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import almterm.cli
import almterm.derivation
from almterm import AlmtermError, LinearSystem
from almterm.cli import (
    EXIT_CERTIFIED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CERTIFIED,
    SCHEMA_VERSION,
    main,
)
from almterm.derivation import SUCCESS, BoundReport, BoundRun
from almterm.verifier import FAIL, RuleCheck, VerifyReport
from helpers import PROGRAMS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    reports = [json.loads(line) for line in out.strip().splitlines()]
    return code, reports


def test_certified_program_exits_zero(capsys):
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--domain", "q",
        "--witness", "--project",
    )
    assert code == EXIT_CERTIFIED
    assert report["version"] == SCHEMA_VERSION
    assert report["verdict"] == "alm-recurrent"
    assert report["witness"] == {"p": ["73", "-1"]}
    rows = {
        (frozenset(r["terms"].items()), r["rhs"]) for r in report["projection"]
    }
    assert rows == {
        (frozenset({("lm(p,1)", "-1")}), "1"),
        (frozenset({("lm(p,0)", "1"), ("lm(p,1)", "73")}), "0"),
    }
    statuses = {r["id"]: r["status"] for r in report["rules"]}
    assert statuses == {"r1": "fact", "r2": "unsat", "r3": "analyzed"}


def test_witness_rationals_roundtrip(capsys):
    _, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--witness"
    )
    parsed = {p: [Fraction(c) for c in vec] for p, vec in report["witness"].items()}
    assert parsed == {"p": [Fraction(73), Fraction(-1)]}


def test_not_certified_exits_one(capsys):
    code, (report,) = run_json(capsys, "check", str(PROGRAMS / "diverge.clp"))
    assert code == EXIT_NOT_CERTIFIED
    assert report["verdict"] == "not-alm-recurrent"


def test_naturals_verdict_and_note(capsys):
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--domain", "n"
    )
    assert code == EXIT_CERTIFIED
    assert report["verdict"] == "sound-yes"
    assert any("sound" in note for note in report["notes"])
    for domain in ("r", "r+"):
        code, out = run(capsys, "check", str(PROGRAMS / "example72.clp"), "--domain", domain)
        assert code == EXIT_CERTIFIED
        assert out.splitlines()[-1] == (
            "  note: rational-coefficient systems are decided identically over the "
            "rationals and the reals; the rational pipeline is exact for both"
        )


def test_missing_file_exits_two(capsys):
    code, (report,) = run_json(capsys, "check", "no-such-file.clp")
    assert code == EXIT_INPUT_ERROR
    assert "cannot read" in report["error"]


def test_parse_error_reports_span(capsys, tmp_path):
    bad = tmp_path / "bad.clp"
    bad.write_text("p(x) :- x * x = 2.\n")
    code, (report,) = run_json(capsys, "check", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert "non-linear" in report["error"]
    assert "bad.clp:1" in report["error"]


def test_leading_byte_order_mark_is_not_program_text(capsys, tmp_path):
    program = tmp_path / "bom.clp"
    program.write_text("\ufeffp(x).\n", encoding="utf-8")
    code, (report,) = run_json(capsys, "check", str(program))
    assert code == EXIT_CERTIFIED
    assert report["error"] is None and report["verdict"] == "alm-recurrent"


def check_then_valid(capsys, tmp_path, text):
    """``check`` on a file holding ``text``, then on a valid program."""
    bad = tmp_path / "bad.clp"
    bad.write_text(text)
    code, reports = run_json(capsys, "check", str(bad), str(PROGRAMS / "example72.clp"))
    assert code == EXIT_INPUT_ERROR
    assert [r["verdict"] for r in reports][1:] == ["alm-recurrent"]
    return reports[0]


def test_overlong_literal_is_an_input_error(capsys, tmp_path):
    report = check_then_valid(capsys, tmp_path, "p(x) :- x >= " + "9" * 5000 + ".\n")
    assert "too long" in report["error"] and "bad.clp:1" in report["error"]


def test_deep_nesting_is_an_input_error(capsys, tmp_path):
    deep = "p(x) :- x >= " + "(" * 400 + "1" + ")" * 400 + ".\n"
    report = check_then_valid(capsys, tmp_path, deep)
    assert "nested" in report["error"] and "bad.clp:1" in report["error"]


def test_huge_witness_is_printed_exactly(capsys, tmp_path):
    """A witness far longer than the interpreter's int/str digit limit is
    written out in full, in JSON and in text, and later files are reported."""
    n = "7" * 2500
    big = tmp_path / "big.clp"
    big.write_text(f"p(x) :- x >= 0, y = x - 1/{n}/{n}, p(y).\n")
    limit = sys.get_int_max_str_digits()
    files = [str(big), str(PROGRAMS / "example72.clp")]
    code, reports = run_json(capsys, "check", *files, "--witness", "--project")
    assert sys.get_int_max_str_digits() == limit
    assert code == EXIT_CERTIFIED
    assert [r["verdict"] for r in reports] == ["alm-recurrent", "alm-recurrent"]
    digits = reports[0]["witness"]["p"][1]
    assert len(digits) > limit
    sys.set_int_max_str_digits(0)
    try:
        slope = Fraction(digits)
    finally:
        sys.set_int_max_str_digits(limit)
    # the level drops by slope / n^2 per step, which must be at least 1
    assert slope >= int(n) ** 2
    assert reports[1]["witness"] == {"p": ["73", "-1"]}

    code, out = run(capsys, "check", *files, "--witness", "--project")
    assert code == EXIT_CERTIFIED
    assert digits in out and "example72.clp [q]: alm-recurrent" in out
    assert sys.get_int_max_str_digits() == limit


_ARITY = {"p": 1, "q": 2, "r": 0}
_NUMBERS = st.sampled_from(["0", "1", "2", "72", "1/2", "-3", "(1 - 2)"])


def _atom(pred: str, tag: str) -> tuple[str, list[str]]:
    """An atom whose variables no other atom of the rule uses (flatness)."""
    args = [f"{v}{tag}" for v in "xy"[: _ARITY[pred]]]
    return (f"{pred}({', '.join(args)})" if args else pred), args


@st.composite
def _rules(draw) -> str:
    preds = st.sampled_from(sorted(_ARITY))
    head, variables = _atom(draw(preds), "")
    body = [_atom(pred, str(k)) for k, pred in enumerate(draw(st.lists(preds, max_size=3)))]
    variables += [v for _, args in body for v in args]
    items = []
    if variables:
        term = _NUMBERS | st.sampled_from(variables).flatmap(
            lambda v: _NUMBERS.map(lambda c: f"{c}*{v}") | st.just(v)
        )
        relation = st.sampled_from(["=", ">=", "<="])
        for _ in range(draw(st.integers(0, 3))):
            items.append(f"{draw(term)} {draw(relation)} {draw(term)}")
    items += [text for text, _ in body]
    return f"{head} :- {', '.join(items)}." if items else f"{head}."


_FILE_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(list("():-=,.+*/ \n") + ["p", "x", "1", ">="]), max_size=30).map("".join),
    st.lists(_rules(), max_size=4).map("\n".join),
)
# file contents: the texts above in UTF-8, and arbitrary bytes
_FILE_BYTES = st.one_of(_FILE_TEXT.map(lambda text: text.encode("utf-8")), st.binary(max_size=60))


@settings(max_examples=150, deadline=None)
@given(_FILE_BYTES, st.sampled_from(["q", "q+", "n"]), st.booleans())
@example("p(x) :- x >= 0, y = x - 1, p(y). % caf\xe9".encode("latin-1"), "q", True)
def test_any_file_text_ends_in_one_report_and_an_exit_code(text, domain, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.clp"
        path.write_bytes(text)
        argv = ["check", str(path), str(PROGRAMS / "example72.clp"), "--domain", domain,
                "--witness", "--project"] + (["--json"] if as_json else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED, EXIT_INPUT_ERROR)
    if as_json:
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["file"] for r in reports] == argv[1:3]
        first = reports[0]
        assert (first["error"] is None) == (first["verdict"] is not None)
        assert reports[1]["verdict"] in ("alm-recurrent", "sound-yes")
    else:
        assert out.getvalue().startswith(f"{path} [{domain}]: ")
        assert f"example72.clp [{domain}]: " in out.getvalue()


def test_sampling_summary(capsys):
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"),
        "--sample", "30", "--seed", "7",
    )
    assert code == EXIT_CERTIFIED
    sampling = report["sampling"]
    assert sampling["samples"] == 30
    assert sampling["violations"] == 0
    assert "rewrite applications" in sampling["counting"]


def test_sampling_verifies_the_witness_once(capsys, monkeypatch):
    """``check --sample`` hands its passed verifier report to the sampler,
    which then does not verify the same witness again; with ``--no-verify``
    the sampler makes its own up-front check."""
    calls = []
    real = almterm.cli.verify

    def counted(program, lm, domain):
        calls.append(domain)
        return real(program, lm, domain)

    monkeypatch.setattr(almterm.cli, "verify", counted)
    monkeypatch.setattr(almterm.derivation, "verify", counted)
    path = str(PROGRAMS / "example72.clp")
    code, (report,) = run_json(capsys, "check", path, "--sample", "3")
    assert code == EXIT_CERTIFIED and report["sampling"]["samples"] == 3
    assert len(calls) == 1
    calls.clear()
    code, (report,) = run_json(capsys, "check", path, "--sample", "3", "--no-verify")
    assert code == EXIT_CERTIFIED and report["sampling"]["samples"] == 3
    assert len(calls) == 1


def test_sample_without_witness_is_input_error(capsys):
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "diverge.clp"), "--sample", "5"
    )
    assert code == EXIT_INPUT_ERROR
    assert "--sample" in report["error"]


def test_multiple_files_keep_order_and_worst_exit(capsys):
    code, reports = run_json(
        capsys,
        "check",
        str(PROGRAMS / "example72.clp"),
        str(PROGRAMS / "diverge.clp"),
        str(PROGRAMS / "example4.clp"),
    )
    assert code == EXIT_NOT_CERTIFIED
    assert [r["file"].rsplit("/", 1)[-1] for r in reports] == [
        "example72.clp",
        "diverge.clp",
        "example4.clp",
    ]


def test_human_readable_output(capsys):
    code, out = run(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--witness", "--project"
    )
    assert code == EXIT_CERTIFIED
    assert "alm-recurrent" in out
    assert "witness lm(p) = (73, -1)" in out
    assert "lm(p,0) + 73*lm(p,1) >= 0" in out
    code, out = run(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--sample", "30", "--seed", "7"
    )
    assert code == EXIT_CERTIFIED
    assert out.splitlines()[-2:] == [
        "  sampling: 30 runs, max 3 steps, 0 bound violations, 0 truncated",
        "  step counting: rewrite applications, including the final failing or fact step",
    ]


def test_config_file_defaults_are_overridable(capsys, tmp_path):
    config = tmp_path / "almterm.conf"
    config.write_text("domain = n\nwitness = true\n% comment\n")
    _, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--config", str(config)
    )
    assert report["domain"] == "n"
    assert report["witness"] is not None
    _, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"),
        "--config", str(config), "--domain", "q",
    )
    assert report["domain"] == "q"


def test_no_verify_skips_checks(capsys):
    _, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--no-verify"
    )
    assert all("checks" not in entry for entry in report["rules"])


def test_main_builds_its_parser_once(capsys):
    from almterm import cli

    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["check", str(PROGRAMS / "example72.clp")]) == EXIT_CERTIFIED
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()


def test_non_ascii_digit_is_not_a_number(capsys, tmp_path):
    program = tmp_path / "digit.clp"
    # ARABIC-INDIC DIGIT THREE, which `\d` matches and `int()` reads as 3
    program.write_text("p(x) :- x = \u0663.\n", encoding="utf-8")
    code, (report,) = run_json(capsys, "check", str(program))
    assert code == EXIT_INPUT_ERROR
    assert "unexpected character '\u0663'" in report["error"]


def test_config_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    config = tmp_path / "bom.conf"
    config.write_text("\ufeffdomain = q+\n", encoding="utf-8")
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--config", str(config)
    )
    assert code == EXIT_CERTIFIED
    assert report["domain"] == "q+"


def test_unknown_config_key_is_an_input_error(capsys, tmp_path):
    config = tmp_path / "almterm.conf"
    config.write_text("domain = q\nwitnes = true\n")
    code = main(["check", str(PROGRAMS / "example72.clp"), "--config", str(config)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert "unknown config key 'witnes'" in captured.err
    config.write_text("domain = q\nwitness\n")
    code = main(["check", str(PROGRAMS / "example72.clp"), "--config", str(config)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err == "almterm: bad config line (expected key = value): 'witness'\n"


def test_flags_win_over_config_values(capsys, tmp_path):
    """A config value under a flag is never read, so a bad one is no error."""
    config = tmp_path / "almterm.conf"
    config.write_text("seed = x\nverify = true\n")
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"),
        "--config", str(config), "--seed", "3", "--no-verify",
    )
    assert code == EXIT_CERTIFIED
    assert all("checks" not in entry for entry in report["rules"])


def test_options_resolve_in_table_order(capsys, tmp_path):
    config = tmp_path / "almterm.conf"
    config.write_text("sample = -1\ndomain = z\n")
    code = main(["check", str(PROGRAMS / "example72.clp"), "--config", str(config)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err == (
        "almterm: unknown domain 'z'; expected one of ('q', 'q+', 'r', 'r+', 'n')\n"
    )
    config.write_text("json = yes\nwitnes = true\n")
    code = main(["check", str(PROGRAMS / "example72.clp"), "--config", str(config)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err == (
        "almterm: unknown config key 'witnes' "
        "(known: domain, witness, project, verify, sample, seed, max-steps, json)\n"
    )


def test_config_value_that_is_not_a_value_is_an_input_error(capsys, tmp_path):
    """A boolean must be one of eight words and an int must read as one; the
    error names the config file and the key."""
    config = tmp_path / "almterm.conf"
    for text, why in (
        ("verify = ture\n", "'ture' is not a boolean (1, true, yes, on, 0, false, no, off)"),
        ("json =\n", "'' is not a boolean (1, true, yes, on, 0, false, no, off)"),
        ("seed = x\n", "'x' is not an integer"),
        ("sample = 1\nmax-steps = 2.5\n", "'2.5' is not an integer"),
    ):
        config.write_text(text)
        code = main(["check", str(PROGRAMS / "example72.clp"), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        key = text.splitlines()[-1].split("=")[0].strip()
        assert captured.err == f"almterm: {config}: {key} = {why}\n"
    config.write_text("witness = YES\nproject = Off\nverify = 0\n")
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--config", str(config)
    )
    assert code == EXIT_CERTIFIED
    assert report["witness"] and report["projection"] is None
    assert all("checks" not in entry for entry in report["rules"])


def test_negative_sample_or_step_cap_is_an_input_error(capsys, tmp_path):
    program = str(PROGRAMS / "example72.clp")
    for flags, key in (
        (["--sample", "-3"], "sample"),
        (["--sample", "3", "--max-steps", "-2"], "max-steps"),
    ):
        code = main(["check", program, "--json", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert f"{key} must be a nonnegative count, got -" in captured.err
    for text, key in (("sample = -1\n", "sample"), ("sample = 2\nmax-steps = -5\n", "max-steps")):
        config = tmp_path / "almterm.conf"
        config.write_text(text)
        code = main(["check", program, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert f"{key} must be a nonnegative count, got -" in captured.err


def test_zero_sample_and_step_cap_are_accepted(capsys):
    code, (report,) = run_json(
        capsys, "check", str(PROGRAMS / "example72.clp"), "--sample", "2", "--max-steps", "0"
    )
    assert code == EXIT_CERTIFIED
    assert report["sampling"]["samples"] == 2
    code, (report,) = run_json(capsys, "check", str(PROGRAMS / "example72.clp"), "--sample", "0")
    assert code == EXIT_CERTIFIED
    assert report["sampling"]["samples"] == 0


def test_failed_kernel_self_check_is_an_internal_error(capsys, monkeypatch):
    """A point the simplex extracts and then finds outside its system is
    reported as an ``internal:`` error with exit 2, not a traceback."""
    monkeypatch.setattr(LinearSystem, "satisfied_by", lambda self, point: False)
    code, (report,) = run_json(capsys, "check", str(PROGRAMS / "example72.clp"))
    assert code == EXIT_INPUT_ERROR
    assert report["error"].startswith("internal:")


def test_failed_kernel_self_check_survives_optimize_flag(tmp_path):
    """The self-check is no ``assert``: under ``python -O`` it still ends
    the report in an ``internal:`` error and exit 2."""
    script = (
        "import sys\n"
        "from almterm.cli import main\n"
        "from almterm.lp import LinearSystem\n"
        "LinearSystem.satisfied_by = lambda self, point: False\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(almterm.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-O", "-c", script, "check", str(PROGRAMS / "example72.clp"), "--json"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == EXIT_INPUT_ERROR, done.stderr
    assert json.loads(done.stdout)["error"].startswith("internal:")


def test_internal_error_while_sampling_ends_in_a_report(capsys, monkeypatch):
    """A failed self-check after the verdict (here in the sampler's LP)
    still ends in one report and exit 2."""

    def failing(sys):
        raise AlmtermError("internal: extracted point does not satisfy the system")

    monkeypatch.setattr(almterm.derivation, "feasible_point", failing)
    code, (report,) = run_json(capsys, "check", str(PROGRAMS / "example72.clp"), "--sample", "5")
    assert code == EXIT_INPUT_ERROR
    assert report["verdict"] == "alm-recurrent"
    assert report["error"].startswith("internal:")


def test_rejected_witness_ends_in_a_report(capsys, monkeypatch):
    """A witness the verifier rejects ends in one report and exit 2, with
    the verdict, witness and epsilon already filled and no rule table."""
    failed = VerifyReport(Fraction(1), (RuleCheck("r3", 0, FAIL, note="forced"),))
    monkeypatch.setattr(almterm.cli, "verify", lambda binary, witness, domain: failed)
    path = str(PROGRAMS / "example72.clp")
    code, (report,) = run_json(capsys, "check", path, "--witness")
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "internal: extracted mapping failed verification"
    assert report["verdict"] == "alm-recurrent"
    assert report["witness"] == {"p": ["73", "-1"]}
    assert report["epsilon"] == "1"
    assert report["rules"] is None and report["sampling"] is None
    code, out = run(capsys, "check", path, "--witness")
    assert code == EXIT_INPUT_ERROR
    assert out == (
        f"{path} [q]: alm-recurrent\n"
        "  error: internal: extracted mapping failed verification\n"
        "  witness lm(p) = (73, -1)\n"
        "  measure |p(a1)| = 73 - 1*a1\n"
    )


def test_sampled_run_over_its_bound_ends_in_a_report(capsys, monkeypatch):
    """A sampled derivation longer than its bound ends in one report and
    exit 2, with the rule table and the sampling summary filled."""
    over = BoundReport((BoundRun("p", (Fraction(3),), Fraction(3), 4, 5, SUCCESS),))
    monkeypatch.setattr(almterm.cli, "check_length_bound", lambda *args, **kwargs: over)
    path = str(PROGRAMS / "example72.clp")
    code, (report,) = run_json(capsys, "check", path, "--sample", "2")
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "internal: derivation exceeded its length bound"
    assert report["verdict"] == "alm-recurrent"
    assert [entry["status"] for entry in report["rules"]] == ["fact", "unsat", "analyzed"]
    assert report["sampling"] == {
        "samples": 1,
        "violations": 1,
        "truncated": 0,
        "max_steps_observed": 5,
        "counting": BoundReport.counting,
    }
    code, out = run(capsys, "check", path, "--sample", "2")
    assert code == EXIT_INPUT_ERROR
    assert out == (
        f"{path} [q]: alm-recurrent\n"
        "  error: internal: derivation exceeded its length bound\n"
        "  rules:\n"
        "    r1: fact, no condition\n"
        "    r2: constraint unsatisfiable, ignored\n"
        "    r3: pass (decrease min 1, body min 0)\n"
        "  sampling: 1 runs, max 5 steps, 1 bound violations, 0 truncated\n"
        f"  step counting: {BoundReport.counting}\n"
    )
