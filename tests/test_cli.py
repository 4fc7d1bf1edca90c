import json
from fractions import Fraction

from almterm.cli import (
    EXIT_CERTIFIED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_CERTIFIED,
    SCHEMA_VERSION,
    main,
)
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
