"""Command-line front end: parse, decide, verify, project, sample.

Exit codes: 0 when every input is certified (alm-recurrent / sound-yes),
1 when any input is not certified (not-alm-recurrent / unknown), 2 on input
errors (missing file, parse error, bad flag combination).  With ``--json``
one JSON object is printed per input file, each on its own line.

A file that cannot be read is reported as such; every other error of one
input (a parse error, an input the analysis rejects, a failed ``internal:``
self-check) is an ``AlmtermError`` that ends in one handler, which keeps the
report filled so far and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from . import __version__
from .decider import SKIP_FACT, SKIP_UNSAT, decide
from .derivation import check_length_bound
from .model import DOMAINS, GEQ, AlmtermError, Domain, LevelMapping, Program, render_row
from .parser import parse_program
from .verifier import VerifyReport, verify

SCHEMA_VERSION = 1

EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT_ERROR = 2


@contextmanager
def _exact_digits():
    """Let ints of any size convert to text, then restore the interpreter's
    digit limit (4300 by default): a witness, projection row or verifier note
    may need more digits than the literals of the program it came from."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without a limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _witness_json(lm: LevelMapping) -> dict:
    return {pred: [str(c) for c in vec] for pred, vec in lm.coeffs.items()}


def _projection_json(verdict) -> list[dict]:
    system = verdict.projection
    pool = verdict.alm.pool
    return [
        {
            "terms": {pool.name(v): str(coeffs[v]) for v in system.variables if v in coeffs},
            "rel": GEQ,
            "rhs": str(bound),
            "text": render_row(coeffs, bound, GEQ, pool),
        }
        for coeffs, bound in system.rows
    ]


def _rules_json(binary: Program, skipped: dict[str, str], report: VerifyReport | None) -> list[dict]:
    checks: dict[str, list] = {}
    if report is not None:
        for c in report.checks:
            checks.setdefault(c.rule_id, []).append(c)
    rows = []
    for rule in binary.rules:
        entry: dict = {
            "id": rule.rule_id,
            "origin": {"rule": rule.origin[0], "body_position": rule.origin[1]}
            if rule.origin
            else None,
        }
        if rule.rule_id in skipped:
            entry["status"] = skipped[rule.rule_id]
        else:
            entry["status"] = "analyzed"
        if report is not None:
            entry["checks"] = [
                {
                    "body_index": c.body_index,
                    "status": c.status,
                    "decrease_min": str(c.decrease.value)
                    if c.decrease and c.decrease.value is not None
                    else None,
                    "body_min": str(c.body_floor.value)
                    if c.body_floor and c.body_floor.value is not None
                    else None,
                    "note": c.note,
                }
                for c in checks.get(rule.rule_id, ())
            ]
        rows.append(entry)
    return rows


def analyze_file(path: str, opts: argparse.Namespace) -> tuple[dict, int]:
    """Produce the report dictionary and exit code for one input file.

    The program text is parsed under the interpreter's digit limit; every
    number computed from it is written out exactly, however long."""
    report: dict = {
        "version": SCHEMA_VERSION,
        "file": path,
        "domain": opts.domain.tag,
        "verdict": None,
        "witness": None,
        "projection": None,
        "rules": None,
        "sampling": None,
        "notes": [],
        "error": None,
    }
    try:
        # a leading byte-order mark is encoding, not program text
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        report["error"] = f"cannot read {path}: {exc}"
        return report, EXIT_INPUT_ERROR
    try:
        program = parse_program(text, file=path)
        with _exact_digits():
            return _analyze(program, opts, report)
    except AlmtermError as exc:
        # a parse error, a rejected input or a failed ``internal:`` self-check
        report["error"] = str(exc)
        return report, EXIT_INPUT_ERROR


def _analyze(program: Program, opts: argparse.Namespace, report: dict) -> tuple[dict, int]:
    """Fill in ``report`` for a parsed program: verdict, witness, projection,
    verifier checks and samples, as ``opts`` asks.  Raises ``AlmtermError``
    where the analysis stops, leaving ``report`` as filled so far."""
    verdict = decide(program, opts.domain)
    report["verdict"] = verdict.kind
    if opts.domain.integral:
        report["notes"].append(
            "over the naturals this analysis is sound but not complete: "
            "'sound-yes' proves termination, 'unknown' proves nothing"
        )
    elif opts.domain.tag in ("r", "r+"):
        report["notes"].append(
            "rational-coefficient systems are decided identically over the "
            "rationals and the reals; the rational pipeline is exact for both"
        )

    if opts.witness and verdict.witness is not None:
        report["witness"] = _witness_json(verdict.witness)
        report["witness_pretty"] = [
            verdict.witness.render(pred) for pred in sorted(verdict.witness.coeffs)
        ]
    if opts.project and verdict.projection is not None:
        report["projection"] = _projection_json(verdict)

    vreport: VerifyReport | None = None
    if opts.verify and verdict.witness is not None:
        vreport = verify(verdict.binary, verdict.witness, opts.domain)
        report["epsilon"] = str(vreport.epsilon)
        if not vreport.passed:
            # cannot happen unless the decider and verifier disagree
            raise AlmtermError("internal: extracted mapping failed verification")
    skipped = dict(verdict.alm.skipped)
    report["rules"] = _rules_json(verdict.binary, skipped, vreport)

    code = EXIT_CERTIFIED if verdict.affirmative else EXIT_NOT_CERTIFIED

    if opts.sample is not None:
        if verdict.witness is None:
            raise AlmtermError(
                f"--sample needs a certified witness, but the verdict is '{verdict.kind}'"
            )
        bound = check_length_bound(
            verdict.binary,
            verdict.witness,
            samples=opts.sample,
            seed=opts.seed,
            domain=opts.domain,
            step_cap=opts.max_steps,
            verified=vreport,
        )
        report["sampling"] = {
            "samples": len(bound.runs),
            "violations": len(bound.violations),
            "truncated": len(bound.truncated),
            "max_steps_observed": bound.max_steps_observed,
            "counting": bound.counting,
        }
        if not bound.passed:
            raise AlmtermError("internal: derivation exceeded its length bound")

    return report, code


def _render_text(report: dict) -> str:
    lines = [f"{report['file']} [{report['domain']}]: {report['verdict'] or 'error'}"]
    if report.get("error"):
        lines.append(f"  error: {report['error']}")
    if report.get("witness"):
        for pred, vec in report["witness"].items():
            lines.append(f"  witness lm({pred}) = ({', '.join(vec)})")
        for pretty in report.get("witness_pretty", ()):
            lines.append(f"  measure {pretty}")
    if report.get("projection"):
        lines.append("  certificate space (projected):")
        for row in report["projection"]:
            lines.append(f"    {row['text']}")
    if report.get("rules"):
        lines.append("  rules:")
        for entry in report["rules"]:
            origin = (
                f" (from {entry['origin']['rule']}, body atom "
                f"{entry['origin']['body_position']})"
                if entry.get("origin")
                else ""
            )
            status = entry["status"]
            if status == SKIP_FACT:
                detail = "fact, no condition"
            elif status == SKIP_UNSAT:
                detail = "constraint unsatisfiable, ignored"
            else:
                checks = entry.get("checks")
                if checks is None:
                    detail = "analyzed"
                else:
                    parts = []
                    for c in checks:
                        if c["status"] == "pass":
                            parts.append(
                                f"pass (decrease min {c['decrease_min']}, "
                                f"body min {c['body_min']})"
                            )
                        else:
                            parts.append(f"{c['status']}: {c['note']}")
                    detail = "; ".join(parts) or "analyzed"
            lines.append(f"    {entry['id']}{origin}: {detail}")
    if report.get("sampling"):
        s = report["sampling"]
        lines.append(
            f"  sampling: {s['samples']} runs, max {s['max_steps_observed']} steps, "
            f"{s['violations']} bound violations, {s['truncated']} truncated"
        )
        lines.append(f"  step counting: {s['counting']}")
    for note in report.get("notes", ()):
        lines.append(f"  note: {note}")
    return "\n".join(lines)


# the config words for a boolean, matched in any case
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _yes(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean ({', '.join(_BOOLEANS)})") from None


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError("not an integer") from None


# config key -> (argparse dest, default, reader of a config value), in the
# order options resolve: a flag wins, then the config file, then the default
_OPTIONS = {
    "domain": ("domain", "q", str),
    "witness": ("witness", False, _yes),
    "project": ("project", False, _yes),
    "verify": ("verify", True, _yes),
    "sample": ("sample", None, _int),
    "seed": ("seed", 0, _int),
    "max-steps": ("max_steps", None, _int),
    "json": ("as_json", False, _yes),
}


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        if "=" not in line:
            raise AlmtermError(f"bad config line (expected key = value): {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _OPTIONS:
            raise AlmtermError(f"unknown config key {key!r} (known: {', '.join(_OPTIONS)})")
        values[key] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almterm",
        description="Termination certificates for flat constraint logic programs.",
    )
    parser.add_argument("--version", action="version", version=f"almterm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="analyze one or more .clp files")
    check.add_argument("files", nargs="+", help="flat programs (.clp)")
    check.add_argument(
        "--domain",
        choices=[d.tag for d in DOMAINS],
        default=None,
        help="numeric domain (default q)",
    )
    check.add_argument("--witness", action="store_true", default=None,
                       help="include the extracted level mapping in the report")
    check.add_argument("--project", action="store_true", default=None,
                       help="include the projected coefficient constraints")
    check.add_argument("--verify", dest="verify", action="store_true", default=None,
                       help="re-check the witness on the primal side (default)")
    check.add_argument("--no-verify", dest="verify", action="store_false",
                       help="skip the independent verification pass")
    check.add_argument("--sample", type=int, default=None, metavar="N",
                       help="run N seeded ground derivations against the length bound")
    check.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    check.add_argument("--max-steps", type=int, default=None, metavar="M",
                       help="hard cap per sampled derivation (default: bound + 1)")
    check.add_argument("--json", dest="as_json", action="store_true", default=None,
                       help="machine-readable output, one JSON object per file")
    check.add_argument("--config", default=None,
                       help="key = value file with defaults for the flags above")
    return parser


# main's parser, built on its first call and kept: each parser is a
# reference cycle that the collector would have to free
_parser = cache(build_parser)


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill every option of ``args`` that no flag set, in table order."""
    config = _read_config(args.config) if args.config else {}
    for key, (dest, default, read) in _OPTIONS.items():
        value = getattr(args, dest)
        if value is None:
            value = default
            if key in config:
                try:
                    value = read(config[key])
                except ValueError as exc:
                    raise AlmtermError(f"{args.config}: {key} = {config[key]!r} is {exc}") from None
        if dest == "domain":
            value = Domain.parse(value)
        elif dest in ("sample", "max_steps") and value is not None and value < 0:
            raise AlmtermError(f"{key} must be a nonnegative count, got {value}")
        setattr(args, dest, value)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _resolve_options(args)
    except (AlmtermError, OSError, ValueError) as exc:
        print(f"almterm: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    worst = EXIT_CERTIFIED
    for path in args.files:
        report, code = analyze_file(path, args)
        if args.as_json:
            print(json.dumps(report))
        else:
            print(_render_text(report))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
