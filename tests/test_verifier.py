import random
from fractions import Fraction

import pytest

from almterm import (
    LevelMapping,
    LinearExpr,
    ModelError,
    Program,
    Q,
    decide,
    minimize,
    normalize,
    parse_program,
    verify,
)
from almterm.verifier import FAIL, PASS, VACUOUS_FACT, VACUOUS_UNSAT
from helpers import load, random_binary_program_text


def test_golden_witness_passes():
    program = parse_program(load("example72.clp"))
    report = verify(program, LevelMapping({"p": (73, -1)}), Q)
    assert report.passed
    assert report.epsilon == 1
    by_status = {c.rule_id: c.status for c in report.checks}
    assert by_status == {"r1": VACUOUS_FACT, "r2": VACUOUS_UNSAT, "r3": PASS}
    r3 = report.for_rule("r3")[0]
    assert r3.decrease.value == 1  # y = x + 1 forces the drop to exactly 1
    assert r3.body_floor.value == 0  # attained at y = 73


def test_identity_mapping_fails_golden_program():
    program = parse_program(load("example72.clp"))
    report = verify(program, LevelMapping({"p": (0, 1)}), Q)
    assert not report.passed
    failing = report.failures()
    assert [c.rule_id for c in failing] == ["r3"]
    check = failing[0]
    assert check.decrease.value == -1
    # the counterexample is a concrete falsifying ground instance
    point = check.counterexample
    assert point is not None
    x = program.rules[2].head.args[0]
    y = program.rules[2].body[0].args[0]
    assert point[y] == point[x] + 1 and point[x] <= 72


def test_decided_witness_passes_example4():
    program = parse_program(load("example4.clp"))
    verdict = decide(program, Q)
    report = verify(program, verdict.witness, Q)
    assert report.passed
    assert all(c.status == PASS for c in report.checks)


def test_missing_predicate_is_an_error():
    program = parse_program(load("example72.clp"))
    with pytest.raises(ModelError):
        verify(program, LevelMapping({"q": (1,)}), Q)


def test_unbounded_decrease_reports_ray_counterexample():
    # no upper guard: the head-to-body drop is -1 everywhere, and the body
    # level is unbounded below along the recursion
    program = parse_program("p(x) :- y = x + 1, p(y).")
    report = verify(program, LevelMapping({"p": (0, 1)}), Q)
    assert not report.passed
    check = report.failures()[0]
    assert check.status == FAIL
    assert check.counterexample is not None


def test_monotone_under_rule_removal():
    rng = random.Random(13)
    tried = 0
    while tried < 8:
        program = parse_program(random_binary_program_text(rng))
        verdict = decide(program, Q)
        if verdict.witness is None or len(program.rules) < 2:
            continue
        tried += 1
        assert verify(program, verdict.witness, Q).passed
        for drop in range(len(program.rules)):
            subset = Program(
                [r for i, r in enumerate(program.rules) if i != drop],
                program.pool,
                arities=program.arities,
            )
            assert verify(subset, verdict.witness, Q).passed


def test_ground_instances_respect_definition_exactly():
    """Random solutions of a certified rule satisfy |head| >= |body| + 1 and
    |body| >= 0 with exact arithmetic."""
    program = parse_program(load("example72.clp"))
    lm = LevelMapping({"p": (73, -1)})
    rule = program.rules[2]
    sys = normalize(rule.constraints)
    rng = random.Random(2024)
    x = rule.head.args[0]
    y = rule.body[0].args[0]
    for _ in range(25):
        objective = LinearExpr(
            {v: Fraction(rng.randint(-5, 5)) for v in sys.variables}
        )
        out = minimize(sys, objective)
        if out.status != "optimal":
            continue
        head_level = lm.level_of("p", [out.point[x]])
        body_level = lm.level_of("p", [out.point[y]])
        assert head_level >= body_level + 1
        assert body_level >= 0


def test_verify_runs_a_satisfiability_lp_only_for_facts(monkeypatch):
    """A rule with a body learns that its constraint is unsatisfiable from
    the status of its first minimisation; only facts take an LP of their
    own.  Reports are unchanged."""
    from almterm import lp

    program = parse_program(
        "p(x) :- x = 2.\n"
        "p(x) :- 0 = 1.\n"
        "p(x) :- x >= 1, 0 >= x, y = x, p(y).\n"
        "p(x) :- 72 >= x, y = x + 1, p(y).\n"
    )
    calls = []
    real = lp.feasible_point

    def counting(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(lp, "feasible_point", counting)
    report = verify(program, LevelMapping({"p": (73, -1)}), Q)
    assert len(calls) == 2
    assert [(c.rule_id, c.body_index, c.status) for c in report.checks] == [
        ("r1", None, VACUOUS_FACT),
        ("r2", None, VACUOUS_UNSAT),
        ("r3", None, VACUOUS_UNSAT),
        ("r4", 0, PASS),
    ]
    assert report.passed
