import random
from collections import Counter
from fractions import Fraction

import pytest

from almterm import (
    DOMAINS,
    QPLUS,
    LevelMapping,
    ModelError,
    N,
    Program,
    Q,
    assemble,
    binarize,
    decide,
    minimize,
    parse_program,
    verify,
)
from almterm.decider import SKIP_FACT, SKIP_UNSAT
from almterm.lp import UNBOUNDED, integer_system
from almterm.model import EQ
from almterm.verifier import EPSILON, FAIL, PASS, VACUOUS_FACT, VACUOUS_UNSAT
from helpers import (
    PROGRAMS,
    load,
    random_binary_program_text,
    random_flat_program_text,
    random_rational_program_text,
)
import verifier_oracle


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
            )
            assert verify(subset, verdict.witness, Q).passed


def test_ground_instances_respect_definition_exactly():
    """Random solutions of a certified rule satisfy |head| >= |body| + 1 and
    |body| >= 0 with exact arithmetic."""
    program = parse_program(load("example72.clp"))
    lm = LevelMapping({"p": (73, -1)})
    rule = program.rules[2]
    sys = integer_system(rule.rows)
    rng = random.Random(2024)
    x = rule.head.args[0]
    y = rule.body[0].args[0]
    for _ in range(25):
        objective = {v: Fraction(rng.randint(-5, 5)) for v in sys.variables}
        (out,) = minimize(sys, objective)
        if out.status != "optimal":
            continue
        head_level = lm.level_of("p", [out.point[x]])
        body_level = lm.level_of("p", [out.point[y]])
        assert head_level >= body_level + 1
        assert body_level >= 0


def test_verify_makes_one_minimisation_per_analysed_rule(monkeypatch):
    """Both minimisations of a (rule, body atom) pair share one system, so
    they share one ``minimize`` call; a fact takes one call with the zero
    objective."""
    from almterm import verifier

    program = parse_program(
        "p(x) :- x = 2.\n"
        "p(x) :- 72 >= x, y = x + 1, p(y).\n"
        "p(x) :- x >= 3, y = x - 1, p(y).\n"
        "p(x) :- x >= 1, 0 >= x, y = x, p(y).\n"
    )
    calls = []
    real = verifier.minimize

    def counting(sys, *objectives):
        calls.append(len(objectives))
        return real(sys, *objectives)

    monkeypatch.setattr(verifier, "minimize", counting)
    report = verify(program, LevelMapping({"p": (73, -1)}), Q)
    assert calls == [1, 2, 2, 2]
    assert [(c.rule_id, c.body_index, c.status) for c in report.checks] == [
        ("r1", None, VACUOUS_FACT),
        ("r2", 0, PASS),
        ("r3", 0, FAIL),
        ("r4", None, VACUOUS_UNSAT),
    ]


def test_verify_reads_each_level_vector_once(monkeypatch):
    """One ``verify`` call reads each predicate's vector from the
    certificate once, at its first atom, not once per pair; a predicate that
    only a fact uses is never read, and one the certificate lacks still
    raises at the first pair that needs it."""
    program = parse_program(
        "p(x) :- x >= 1, y = x - 1, p(y).\n"
        "p(x) :- x >= 2, y = x - 2, q(y).\n"
        "q(x) :- x >= 1, y = x - 1, z = x - 1, p(y), q(z).\n"
        "r(x) :- x = 1.\n"
    )
    reads = []
    real = LevelMapping.vector

    def counting(lm, pred, arity=None):
        reads.append(pred)
        return real(lm, pred, arity)

    monkeypatch.setattr(LevelMapping, "vector", counting)
    report = verify(program, LevelMapping({"p": (0, 1), "q": (0, 1)}), Q)
    assert [c.status for c in report.checks] == [PASS, PASS, PASS, PASS, VACUOUS_FACT]
    assert sorted(reads) == ["p", "q"]
    with pytest.raises(ModelError, match="does not cover predicate q"):
        verify(program, LevelMapping({"p": (0, 1)}), Q)


def test_box_rules_skip_the_simplex(monkeypatch):
    """A rule whose reduced rows each mention one variable has its minima
    read off the bounds, with no simplex pivot; a rule with a row over two
    variables runs one phase two per objective.  Either takes one
    ``minimize`` call, and both report what the pinned oracle reports."""
    from almterm import lp, verifier

    calls: Counter = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    counted(verifier, "minimize")
    counted(lp, "_box_minimize")
    counted(lp, "_phase_two")
    lm = LevelMapping({"p": (73, -1)})
    for text, want in (
        ("p(x) :- 72 >= x, y = x + 1, p(y).", {"minimize": 1, "_box_minimize": 1}),
        ("p(x) :- x >= y + 1, 72 >= x, y >= 0, p(y).", {"minimize": 1, "_phase_two": 2}),
    ):
        program = parse_program(text)
        calls.clear()
        report = verify(program, lm, Q)
        assert calls == want, text
        assert _outcomes(report) == _outcomes(verifier_oracle.verify(program, lm, Q))


def test_verify_runs_no_satisfiability_lp(monkeypatch):
    """A rule with a body learns that its constraint is unsatisfiable from
    the status of its first minimisation, and a fact from its presolved
    system; the multiplier-side satisfiability LP never runs.  Reports are
    unchanged."""
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
    assert calls == []
    assert [(c.rule_id, c.body_index, c.status) for c in report.checks] == [
        ("r1", None, VACUOUS_FACT),
        ("r2", None, VACUOUS_UNSAT),
        ("r3", None, VACUOUS_UNSAT),
        ("r4", 0, PASS),
    ]
    assert report.passed


def test_fact_statuses_match_the_deciders_skip_reasons():
    """The verifier decides a fact by its presolved system and the decider
    by the multiplier-side LP: on every fact of the bundled and of seeded
    random programs, over every domain, a satisfiable fact is ``fact`` to
    one and ``vacuous-fact`` to the other, an unsatisfiable one ``unsat``
    and ``vacuous-unsat``."""
    expected = {SKIP_FACT: VACUOUS_FACT, SKIP_UNSAT: VACUOUS_UNSAT}
    texts = [load(path.name) for path in sorted(PROGRAMS.glob("*.clp"))]
    rng = random.Random(59)
    texts += [random_flat_program_text(rng) for _ in range(150)]
    texts += [random_rational_program_text(rng) for _ in range(150)]
    seen = Counter()
    for text in texts:
        program = parse_program(text)
        facts = Program([r for r in program.rules if r.is_fact], program.pool)
        for domain in DOMAINS:
            skipped = assemble(facts, domain).skipped
            report = verify(facts, LevelMapping({}), domain)
            assert [(c.rule_id, c.status) for c in report.checks] == [
                (rule_id, expected[reason]) for rule_id, reason in skipped
            ], (text, domain)
            seen.update(c.status for c in report.checks)
    assert seen[VACUOUS_FACT] >= 50 and seen[VACUOUS_UNSAT] >= 50, seen


def test_verify_rejects_a_mapping_of_the_wrong_arity():
    """A certificate vector must hold a constant and one coefficient per
    argument, as ``LevelMapping.level_of`` demands."""
    program = parse_program("p(x) :- x >= 1, y = x - 1, p(y).")
    for vec in ((0, 1, 5), (1,)):
        with pytest.raises(ModelError, match="p expects"):
            verify(program, LevelMapping({"p": vec}))
        with pytest.raises(ModelError, match="p expects"):
            LevelMapping({"p": vec}).level_of("p", [0])


def _perturbed(rng: random.Random, program: Program, lm: LevelMapping | None) -> LevelMapping:
    """``lm`` with one coefficient moved, or a random mapping without it."""
    if lm is None:
        return LevelMapping(
            {
                p: tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a + 1))
                for p, a in program.arities.items()
            }
        )
    coeffs = {p: list(vec) for p, vec in lm.coeffs.items()}
    pred = rng.choice(sorted(coeffs))
    k = rng.randrange(len(coeffs[pred]))
    coeffs[pred][k] += Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.randint(1, 3))
    return LevelMapping(coeffs)


def _holds(row, point) -> bool:
    coeffs, bound, rel = row
    total = sum(c * point[v] for v, c in coeffs.items())
    return total == bound if rel == EQ else total >= bound


def _outcomes(report):
    return [
        (c.rule_id, c.body_index, c.status, c.note,
         c.decrease and (c.decrease.status, c.decrease.value),
         c.body_floor and (c.body_floor.status, c.body_floor.value))
        for c in report.checks
    ]


def _pinned_oracle_cases():
    """(n, program, domain, mapping): 40 seeded binary programs over q, q+
    and n, each checked against its decided witness, if any, and two
    perturbed or random mappings."""
    rng = random.Random(404)
    for n in range(40):
        program = parse_program(random_binary_program_text(rng))
        for domain in (Q, QPLUS, N):
            witness = decide(program, domain).witness
            mappings = [_perturbed(rng, program, witness) for _ in range(2)]
            for lm in ([witness] if witness else []) + mappings:
                yield n, program, domain, lm


def test_pinned_oracle_minimises_by_the_simplex_only(monkeypatch):
    """The pinned oracle stays independent of the verifier's box read-off:
    its ``0 >= 0`` row keeps every system it minimises from being a box, so
    each minimum comes from the simplex."""
    from almterm import lp

    cases = list(_pinned_oracle_cases())
    calls: Counter = Counter()
    real_box, real_minimize = lp._box_minimize, verifier_oracle.minimize

    def box(system, objectives):
        calls["box"] += 1
        return real_box(system, objectives)

    def minimize(system, *objectives):
        calls["minimize"] += 1
        return real_minimize(system, *objectives)

    monkeypatch.setattr(lp, "_box_minimize", box)
    monkeypatch.setattr(verifier_oracle, "minimize", minimize)
    for _, program, domain, lm in cases:
        verifier_oracle.verify(program, lm, domain)
    assert calls["minimize"] > 500 and calls["box"] == 0


def test_verify_agrees_with_one_pinned_oracle(monkeypatch):
    """Same checks, minima, statuses and notes as the LP over the whole rule
    constraint with a pinned ``one``; every counterexample is a ground
    instance of its rule that breaks the failed condition.  Both ways of
    minimising, the box read-off and the simplex, run and produce failing
    checks, unbounded ones included."""
    from almterm import lp, verifier

    ways: list[str] = []
    real_box, real_minimize, real_pair = lp._box_minimize, verifier.minimize, verifier._check_pair

    def box(system, objectives):
        ways.append("box")
        return real_box(system, objectives)

    def minimize(system, *objectives):
        ways.append("minimize")
        return real_minimize(system, *objectives)

    ran: Counter = Counter()
    failed: Counter = Counter()

    def pair(*args):
        ways.clear()
        check = real_pair(*args)
        # no call when the presolve finds the rule unsatisfiable
        assert ways in ([], ["minimize"], ["minimize", "box"])
        if ways:
            way = "box" if "box" in ways else "simplex"
            ran[way] += 1
            if check is not None and check.status == FAIL:
                unbounded = UNBOUNDED in (check.decrease.status, check.body_floor.status)
                failed[way, unbounded] += 1
        return check

    monkeypatch.setattr(lp, "_box_minimize", box)
    monkeypatch.setattr(verifier, "minimize", minimize)
    monkeypatch.setattr(verifier, "_check_pair", pair)
    failures = 0
    for n, program, domain, lm in _pinned_oracle_cases():
        got = verify(program, lm, domain)
        want = verifier_oracle.verify(program, lm, domain)
        assert _outcomes(got) == _outcomes(want), (n, domain, lm)
        for check in got.failures():
            failures += 1
            rule = next(r for r in program.rules if r.rule_id == check.rule_id)
            point = check.counterexample
            assert set(point) == set(rule.variables)
            assert all(_holds(row, point) for row in rule.rows)
            if domain.nonneg:
                assert all(value >= 0 for value in point.values())
            head = lm.level_of(rule.head.pred, [point[v] for v in rule.head.args])
            body_atom = rule.body[check.body_index]
            body = lm.level_of(body_atom.pred, [point[v] for v in body_atom.args])
            if check.note.startswith("head-to-body"):
                assert head - body < EPSILON
            else:
                assert body < 0
    assert failures > 50
    assert ran["box"] and ran["simplex"]
    assert all(failed[way, unbounded] for way in ("box", "simplex") for unbounded in (False, True))


def test_verifier_lps_hold_inequalities_of_their_rule_only(monkeypatch):
    """Every equality, the binarization links included, is substituted away
    before ``minimize`` reads the minima off a box or runs the simplex: no
    system holds a row and its negation, or a variable outside the rule it
    checks."""
    from almterm import verifier

    text = (
        "p(x) :- x >= 1, y = x - 3, p(y).\n"
        "p(x) :- 2*y = x, x >= y + 1, p(y).\n"
        "p(x) :- x = 0 + 0 * y, y = y, q(y, w).\n"
        "q(x, u) :- 9 >= x, y = x + 1, z = u + 2, v = u, q(y, v), p(z).\n"
        "q(x, u) :- x >= 0, 3*x = 2*u, u = 3*w, 1 = 1, p(w).\n"
    )
    program = binarize(parse_program(text))
    systems = []
    real = verifier.minimize

    def recording(sys, *objectives):
        systems.append(sys)
        return real(sys, *objectives)

    monkeypatch.setattr(verifier, "minimize", recording)
    lm = LevelMapping({"p": (1, 2), "q": (-1, Fraction(1, 2), -3)})
    for domain in (Q, QPLUS, N):
        for rule in program.rules:
            systems.clear()
            verify(Program([rule], program.pool), lm, domain)
            assert len(systems) == len(rule.body)
            for sys in systems:
                assert set(sys.variables) <= set(rule.variables)
                rows = {(frozenset(coeffs.items()), bound) for coeffs, bound in sys.rows}
                for coeffs, bound in sys.rows:
                    negation = (frozenset((v, -c) for v, c in coeffs.items()), -bound)
                    assert negation not in rows, (rule.rule_id, domain, sys.rows)
