import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import almterm.lp
import derivation_oracle as oracle

from almterm import (
    N,
    AlmtermError,
    LevelMapping,
    Q,
    QPLUS,
    SelectionRule,
    VariablePool,
    binarize,
    check_length_bound,
    decide,
    equivalent_systems,
    feasible,
    parse_program,
    run_ground,
    state_from_query,
    step,
)
from almterm.derivation import (
    FAILURE,
    LEFTMOST,
    MAX_STEPS,
    OBJECTIVES_PER_RULE,
    RANDOM,
    RIGHTMOST,
    compact_store,
    ground_start,
    sample_starts,
)
from almterm.model import EQ, GEQ
from almterm.parser import parse_query
from helpers import load, random_flat_program_text
from linear import equal, normalize, row_constraint, var


def store(state):
    """The state's store as constraints, equalities first."""
    eqs, ineqs = state.rows
    return tuple(row_constraint(c, b, EQ) for c, b in eqs) + tuple(
        row_constraint(c, b, GEQ) for c, b in ineqs
    )


def explore(program, pred, args, depth):
    """The oracle's exhaustive walk driven by the package's rewrites."""
    return oracle.explore(program, pred, args, depth, ground_start, step, lambda s, _d: s)


def choose_named(rule_id):
    def chooser(rules):
        for r in rules:
            if r.rule_id == rule_id:
                return r
        raise AssertionError(f"no rule {rule_id} among candidates")

    return chooser


def golden_start():
    program = parse_program(load("example72.clp"))
    pool = program.pool.clone()
    state = ground_start(program, "p", [72], pool)
    return program, pool, state


def test_step_with_recursive_rule():
    program, pool, state = golden_start()
    sel = SelectionRule(LEFTMOST)
    nxt = step(program, state, sel, choose_named("r3"), pool)
    assert not nxt.failed
    assert [a.pred for a in nxt.goal] == ["p"]
    # the store entails y' = 73 for the new goal variable
    y = nxt.goal[0].args[0]
    pinned = normalize(store(nxt) + (equal(var(y), 73),))
    assert feasible(pinned)
    off = normalize(store(nxt) + (equal(var(y), 74),))
    assert not feasible(off)
    # the store is projected onto the new goal: it mentions nothing else
    goal_vars = {v for a in nxt.goal for v in a.args}
    assert all(c.variables() <= goal_vars for c in store(nxt))


def test_random_selection_needs_an_rng():
    program, pool, state = golden_start()
    with pytest.raises(AlmtermError, match="needs an rng"):
        step(program, state, SelectionRule(RANDOM), choose_named("r3"), pool)


def test_step_with_unsatisfiable_rule_fails():
    program, pool, state = golden_start()
    sel = SelectionRule(LEFTMOST)
    nxt = step(program, state, sel, choose_named("r2"), pool)
    assert nxt.failed and nxt.goal == ()


def test_step_with_fact_rule_fails_when_inconsistent():
    program, pool, state = golden_start()
    sel = SelectionRule(LEFTMOST)
    nxt = step(program, state, sel, choose_named("r1"), pool)  # 72 = 2
    assert nxt.failed


def test_step_renames_rules_apart():
    program, pool, state = golden_start()
    sel = SelectionRule(LEFTMOST)
    state_vars = {v for c in store(state) for v in c.variables()}
    nxt = step(program, state, sel, choose_named("r3"), pool)
    new_vars = {v for c in store(nxt) for v in c.variables()} - state_vars
    rule_vars = set(program.rules[2].variables)
    assert new_vars and not (new_vars & rule_vars)


def test_compact_store_preserves_goal_solutions():
    program, pool, state = golden_start()
    sel = SelectionRule(LEFTMOST)
    nxt = step(program, state, sel, choose_named("r3"), pool)
    slim = compact_store(nxt, Q)
    y = slim.goal[0].args[0]
    assert all(c.variables() <= {y} for c in store(slim))
    assert feasible(normalize(store(slim) + (equal(var(y), 73),)))


def test_run_ground_examples():
    program = parse_program(load("example72.clp"))
    for seed in range(8):
        trace = run_ground(program, "p", [72], seed=seed)
        assert trace.terminated
        assert trace.steps <= 2
    trace = run_ground(program, "p", [100], seed=0)
    assert trace.steps == 1 and trace.outcome == FAILURE


def test_run_ground_nonterminating_prefix():
    program = parse_program(load("diverge.clp"))
    trace = run_ground(program, "p", [0], max_steps=50, seed=1)
    assert trace.outcome == MAX_STEPS
    assert trace.steps == 50
    assert not trace.terminated


def test_run_ground_flounders_without_rules():
    program = parse_program("p(x) :- x >= 0, q(y), y = x.")
    trace = run_ground(program, "q", [1], seed=0)
    assert trace.outcome == "floundered"


def test_store_stays_satisfiable_unless_failed():
    program = parse_program(load("example4.clp"))
    trace = run_ground(program, "q", [30], seed=4, max_steps=60)
    for state in trace.states:
        if not state.failed:
            assert feasible(normalize(store(state)))


def test_exhaustive_exploration_of_golden_program():
    program = parse_program(load("example72.clp"))
    longest, complete = explore(program, "p", [72], depth=10)
    assert complete
    assert longest <= 2


def test_query_seeds_a_state():
    constraints, atoms = parse_query("?- x = 72, p(x).", VariablePool())
    state = state_from_query(constraints, atoms)
    assert [a.pred for a in state.goal] == ["p"]
    assert not state.failed


def test_query_ids_do_not_collide_with_fresh_rewrite_ids():
    """A query parsed into the pool its derivation draws from keeps its ids
    apart from the renamed rule variables.  From a pool of its own, ``d``
    would share its id with the fresh ``x``, and the link row ``d - x = 0``
    would collapse to ``-d = 0``, against ``d = 4``."""
    program = parse_program("p(x) :- x >= 1, y = x - 1, p(y).\nq(x) :- x >= 0.")
    pool = program.pool.clone()
    rows, atoms = parse_query("?- a = 1, b = 2, c = 3, d = 4, q(a), q(b), q(c), p(d).", pool)
    state = step(program, state_from_query(rows, atoms), SelectionRule(RIGHTMOST), choose_named("r1"), pool)
    assert not state.failed
    assert [a.pred for a in state.goal] == ["q", "q", "q", "p"]
    (y,) = state.goal[-1].args
    assert ({y: 1}, 3) in state.rows[0]


def test_check_length_bound_golden():
    program = parse_program(load("example72.clp"))
    lm = LevelMapping({"p": (73, -1)})
    report = check_length_bound(program, lm, samples=60, seed=11)
    assert report.passed
    assert report.runs
    # bound examples: level 1 at p(72) gives budget 2; p(73) gives budget 1
    assert lm.bound_for("p", [72]) == 2
    assert lm.bound_for("p", [73]) == 1
    assert lm.bound_for("p", [-100]) == 174


def test_check_length_bound_specific_starts():
    program = parse_program(load("example72.clp"))
    lm = LevelMapping({"p": (73, -1)})
    for args, budget in (([73], 1), ([-100], 174)):
        for seed in range(5):
            trace = run_ground(
                program,
                "p",
                args,
                selection=SelectionRule(RANDOM),
                max_steps=budget + 1,
                seed=seed,
            )
            assert trace.steps <= budget
    # level 0 at p(73): nothing applies, exactly the one failing resolution
    trace = run_ground(program, "p", [73], seed=123)
    assert trace.steps == 1 and trace.outcome == FAILURE


def test_bare_fact_resolves_in_one_step():
    program = parse_program("p(x).")
    trace = run_ground(program, "p", [5], seed=0)
    assert trace.steps == 1 and trace.outcome == "success"


def test_check_length_bound_requires_certificate():
    program = parse_program(load("diverge.clp"))
    with pytest.raises(AlmtermError):
        check_length_bound(program, LevelMapping({"p": (0, 1)}), samples=5)


def test_check_length_bound_respects_step_cap():
    program = parse_program(load("example72.clp"))
    lm = LevelMapping({"p": (73, -1)})
    report = check_length_bound(program, lm, samples=40, seed=3, step_cap=1)
    assert report.passed  # truncated runs are not violations
    assert all(r.steps <= 1 for r in report.runs)


def test_domain_carrier_enforced_on_ground_starts():
    program = parse_program("p(x) :- x >= -5, y = x - 1, p(y).")
    with pytest.raises(AlmtermError):
        run_ground(program, "p", [-1], seed=0, domain=QPLUS)
    from almterm import N

    with pytest.raises(AlmtermError):
        run_ground(program, "p", [Fraction(1, 2)], seed=0, domain=N)


def test_nonneg_domain_restricts_stores():
    # over q+ the rule body y = x - 1 dies at x = 0 (y would go negative)
    program = parse_program("p(x) :- x >= -5, y = x - 1, p(y).")
    trace_q = run_ground(program, "p", [0], seed=0, max_steps=10, domain=Q)
    trace_qp = run_ground(program, "p", [0], seed=0, max_steps=10, domain=QPLUS)
    assert trace_qp.outcome == FAILURE and trace_qp.steps == 1
    assert trace_q.steps > trace_qp.steps


def test_multibody_bound_on_binarized_program():
    program = parse_program(load("multibody.clp"))
    verdict = decide(program, Q)
    report = check_length_bound(binarize(program), verdict.witness, samples=50, seed=9)
    assert report.passed


def agree_with_oracle(program, pred, args, selection, max_steps, seed, domain):
    """Run ``run_ground`` and the LP-per-rewrite oracle on the same start and
    check that they agree state by state; returns the trace."""
    trace = run_ground(program, pred, args, selection, max_steps, seed, domain)
    states, steps, outcome = oracle.run_ground(
        program, pred, args, selection, max_steps, seed, domain
    )
    assert (trace.steps, trace.outcome) == (steps, outcome)
    assert [s.failed for s in trace.states] == [s.failed for s in states]
    for ours, theirs in zip(trace.states, states):
        assert ours.goal == theirs.goal
        if not ours.failed and store(ours) != theirs.store:
            assert equivalent_systems(normalize(store(ours)), normalize(theirs.store))
    return trace


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sampled_from([Q, QPLUS, N]),
    st.sampled_from(["leftmost", "rightmost", "random"]),
)
def test_run_ground_agrees_with_lp_oracle(seed, domain, strategy):
    rng = random.Random(seed)
    program = parse_program(random_flat_program_text(rng))
    pred = rng.choice(sorted(program.arities))
    args = [rng.randint(0, 9) for _ in range(program.arities[pred])]
    selection = SelectionRule(strategy)
    # six rewrites: with several coupled body atoms, the projected stores of
    # both versions can grow doubly exponentially with derivation length
    # (thousands of rows after six rewrites), and the oracle pays an LP each
    agree_with_oracle(program, pred, args, selection, 6, seed, domain)


def test_wide_goals_agree_with_lp_oracle():
    program = parse_program(load("multibody.clp"))
    for x in (3, 6):
        assert explore(program, "f", [x], depth=12) == oracle.explore(program, "f", [x], 12)
    # with rightmost selection every q atom stays live, each tied to the one
    # before it, so the store grows by two rows per rewrite until p runs out
    chain = parse_program(
        "p(x, u) :- x >= 1, y = x - 1, w = u, v >= w + 1, w + 2 >= v, q(w), p(y, v).\n"
        "q(x) :- x >= 0.\n"
    )
    trace = agree_with_oracle(chain, "p", [25, 0], SelectionRule(RIGHTMOST), 40, 0, Q)
    assert trace.outcome == FAILURE and trace.steps == 26
    widest = trace.states[-2]
    assert len(widest.goal) == 26 and len(store(widest)) >= 50


def test_run_ground_runs_no_lp(monkeypatch):
    calls = []

    def counted(sys):
        calls.append(sys)
        return feasible_point(sys)

    feasible_point = almterm.lp.feasible_point
    monkeypatch.setattr(almterm.lp, "feasible_point", counted)
    monkeypatch.setattr(almterm.derivation, "feasible_point", counted)
    program = parse_program(load("example4.clp"))
    steps = [
        run_ground(program, "q", [20], seed=seed, domain=domain).steps
        for seed in range(3)
        for domain in (Q, QPLUS, N)
    ]
    assert max(steps) > 3 and calls == []


def test_sample_starts_makes_one_minimize_call_per_rule(monkeypatch):
    """The sampler draws a rule's objectives first and minimises them over
    the rule's projected system together."""
    calls = []
    minimize = almterm.derivation.minimize

    def counted(sys, *objectives):
        calls.append(len(objectives))
        return minimize(sys, *objectives)

    monkeypatch.setattr(almterm.derivation, "minimize", counted)
    program = parse_program(load("example72.clp"))
    starts = sample_starts(program, Q, random.Random(3))
    # r2 (0 = 1) is unsatisfiable, the fact r1 and the rule r3 are sampled
    assert calls == [OBJECTIVES_PER_RULE, OBJECTIVES_PER_RULE]
    assert {pred for pred, _ in starts} == {"p"}


def test_sample_starts_decides_each_rule_with_one_feasibility_lp(monkeypatch):
    """Every rule, an arity-0 head's included, is projected onto its head's
    arguments once and decided by the point of that projection alone; the
    starts stay what a feasibility test before the projection gave."""
    calls = []
    projections = []
    feasible_point = almterm.lp.feasible_point
    fm_project = almterm.derivation.fm_project

    def counted(sys):
        calls.append(sys)
        return feasible_point(sys)

    def counted_projection(sys, keep):
        projections.append(keep)
        return fm_project(sys, keep)

    monkeypatch.setattr(almterm.lp, "feasible_point", counted)
    monkeypatch.setattr(almterm.derivation, "feasible_point", counted)
    monkeypatch.setattr(almterm.derivation, "fm_project", counted_projection)
    program = parse_program(
        load("example72.clp")
        + "q :- x >= 1, 2 >= x, p(x).\n"
        + "q :- 1 >= x, x >= 2, p(x).\n"
    )
    starts = sample_starts(program, Q, random.Random(3))
    assert len(calls) == len(program.rules) == 5
    assert projections == [rule.head.args for rule in program.rules]
    F = Fraction
    p_args = [2, 3, F(13, 3), 0, -2, -1, F(5, 2), 72, 68, F(212, 3), F(220, 3)]
    assert starts == [("p", (F(a),)) for a in p_args] + [("q", ())]
