import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import almterm.lp
import derivation_oracle as oracle

from almterm import (
    N,
    AlmtermError,
    Domain,
    LevelMapping,
    Q,
    QPLUS,
    assemble,
    binarize,
    check_length_bound,
    decide,
    equivalent_systems,
    parse_program,
    run_ground,
    step,
)
from almterm.derivation import (
    FAILURE,
    MAX_STEPS,
    OBJECTIVES_PER_RULE,
    compact_store,
    ground_start,
    sample_starts,
    store_satisfiable,
)
from almterm.lp import integer_system
from almterm.model import EQ, GEQ
from helpers import (
    SAMPLED_RUN_PROGRAMS,
    feasible,
    load,
    random_binary_program_text,
    random_flat_program_text,
)
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
    nxt = step(program, state, choose_named("r3"), pool)
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


def test_step_with_unsatisfiable_rule_fails():
    program, pool, state = golden_start()
    nxt = step(program, state, choose_named("r2"), pool)
    assert nxt.failed and nxt.goal == ()


def test_step_with_fact_rule_fails_when_inconsistent():
    program, pool, state = golden_start()
    nxt = step(program, state, choose_named("r1"), pool)  # 72 = 2
    assert nxt.failed


def test_step_renames_rules_apart():
    """A rewrite draws one fresh id per rule variable, consecutive ids in
    ``rule.variables`` order, named with the rule's names primed; the body
    atom takes the ids of its variables."""
    program, pool, state = golden_start()
    state_vars = {v for c in store(state) for v in c.variables()}
    first = len(pool)
    nxt = step(program, state, choose_named("r3"), pool)
    new_vars = {v for c in store(nxt) for v in c.variables()} - state_vars
    rule = program.rules[2]
    assert new_vars and not (new_vars & set(rule.variables))
    assert len(rule.variables) > len(rule.head.args)
    assert len(pool) == first + len(rule.variables)
    fresh = dict(zip(rule.variables, range(first, len(pool))))
    assert [pool.name(fresh[v]) for v in rule.variables] == [pool.name(v) + "'" for v in rule.variables]
    assert nxt.goal[0].args == tuple(fresh[v] for v in rule.body[0].args)


def test_compact_store_preserves_goal_solutions():
    program, pool, state = golden_start()
    nxt = step(program, state, choose_named("r3"), pool)
    slim = compact_store(nxt.goal, nxt.rows)
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
            trace = run_ground(program, "p", args, max_steps=budget + 1, seed=seed)
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
    pool = program.pool.clone()
    with pytest.raises(AlmtermError, match="unknown predicate"):
        ground_start(program, "q", [1], pool)
    with pytest.raises(AlmtermError, match="expects 1 arguments"):
        ground_start(program, "p", [1, 2], pool)
    failed = run_ground(program, "p", [0], seed=0, domain=QPLUS).states[-1]
    with pytest.raises(AlmtermError, match="finished"):
        step(program, failed, lambda rs: rs[0], pool)


def test_nonneg_domain_restricts_stores():
    # over q+ the rule body y = x - 1 dies at x = 0 (y would go negative)
    program = parse_program("p(x) :- x >= -5, y = x - 1, p(y).")
    trace_q = run_ground(program, "p", [0], seed=0, max_steps=10, domain=Q)
    trace_qp = run_ground(program, "p", [0], seed=0, max_steps=10, domain=QPLUS)
    assert trace_qp.outcome == FAILURE and trace_qp.steps == 1
    assert trace_q.steps > trace_qp.steps


def test_nonneg_stores_restrict_free_goal_variables():
    """A rewrite conjoins the rule's rows over the domain, so on ``q+`` a body
    argument that the rule leaves free keeps its ``y' >= 0`` row in every
    store; over ``q`` those stores are empty."""
    program = parse_program("p(x) :- x >= 1, p(y).")
    trace = run_ground(program, "p", [5], max_steps=4, domain=QPLUS)
    assert trace.outcome == MAX_STEPS and len(trace.states) == 5
    for state in trace.states[1:]:
        (y,) = state.goal[0].args
        assert state.rows == ([], [({y: 1}, 0)])
    assert all(s.rows == ([], []) for s in run_ground(program, "p", [5], max_steps=4).states[1:])


def test_multibody_bound_on_binarized_program():
    program = parse_program(load("multibody.clp"))
    verdict = decide(program, Q)
    report = check_length_bound(binarize(program), verdict.witness, samples=50, seed=9)
    assert report.passed


def test_derivations_require_a_binary_program():
    """``run_ground`` rejects a non-binary program up front, and ``step``
    rejects a rule with two body atoms, so no state has a goal of two atoms."""
    program = parse_program(load("multibody.clp"))
    with pytest.raises(AlmtermError, match="binary"):
        run_ground(program, "f", [3])
    pool = program.pool.clone()
    state = ground_start(program, "f", [3], pool)
    with pytest.raises(AlmtermError, match="binary"):
        step(program, state, choose_named("r1"), pool)
    with pytest.raises(AlmtermError, match="binary"):
        check_length_bound(program, LevelMapping({"f": (0, 1)}))
    with pytest.raises(AlmtermError, match="binary"):
        assemble(program, Q)
    assert run_ground(binarize(program), "f", [3]).terminated


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([Q, QPLUS, N]))
def test_run_ground_agrees_with_lp_oracle(seed, domain):
    """``run_ground`` and the LP-per-rewrite oracle agree state by state on
    the same start, on binarized random programs."""
    rng = random.Random(seed)
    program = binarize(parse_program(random_flat_program_text(rng)))
    pred = rng.choice(sorted(program.arities))
    args = [rng.randint(0, 9) for _ in range(program.arities[pred])]
    # six rewrites, since the oracle pays an LP for each
    trace = run_ground(program, pred, args, 6, seed, domain)
    states, steps, outcome = oracle.run_ground(program, pred, args, 6, seed, domain)
    assert (trace.steps, trace.outcome) == (steps, outcome)
    assert [s.failed for s in trace.states] == [s.failed for s in states]
    for ours, theirs in zip(trace.states, states):
        assert ours.goal == theirs.goal
        if not ours.failed and store(ours) != theirs.store:
            assert equivalent_systems(normalize(store(ours)), normalize(theirs.store))


def test_wide_goals_agree_with_lp_oracle():
    """The two-atom body of ``multibody.clp``, split by ``binarize``: the
    exhaustive walk driven by the package's rewrites finds what the
    oracle's finds."""
    program = binarize(parse_program(load("multibody.clp")))
    for x in (3, 6):
        assert explore(program, "f", [x], depth=12) == oracle.explore(program, "f", [x], 12)


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


def test_each_rewrite_from_a_ground_atom_projects_then_eliminates_once(monkeypatch):
    """The head is bound to the selected atom, so no link row is substituted
    away: each rewrite makes one projection, onto its goal's variables, and
    a satisfiable projection is decided by one elimination of every variable
    (``keep`` empty), the ``x >= 0`` rows of a nonnegative domain included;
    the final failing rewrite's projection finds the contradiction itself,
    so no elimination follows it."""
    calls = []
    project_constraints = almterm.derivation.project_constraints

    def counted(eqs, ineqs, keep):
        out = project_constraints(eqs, ineqs, keep)
        calls.append((set(keep), (eqs, ineqs), out))
        return out

    monkeypatch.setattr(almterm.derivation, "project_constraints", counted)
    for domain, (text, args) in itertools.product(
        (Q, QPLUS, N),
        (
            ("p(x) :- x >= 1, y = x - 1, p(y).", [7]),
            ("p(x, u) :- x >= 1, y = x - 1, v = u + x, p(y, v).", [7, 2]),
        ),
    ):
        calls.clear()
        trace = run_ground(parse_program(text), "p", args, seed=0, domain=domain)
        assert (trace.steps, trace.outcome) == (8, FAILURE)
        made = iter(calls)
        for state in trace.states[1:]:
            keep, _, projected = next(made)
            assert len(keep) == len(args)
            if state.failed:
                assert projected is None
                continue
            assert keep == set(state.goal[0].args) and projected == state.rows
            keep, rows, decided = next(made)
            assert keep == set() and rows == projected and decided is not None
        assert next(made, None) is None
        # the last store before the failing rewrite pins every argument,
        # beside its x >= 0 row over q+ and n
        eqs, ineqs = trace.states[-2].rows
        live = trace.states[-2].goal[0].args
        assert len(eqs) == len(args) and all(len(coeffs) == 1 for coeffs, _ in eqs)
        assert sorted(v for coeffs, _ in eqs for v in coeffs) == sorted(live)
        nonneg = [({v: 1}, 0) for v in live] if domain.nonneg else []
        assert sorted(ineqs, key=repr) == sorted(nonneg, key=repr)


def sampled_programs():
    """(program, domain, seed) for the sampled-run comparisons: seeded
    binary programs and binarized seeded flat programs over q, q+ and n,
    then the hand-written ones."""
    for domain in (Q, QPLUS, N):
        for seed in range(60):
            for generate in (random_binary_program_text, random_flat_program_text):
                yield binarize(parse_program(generate(random.Random(seed)))), domain, seed
    for text, tags in SAMPLED_RUN_PROGRAMS:
        for tag in tags:
            for seed in range(4):
                yield parse_program(text), Domain(tag), seed


def test_sampled_runs_match_run_ground(monkeypatch):
    """Each sampled run of ``check_length_bound`` takes the steps and ends
    in the outcome of ``run_ground`` from its start with its seed and cap,
    with and without a step cap.  Some runs evaluate every rewrite, and some
    hand over to the store path (``step``) after evaluating one or more."""
    step_calls = []
    run_step_calls = []
    step = almterm.derivation.step
    evaluated_run = almterm.derivation._evaluated_run

    def counted_step(*args, **kwargs):
        step_calls.append(1)
        return step(*args, **kwargs)

    def counted_run(*args, **kwargs):
        before = len(step_calls)
        out = evaluated_run(*args, **kwargs)
        run_step_calls.append(len(step_calls) - before)
        return out

    monkeypatch.setattr(almterm.derivation, "step", counted_step)
    monkeypatch.setattr(almterm.derivation, "_evaluated_run", counted_run)
    outcomes = set()
    evaluated = switched = 0
    for program, domain, seed in sampled_programs():
        verdict = decide(program, domain)
        if verdict.witness is None:
            continue
        lm = verdict.witness
        starts = sample_starts(program, domain, random.Random(seed))
        for step_cap in (None, 2):
            run_step_calls.clear()
            report = check_length_bound(program, lm, samples=8, seed=seed, domain=domain, step_cap=step_cap)
            assert len(run_step_calls) == len(report.runs)
            for k, (run, calls) in enumerate(zip(report.runs, run_step_calls)):
                assert (run.pred, run.args) == starts[k % len(starts)]
                limit = lm.bound_for(run.pred, run.args) + 1
                if step_cap is not None:
                    limit = min(limit, step_cap)
                trace = run_ground(program, run.pred, run.args, limit, seed * 7919 + k, domain)
                assert (run.steps, run.outcome) == (trace.steps, trace.outcome)
                outcomes.add(run.outcome)
                evaluated += calls == 0 and run.steps > 1
                # every rewrite after the handover is a ``step``
                switched += 0 < calls < run.steps
    assert outcomes == {"success", FAILURE, "floundered", MAX_STEPS}
    assert evaluated and switched


def test_sampled_runs_evaluate_countdowns(monkeypatch):
    """On a countdown whose every rule pins its body argument, a sampled run
    evaluates each rewrite: ``check_length_bound`` calls ``step`` never and
    projects each rule at most twice, once for its starts and once to
    compile it."""
    text = "".join(f"e{j} :- y = 30, p(y).\n" for j in range(1, 5)) + (
        "p(x) :- 2 <= x, x <= 30, y = x - 1, q(y).\n"
        "q(x) :- 2 <= x, x <= 30, y = x - 1, p(y).\n"
    )
    program = parse_program(text)
    lm = decide(program, Q).witness
    steps = []
    projections = []
    project_constraints = almterm.lp.project_constraints

    def counted_projection(eqs, ineqs, keep):
        projections.append(keep)
        return project_constraints(eqs, ineqs, keep)

    monkeypatch.setattr(almterm.derivation, "step", lambda *args: steps.append(args))
    monkeypatch.setattr(almterm.derivation, "project_constraints", counted_projection)
    monkeypatch.setattr(almterm.lp, "project_constraints", counted_projection)
    report = check_length_bound(program, lm, samples=4, seed=1)
    assert [run.steps for run in report.runs] == [31] * 4 and report.passed
    assert steps == [] and len(projections) <= 2 * len(program.rules)


def test_unsatisfiable_rules_compile_to_no_plan():
    """A rule whose projection finds its constraint unsatisfiable gets no
    plan, like a rule whose body arguments no equality solves: a sampled run
    that draws it takes the store path, where ``step`` fails it at that
    rewrite.  One whose projection keeps contradicting guards over the head
    keeps its plan, and the guards fail it."""
    from almterm.derivation import _compile

    (never,) = parse_program("p(x) :- 0 = 1, y = x, p(y).").rules
    (guarded,) = parse_program("p(x) :- x >= 1, x <= 0, y = x, p(y).").rules
    for tag in ("q", "q+", "n"):
        assert _compile(never, Domain(tag)) is None
        assert _compile(guarded, Domain(tag)) is not None


small_rows = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool), max_size=3),
        st.integers(-4, 4),
        st.sampled_from([EQ, GEQ]),
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_rows)
def test_store_satisfiable_agrees_with_lp(rows):
    """Deciding a store by eliminating every variable agrees with one exact
    LP on every system: the guard that the store path's one decision is
    exact over the rationals."""
    eqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel == EQ]
    ineqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel != EQ]
    assert store_satisfiable((eqs, ineqs)) == feasible(integer_system(rows))


pins = st.dictionaries(st.integers(0, 3), st.tuples(st.integers(-3, 3).filter(bool), st.integers(-4, 4)), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pins, small_rows)
# rows left over unpinned variables that contradict each other, with and
# without a pin feeding them, and one pin that rows cannot meet
@example({0: (1, 2)}, [({1: 1}, 1, GEQ), ({1: -1}, 0, GEQ)])
@example({0: (2, 3)}, [({0: 2, 1: 1}, 4, GEQ), ({1: -1}, 0, GEQ)])
@example({0: (-1, 2), 1: (1, 1)}, [({0: 1, 1: 1}, 0, GEQ), ({2: 1, 3: 1}, 1, GEQ), ({2: -1, 3: -1}, 0, GEQ)])
@example({0: (3, 1)}, [({0: 3}, 2, GEQ)])
def test_pinned_store_satisfiable_agrees_with_lp(pinned, rows):
    """A store whose equalities each pin a variable of their own, the shape
    of a store from a ground atom, is decided by the same elimination; that
    agrees with one exact LP, with and without further equalities."""
    eqs = [({v: a}, b) for v, (a, b) in pinned.items()]
    ineqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel != EQ]
    every = [(coeffs, bound, EQ) for coeffs, bound in eqs] + [(c, b, GEQ) for c, b in ineqs]
    assert store_satisfiable((eqs, ineqs)) == feasible(integer_system(every))
    more = eqs + [(coeffs, bound) for coeffs, bound, rel in rows if rel == EQ]
    every += [row for row in rows if row[2] == EQ]
    assert store_satisfiable((more, ineqs)) == feasible(integer_system(every))


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


def test_sample_starts_reads_box_minima_without_the_simplex(monkeypatch):
    """A countdown chain projects each rule onto a box over its head's
    arguments (an entry's head has none), so ``minimize`` reads every
    sampled objective's minimum off the bounds and no phase two runs."""
    calls = []
    phase_two = almterm.lp._phase_two

    def counted(*args):
        calls.append(args)
        return phase_two(*args)

    monkeypatch.setattr(almterm.lp, "_phase_two", counted)
    program = parse_program(
        "e1 :- y = 21, p(y).\n"
        "p(x) :- 2 <= x, x <= 21, y = x - 1, q(y).\n"
        "q(x) :- 2 <= x, x <= 21, y = x - 1, p(y).\n"
    )
    starts = sample_starts(program, Q, random.Random(5))
    assert calls == []
    assert {("p", (Fraction(2),)), ("p", (Fraction(21),)), ("e1", ())} <= set(starts)


def test_sample_starts_decides_each_rule_with_one_feasibility_lp(monkeypatch):
    """Every rule, an arity-0 head's included, is projected onto its head's
    arguments once and decided by the point of that projection alone; the
    starts stay what a feasibility test before the projection gave."""
    calls = []
    projections = []
    feasible_point = almterm.derivation.feasible_point
    fm_project = almterm.derivation.fm_project

    def counted(sys):
        calls.append(sys)
        return feasible_point(sys)

    def counted_projection(sys, keep):
        projections.append(keep)
        return fm_project(sys, keep)

    # the sampler's own calls: ``minimize`` calls ``lp.feasible_point`` too
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
