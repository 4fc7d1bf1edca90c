"""The integer projection routine against the Fraction oracle, and the
shared dual cone of each rule against its two explicit multiplier systems."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_fm
from almterm import (
    DOMAINS,
    EQ,
    GEQ,
    N,
    Q,
    QPLUS,
    assemble,
    binarize,
    decide,
    equivalent_systems,
    parse_program,
    project_constraints,
)
from almterm import decider
from almterm.decider import coeff_table, rule_cone
from almterm.lp import LinearSystem, integer_system
from helpers import PROGRAMS, feasible, load, random_binary_program_text, random_flat_program_text
from linear import LinearConstraint, LinearExpr, constraint_row, geq, normalize
from multiplier_systems import build_rule_systems, systems

VARS = (0, 1, 2, 3)
small = st.integers(min_value=-4, max_value=4)
halves = st.fractions(min_value=-4, max_value=4, max_denominator=2)

constraint = st.builds(
    lambda coeffs, const, rel: LinearConstraint(
        LinearExpr(dict(zip(VARS, coeffs))), rel, LinearExpr.of_const(const)
    ),
    st.tuples(halves, small, small, halves),
    halves,
    st.sampled_from((EQ, GEQ, GEQ)),
)


def primitive(coeffs, bound):
    """Exact primitive form of a row with rational entries."""
    c = fraction_fm._canon({v: Fraction(k) for v, k in coeffs.items()}, Fraction(bound))
    return c[0], c[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(constraint, max_size=6), st.sets(st.sampled_from(VARS)))
def test_projection_matches_fraction_oracle(constraints, keep):
    rows = [constraint_row(c) for c in constraints]
    eqs = [(c, b) for c, b, rel in rows if rel == EQ]
    mine = project_constraints(eqs, [(c, b) for c, b, rel in rows if rel == GEQ], keep)
    oracle = fraction_fm.project_constraints(constraints, keep)
    assert (mine is None) == (oracle is None)
    if mine is None:
        return
    eqs, ineqs = mine
    assert all(set(c) <= keep for c, _ in eqs + ineqs)
    # same substitutions, eliminations and pruning: the inequalities agree
    # row for row, the equalities up to a positive factor
    their_eqs = [(c.lhs.coeffs, c.rhs.const) for c in oracle if c.rel == EQ]
    their_ineqs = [(c.lhs.coeffs, c.rhs.const) for c in oracle if c.rel == GEQ]
    assert [primitive(*r) for r in ineqs] == [primitive(*r) for r in their_ineqs]
    assert [primitive(*r) for r in eqs] == [primitive(*r) for r in their_eqs]
    order = sorted(keep)
    assert equivalent_systems(
        integer_system([(c, b, EQ) for c, b in eqs] + [(c, b, GEQ) for c, b in ineqs], order),
        normalize(oracle, order_hint=order),
    )


def explicit_projection(system, keep):
    """One explicit multiplier system projected by the Fraction oracle, as an
    ``A x >= b`` system over ``keep``."""
    projected = fraction_fm.project_constraints(system.all_constraints(), keep)
    if projected is None:
        projected = [geq(0, 1)]
    return normalize(projected, order_hint=keep)


def test_instantiated_cones_match_explicit_systems():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        program = binarize(parse_program(random_binary_program_text(rng)))
        for domain in (Q, QPLUS, N):
            alm = assemble(program, domain)
            keep = alm.coeff_variables()
            pool = alm.pool.clone()
            for cone in alm.cones:
                decrease, nonneg = build_rule_systems(cone.rule, domain, pool, alm.coeff_ids)
                for system, layout, s in (
                    (decrease, cone.decrease, 1),
                    (nonneg, cone.nonneg, 0),
                ):
                    mine = LinearSystem(keep, tuple(cone.instantiate(layout, s)))
                    assert equivalent_systems(mine, explicit_projection(system, keep))
                    checked += 1
    assert checked >= 100


def test_cone_satisfiability_agrees_with_lp():
    """Farkas: (0, 1) lies in a rule's dual cone iff its constraint is
    unsatisfiable, for facts too."""
    rng = random.Random(23)
    seen = set()
    for _ in range(60):
        program = binarize(parse_program(random_binary_program_text(rng)))
        for domain in (Q, QPLUS):
            for rule in program.rules:
                cone = decider.rule_cone(rule, domain, decider.coeff_table(program, program.pool.clone()))
                sat = feasible(integer_system(rule.domain_rows(domain)))
                assert cone.satisfiable == sat
                seen.add((rule.is_fact, sat))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_decide_projects_each_analysed_rule_once(monkeypatch):
    program = parse_program(
        load("example4.clp") + "\n" + load("example72.clp") + "\n"
        "p(x) :- x >= 1, 0 >= x, y = x, p(y).\n"
        "r(x) :- x >= 1, y = x - 1, z = x, p(y), r(z).\n"
    )
    binary = binarize(program)
    calls = []
    real = decider.project_constraints

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decider, "project_constraints", counting)
    verdict = decide(program, Q)
    # facts are tested by their cones too, and not analysed
    assert len(calls) == len(binary.rules)
    with_body = [rule for rule in binary.rules if not rule.is_fact]
    # the cone of the unsatisfiable rule finds it, and it is not analysed
    assert len(verdict.alm.cones) == len(with_body) - 1
    assert ("r6", "unsat") in verdict.alm.skipped


# multi-atom rules, whose split children hold their siblings' arguments in
# the constraint
SPLIT_RULES = (
    load("example4.clp") + "\n" + load("multibody.clp") + "\n"
    "r(x, v) :- x >= 1, y = x - 1, z + w = x + v, 3 >= w, p(y), r(z, w).\n"
    "p(x) :- x = 2*y, y >= 1, p(y).\n"
)


def test_cone_has_a_balance_row_per_rule_variable_and_a_sign_row_per_inequality(monkeypatch):
    """Each cone, a fact's included, is built from the rule's own rows: one
    balance equality per rule variable (no pinned ``one`` column), and
    besides the bound row one ``y >= 0`` row per ``>=`` row of the rule or of
    the domain; an equality's multiplier is free."""
    program = binarize(parse_program(SPLIT_RULES))
    with_body = [rule for rule in program.rules if not rule.is_fact]
    # split bodies leave variables in the constraint that neither atom has
    assert any(
        set(rule.variables) - {v for a in rule.atoms() for v in a.args} for rule in with_body
    )
    real = decider.project_constraints
    for domain in (Q, QPLUS):
        calls = []

        def recording(eqs, ineqs, keep):
            calls.append((eqs, ineqs))
            return real(eqs, ineqs, keep)

        monkeypatch.setattr(decider, "project_constraints", recording)
        assemble(program, domain)
        assert len(calls) == len(program.rules)
        for rule, (eqs, ineqs) in zip(program.rules, calls):
            inequalities = sum(rel == GEQ for _, _, rel in rule.domain_rows(domain))
            assert len(eqs) == len(rule.variables)
            assert len(ineqs) == 1 + inequalities


def test_cone_columns_are_the_head_and_body_arguments():
    """A cone has a ``z`` column per head and body argument and no other, so
    a fact's cone has ``s`` alone: a split rule's siblings' arguments and a
    fact's variables keep their balance rows, but no row of the projected
    cone mentions them."""
    rng = random.Random(31)
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.clp"))]
    texts += [SPLIT_RULES] + [random_flat_program_text(rng) for _ in range(30)]
    seen = set()
    for text in texts:
        program = binarize(parse_program(text))
        coeff_ids = coeff_table(program, program.pool.clone())
        for rule in program.rules:
            read = rule.head.args + rule.body[0].args if rule.body else ()
            for domain in DOMAINS:
                cone = rule_cone(rule, domain, coeff_ids)
                assert cone.columns == len(read)
                # ids up to ``columns`` only: on a fact, ``s`` (id 0) alone
                assert all(0 <= v <= cone.columns for coeffs, _ in cone.rows for v in coeffs)
            seen.add((rule.is_fact, len(rule.variables) > len(read)))
    # facts with variables, and rules with variables no layout reads
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_num_rows_counts_the_explicit_multiplier_systems():
    """``AlmSystem.num_rows`` (the benchmark's ``decider.assemble.rows``)
    counts the rows of the specification's multiplier systems exactly."""
    rng = random.Random(29)
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.clp"))]
    texts += [random_binary_program_text(rng) for _ in range(20)]
    texts += [random_flat_program_text(rng) for _ in range(20)]
    checked = 0
    for text in texts:
        program = binarize(parse_program(text))
        for domain in (Q, QPLUS, N):
            alm = assemble(program, domain)
            explicit = systems(alm)
            assert alm.num_rows == sum(ds.num_rows for ds in explicit)
            checked += len(explicit)
    assert checked >= 300
