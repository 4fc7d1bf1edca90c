"""The integer projection routine against the Fraction oracle, and the
shared dual cone of each rule against its two explicit multiplier systems."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_fm
from almterm import (
    EQ,
    GEQ,
    N,
    Q,
    QPLUS,
    LinearConstraint,
    LinearExpr,
    assemble,
    binarize,
    build_rule_systems,
    decide,
    equivalent_systems,
    normalize,
    parse_program,
    project_constraints,
)
from almterm import decider
from almterm.decider import rule_constraint_satisfiable
from almterm.lp import constraint_rows, row_constraints, rows_system
from helpers import load, random_binary_program_text

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
    mine = project_constraints(*constraint_rows(constraints), keep)
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
        normalize(row_constraints(eqs, ineqs), order_hint=order),
        normalize(oracle, order_hint=order),
    )


def explicit_projection(system, keep):
    """One explicit multiplier system projected by the Fraction oracle, as an
    ``A x >= b`` system over ``keep``."""
    projected = fraction_fm.project_constraints(system.all_constraints(), keep)
    if projected is None:
        projected = [LinearConstraint(LinearExpr(), GEQ, LinearExpr.of_const(1))]
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
                    mine = rows_system(keep, cone.instantiate(layout, s))
                    assert equivalent_systems(mine, explicit_projection(system, keep))
                    checked += 1
    assert checked >= 100


def test_cone_satisfiability_agrees_with_lp():
    """Farkas: (0, 1) lies in a rule's dual cone iff its constraint is
    unsatisfiable."""
    rng = random.Random(23)
    seen = set()
    for _ in range(60):
        program = binarize(parse_program(random_binary_program_text(rng)))
        for domain in (Q, QPLUS):
            for rule in program.rules:
                if rule.is_fact:
                    continue
                cone = decider.rule_cone(rule, domain, decider.coeff_table(program, program.pool.clone()))
                sat = rule_constraint_satisfiable(rule, domain)
                assert cone.satisfiable == sat
                seen.add(sat)
    assert seen == {True, False}


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
    with_body = [rule for rule in binary.rules if not rule.is_fact]
    assert len(calls) == len(with_body)
    # the cone of the unsatisfiable rule finds it, and it is not analysed
    assert len(verdict.alm.cones) == len(with_body) - 1
    assert ("r6", "unsat") in verdict.alm.skipped
