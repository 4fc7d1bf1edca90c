"""Reference certificate check with a pinned ``one`` variable (test oracle).

``verify`` checks each (rule, body atom) pair by minimising both level
conditions over the whole rule constraint: every equality reaches
:func:`almterm.lp.minimize` as a row and its negation, and a fresh ``one``
variable, pinned to 1 by one more equality, carries the level constants
inside the objectives.  ``almterm.verifier`` substitutes the equalities away
first and adds the constants outside the LP instead; the tests check that
both report the same statuses, minima and notes.  Every system also holds
the row ``0 >= 0``, whose empty column no simplex pivot can enter: it
changes no outcome, but no system is then a box, so every minimum here comes
from the simplex rather than from :func:`almterm.lp.minimize`'s box
read-off, which the verifier's own systems often take.  Counterexamples are
not compared: this one walks an unbounded outcome's ray backward when its
point already violates the condition, which can leave the rule constraint.
"""

from __future__ import annotations

from fractions import Fraction

from almterm.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, integer_system, minimize
from almterm.model import EQ, GEQ, Atom, ConstraintRow, Domain, LevelMapping, Program, Q, Rule
from almterm.verifier import (
    EPSILON,
    FAIL,
    PASS,
    VACUOUS_FACT,
    VACUOUS_UNSAT,
    RuleCheck,
    VerifyReport,
)
from helpers import feasible
from linear import nonneg_rows


def _domain_rows(rule: Rule, domain: Domain) -> tuple[ConstraintRow, ...]:
    """The rule's rows, then its ``x >= 0`` rows on a nonnegative domain."""
    return rule.rows + (nonneg_rows(rule.variables) if domain.nonneg else ())


def _level(lm: LevelMapping, atom: Atom, one_var: int) -> dict[int, Fraction]:
    """The level of ``atom`` as objective coefficients, the constant on
    ``one_var``."""
    vec = lm.vector(atom.pred, atom.arity)
    return {one_var: vec[0], **dict(zip(atom.args, vec[1:]))}


def _violating_point(out: LpOutcome, objective: dict[int, Fraction], threshold: Fraction):
    """A concrete assignment where the objective drops below the threshold."""
    if out.status == OPTIMAL:
        return out.point
    if out.status == UNBOUNDED and out.point is not None and out.ray is not None:
        slope = sum((objective.get(v, 0) * d for v, d in out.ray.items()), Fraction(0))
        value = sum((c * out.point[v] for v, c in objective.items()), Fraction(0))
        if slope >= 0:
            return out.point
        steps = (value - threshold + 1) / -slope
        return {v: out.point[v] + steps * out.ray.get(v, Fraction(0)) for v in out.point}
    return None


def _check_pair(
    rule: Rule, body_index: int, lm: LevelMapping, domain: Domain, one_var: int
) -> RuleCheck | None:
    body_atom = rule.body[body_index]
    system = integer_system(
        (({one_var: 1}, 1, EQ),) + _domain_rows(rule, domain) + (({}, 0, GEQ),),
        order_hint=(one_var,) + rule.head.args + body_atom.args,
    )
    head_level = _level(lm, rule.head, one_var)
    body_level = _level(lm, body_atom, one_var)
    drop = {**head_level, **{v: -c for v, c in body_level.items()}}
    drop[one_var] = head_level[one_var] - body_level[one_var]

    decrease, body_floor = minimize(system, drop, body_level)
    if decrease.status == INFEASIBLE:
        return None

    ok_dec = decrease.status == OPTIMAL and decrease.value >= EPSILON
    ok_floor = body_floor.status == OPTIMAL and body_floor.value >= 0
    if ok_dec and ok_floor:
        return RuleCheck(rule.rule_id, body_index, PASS, decrease, body_floor)

    if not ok_dec:
        note = (
            "head-to-body decrease is unbounded below"
            if decrease.status == UNBOUNDED
            else f"head-to-body decrease bottoms out at {decrease.value}, needs >= {EPSILON}"
        )
        witness = _violating_point(decrease, drop, EPSILON)
    else:
        note = (
            "body level is unbounded below"
            if body_floor.status == UNBOUNDED
            else f"body level bottoms out at {body_floor.value}, needs >= 0"
        )
        witness = _violating_point(body_floor, body_level, Fraction(0))
    return RuleCheck(rule.rule_id, body_index, FAIL, decrease, body_floor, witness, note)


def verify(program: Program, lm: LevelMapping, domain: Domain = Q) -> VerifyReport:
    """Check every (rule, body atom) pair with a ``one``-pinned LP."""
    pool = program.pool.clone()
    checks: list[RuleCheck] = []
    for rule in program.rules:
        if rule.is_fact:
            sat = feasible(integer_system(_domain_rows(rule, domain)))
            checks.append(RuleCheck(rule.rule_id, None, VACUOUS_FACT if sat else VACUOUS_UNSAT))
            continue
        one_var = pool.fresh(f"one[{rule.rule_id}]")
        for idx in range(len(rule.body)):
            check = _check_pair(rule, idx, lm, domain, one_var)
            if check is None:
                checks.append(RuleCheck(rule.rule_id, None, VACUOUS_UNSAT))
                break
            checks.append(check)
    return VerifyReport(EPSILON, tuple(checks))
