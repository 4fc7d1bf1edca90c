"""Independent certificate checking through primal minimisation.

Given a concrete level mapping, each rule must satisfy, for every body atom,

    min  |head| - |body atom|   over the rule constraint   >=  1
    min  |body atom|            over the rule constraint   >=  0

with the measures instantiated to plain rationals.  The decider never runs
these minimisations (it works on the multiplier side), so agreement between
the two is a genuine cross-check of both encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, feasible, minimize, normalize
from .model import (
    Atom,
    Domain,
    LevelMapping,
    LinearConstraint,
    LinearExpr,
    Program,
    Q,
    Rule,
)

EPSILON = Fraction(1)  # required per-step decrease; scaling makes 1 canonical

PASS = "pass"
FAIL = "fail"
VACUOUS_FACT = "vacuous-fact"
VACUOUS_UNSAT = "vacuous-unsat"


@dataclass(frozen=True)
class RuleCheck:
    """Result for one (rule, body atom) pair.

    ``decrease`` / ``body_floor`` hold the two minimisation outcomes.  On
    failure ``counterexample`` is a rational assignment of the rule variables
    witnessing the violated implication (a ground instance of the rule).
    """

    rule_id: str
    body_index: int | None
    status: str
    decrease: LpOutcome | None = None
    body_floor: LpOutcome | None = None
    counterexample: dict[int, Fraction] | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status != FAIL


@dataclass(frozen=True)
class VerifyReport:
    epsilon: Fraction
    checks: tuple[RuleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[RuleCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def for_rule(self, rule_id: str) -> tuple[RuleCheck, ...]:
        return tuple(c for c in self.checks if c.rule_id == rule_id)


def _level_expr(lm: LevelMapping, atom: Atom, one_var: int) -> LinearExpr:
    vec = lm.coeffs.get(atom.pred)
    if vec is None:
        # raises the canonical "does not cover" error
        lm.level_of(atom.pred, [Fraction(0)] * atom.arity)
        raise AssertionError("unreachable")
    coeffs = {one_var: vec[0]}
    for slot, v in enumerate(atom.args, start=1):
        coeffs[v] = coeffs.get(v, Fraction(0)) + vec[slot]
    return LinearExpr(coeffs)


def _violating_point(out: LpOutcome, objective: LinearExpr, threshold: Fraction):
    """A concrete assignment where the objective drops below the threshold."""
    if out.status == OPTIMAL:
        return out.point
    if out.status == UNBOUNDED and out.point is not None and out.ray is not None:
        slope = sum(
            (objective.coeffs.get(v, Fraction(0)) * d for v, d in out.ray.items()),
            Fraction(0),
        )
        value = objective.evaluate(out.point)
        if slope >= 0:
            return out.point
        # walk far enough along the ray to land strictly below the threshold
        steps = (value - threshold + 1) / -slope
        return {v: out.point[v] + steps * out.ray.get(v, Fraction(0)) for v in out.point}
    return None


def _check_pair(
    rule: Rule,
    body_index: int,
    lm: LevelMapping,
    domain: Domain,
    one_var: int,
) -> RuleCheck | None:
    """Both minimisations for one body atom; None when the rule constraint
    is unsatisfiable (pinning ``one`` to 1 does not change that)."""
    body_atom = rule.body[body_index]
    pinned = LinearConstraint(LinearExpr.of_var(one_var), "=", LinearExpr.of_const(1))
    extra = tuple(sorted(rule.all_vars())) if domain.nonneg else ()
    system = normalize(
        (pinned,) + rule.constraints,
        extra_nonneg=extra,
        order_hint=(one_var,) + rule.head.args + body_atom.args,
    )
    head_level = _level_expr(lm, rule.head, one_var)
    body_level = _level_expr(lm, body_atom, one_var)

    decrease = minimize(system, head_level - body_level)
    if decrease.status == INFEASIBLE:
        return None
    body_floor = minimize(system, body_level)

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
        witness = _violating_point(decrease, head_level - body_level, EPSILON)
    else:
        note = (
            "body level is unbounded below"
            if body_floor.status == UNBOUNDED
            else f"body level bottoms out at {body_floor.value}, needs >= 0"
        )
        witness = _violating_point(body_floor, body_level, Fraction(0))
    return RuleCheck(rule.rule_id, body_index, FAIL, decrease, body_floor, witness, note)


def verify(program: Program, lm: LevelMapping, domain: Domain = Q) -> VerifyReport:
    """Check that ``lm`` certifies every rule of ``program`` (binary or not:
    body atoms are checked independently).  Facts and rules with unsatisfiable
    constraints pass vacuously; any other rule needs both minima to clear
    their thresholds exactly."""
    pool = program.pool.clone()
    checks: list[RuleCheck] = []
    for rule in program.rules:
        if rule.is_fact:
            extra = tuple(sorted(rule.all_vars())) if domain.nonneg else ()
            sat = feasible(normalize(rule.constraints, extra_nonneg=extra))
            checks.append(RuleCheck(rule.rule_id, None, VACUOUS_FACT if sat else VACUOUS_UNSAT))
            continue
        one_var = pool.fresh(f"one[{rule.rule_id}]")
        for idx in range(len(rule.body)):
            check = _check_pair(rule, idx, lm, domain, one_var)
            if check is None:
                # all pairs share the constraint, so this is the first pair
                checks.append(RuleCheck(rule.rule_id, None, VACUOUS_UNSAT))
                break
            checks.append(check)
    return VerifyReport(EPSILON, tuple(checks))
