"""Specification of the per-rule encoding: the explicit multiplier systems.

For a binary rule ``p(xs) :- c, q(ys)`` with satisfiable constraint ``c``
(written ``A x >= b``), the implication ``c -> e.x >= t`` holds iff some
``y >= 0`` has ``A^T y = e`` and ``b.y >= t``.  This module builds those two
systems (the decrease, ``t = 1``, and the body-level one, ``t = 0``) over
fresh multipliers, exactly as written, from the rule's constraint with a
``one`` column pinned to 1 and every equality written as two ``>=`` rows
(:func:`_encode`); over ``q+``, ``r+`` and ``n`` the constraint has an
``x >= 0`` row for every rule variable, where ``Rule.domain_rows`` leaves
out those the rule's rows imply.  ``almterm.decider`` never builds them: it
projects each rule's dual cone once, straight from the rule's rows, and
instantiates it twice.  The tests check the cones against these systems,
which share no encoding code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from almterm.decider import AlmSystem
from almterm.lp import LinearSystem, integer_system
from almterm.model import EQ, Domain, ModelError, Rule, VariablePool
from helpers import feasible
from linear import LinearConstraint, LinearExpr, equal, geq, nonneg_rows

DECREASE = "decrease"
BODY_NONNEG = "body-nonneg"

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RulePrimal:
    """The constraint of one binary rule in matrix form, together with the
    symbolic objective layouts for the two implications.

    ``system`` is ``A x >= b`` over ``(one, head args..., body args...,
    leftover constraint vars...)`` where ``one`` is pinned to 1 so constant
    terms become ordinary coefficients.  ``decrease_layout[j]`` /
    ``nonneg_layout[j]`` give, per column, the coefficient-variable expression
    that multiplies it in the respective objective.
    """

    rule_id: str
    system: LinearSystem
    one_var: int
    head_vars: tuple[int, ...]
    body_vars: tuple[int, ...]
    decrease_layout: tuple[LinearExpr, ...]
    nonneg_layout: tuple[LinearExpr, ...]


@dataclass(frozen=True)
class DualSystem:
    """Multiplier system for one implication of one rule.

    ``balance`` forces the nonnegative multipliers to reproduce the target
    objective column by column; ``objective >= bound`` forces the combined
    right-hand side high enough (1 for the decrease, 0 for nonnegativity).
    """

    rule_id: str
    kind: str
    multipliers: tuple[int, ...]
    balance: tuple[LinearConstraint, ...]
    objective: LinearExpr
    bound: Fraction

    def all_constraints(self) -> tuple[LinearConstraint, ...]:
        nonneg = tuple(geq(LinearExpr.of_var(y), 0) for y in self.multipliers)
        return self.balance + (geq(self.objective, self.bound),) + nonneg

    @property
    def num_rows(self) -> int:
        return len(self.balance) + 1 + len(self.multipliers)


def _encode(
    rule: Rule,
    domain: Domain,
    one: int,
    coeff_ids: dict[str, tuple[int, ...]],
) -> tuple[LinearSystem, list[dict[int, int]], list[dict[int, int]]]:
    """A binary rule's constraint with ``one`` pinned to 1, as integer rows
    over ``(one, head args..., body args..., leftover constraint vars...)``,
    and per column the coefficient-variable combination that multiplies it
    in the decrease objective and in the body-level objective."""
    head, body = rule.head, rule.body[0]
    system = integer_system(
        (({one: 1}, 1, EQ),) + _constraint(rule, domain),
        order_hint=(one,) + head.args + body.args,
    )
    hc = coeff_ids[head.pred]
    bc = coeff_ids[body.pred]
    head_slot = {v: i for i, v in enumerate(head.args, start=1)}
    body_slot = {v: i for i, v in enumerate(body.args, start=1)}
    decrease: list[dict[int, int]] = []
    nonneg: list[dict[int, int]] = []
    for v in system.variables:
        if v == one:
            decrease.append({} if hc[0] == bc[0] else {hc[0]: 1, bc[0]: -1})
            nonneg.append({bc[0]: 1})
        elif v in head_slot:
            decrease.append({hc[head_slot[v]]: 1})
            nonneg.append({})
        elif v in body_slot:
            decrease.append({bc[body_slot[v]]: -1})
            nonneg.append({bc[body_slot[v]]: 1})
        else:
            # leftover constraint variable (from body splitting): both
            # objectives ignore it, so its multiplier combination must vanish
            decrease.append({})
            nonneg.append({})
    return system, decrease, nonneg


def _constraint(rule: Rule, domain: Domain):
    """The rule's rows, then an ``x >= 0`` row per rule variable over a
    nonnegative domain."""
    return rule.rows + (nonneg_rows(rule.variables) if domain.nonneg else ())


def build_rule_primal(
    rule: Rule,
    domain: Domain,
    pool: VariablePool,
    coeff_ids: dict[str, tuple[int, ...]],
) -> RulePrimal | None:
    """Matrix form of one binary rule, or None when the rule contributes no
    condition (facts, and rules whose constraint is unsatisfiable)."""
    if rule.is_fact:
        return None
    if len(rule.body) != 1:
        raise ModelError(f"rule {rule.rule_id} is not binary")
    if not feasible(integer_system(_constraint(rule, domain))):
        return None
    one = pool.fresh(f"one[{rule.rule_id}]")
    system, decrease, nonneg = _encode(rule, domain, one, coeff_ids)
    return RulePrimal(
        rule.rule_id,
        system,
        one,
        rule.head.args,
        rule.body[0].args,
        tuple(LinearExpr(d) for d in decrease),
        tuple(LinearExpr(n) for n in nonneg),
    )


def _dualize(
    primal: RulePrimal,
    layout: tuple[LinearExpr, ...],
    bound: Fraction,
    kind: str,
    prefix: str,
    pool: VariablePool,
) -> DualSystem:
    sys = primal.system
    ys = tuple(
        pool.fresh(f"{prefix}{i + 1}[{primal.rule_id}]") for i in range(sys.num_rows)
    )
    balance = []
    for v, target in zip(sys.variables, layout):
        combo = LinearExpr({y: coeffs.get(v, 0) for y, (coeffs, _) in zip(ys, sys.rows)})
        balance.append(equal(combo, target))
    objective = LinearExpr({y: b for y, (_, b) in zip(ys, sys.rows)})
    return DualSystem(primal.rule_id, kind, ys, tuple(balance), objective, bound)


def build_rule_systems(
    rule: Rule,
    domain: Domain,
    pool: VariablePool,
    coeff_ids: dict[str, tuple[int, ...]],
) -> tuple[DualSystem, DualSystem] | None:
    """The two multiplier systems of a binary rule, or None when the rule is
    a fact or its constraint is unsatisfiable over the domain."""
    primal = build_rule_primal(rule, domain, pool, coeff_ids)
    if primal is None:
        return None
    return (
        _dualize(primal, primal.decrease_layout, ONE, DECREASE, "d", pool),
        _dualize(primal, primal.nonneg_layout, ZERO, BODY_NONNEG, "n", pool),
    )


def systems(alm: AlmSystem) -> tuple[DualSystem, ...]:
    """The explicit multiplier systems of ``alm``, decrease then body-nonneg
    for each analysed rule; their multipliers are drawn from ``alm.pool``."""
    out: list[DualSystem] = []
    for cone in alm.cones:
        out.extend(build_rule_systems(cone.rule, alm.domain, alm.pool, alm.coeff_ids))
    return tuple(out)


def all_constraints(alm: AlmSystem) -> list[LinearConstraint]:
    """Every constraint of :func:`systems`."""
    out: list[LinearConstraint] = []
    for ds in systems(alm):
        out.extend(ds.all_constraints())
    return out
