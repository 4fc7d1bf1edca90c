"""Decide whether a program admits an affine level mapping that certifies
termination, and extract one when it does.

For each binary rule ``p(xs) :- c, q(ys)`` with satisfiable constraint, the
two required implications

    c  implies  |p(xs)| >= 1 + |q(ys)|        (strict decrease)
    c  implies  |q(ys)| >= 0                  (body stays nonnegative)

are turned into linear systems over fresh nonnegative row multipliers and the
unknown level coefficients: an implication ``c -> e >= t`` holds exactly when
some nonnegative combination of the rows of ``c`` (written as ``A x >= b``)
produces ``e`` with combined bound at least ``t``.  The multipliers are local
to a rule, so the conjunction of all systems is satisfiable iff each rule's
system can be satisfied at a common choice of level coefficients; the decider
therefore projects every per-rule system onto the coefficient variables and
solves the (low-dimensional) conjunction of the projections.  That keeps the
solve linear in the number of rules.

The verifier module re-checks any extracted mapping through plain primal
minimisation, giving an independent second encoding of the same implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .binarize import binarize
from .lp import (
    LinearSystem,
    deduplicate,
    drop_redundant,
    feasible,
    feasible_point,
    normalize,
    project_constraints,
)
from .model import (
    GEQ,
    Domain,
    LevelMapping,
    LinearConstraint,
    LinearExpr,
    ModelError,
    Program,
    Rule,
    VariablePool,
)

ALM_RECURRENT = "alm-recurrent"
NOT_ALM_RECURRENT = "not-alm-recurrent"
SOUND_YES = "sound-yes"
UNKNOWN = "unknown"

DECREASE = "decrease"
BODY_NONNEG = "body-nonneg"

SKIP_FACT = "fact"
SKIP_UNSAT = "unsat"

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
        nonneg = tuple(
            LinearConstraint(LinearExpr.of_var(y), GEQ, LinearExpr.of_const(0))
            for y in self.multipliers
        )
        bound_row = LinearConstraint(
            self.objective, GEQ, LinearExpr.of_const(self.bound)
        )
        return self.balance + (bound_row,) + nonneg

    @property
    def num_rows(self) -> int:
        return len(self.balance) + 1 + len(self.multipliers)


@dataclass(frozen=True)
class AlmSystem:
    """Conjunction of all per-rule multiplier systems of a binary program.

    The coefficient variables (one block per predicate, arity + 1 entries
    starting with the constant) are shared across systems; multipliers are
    fresh per system.  An empty system is vacuously satisfiable.
    """

    domain: Domain
    systems: tuple[DualSystem, ...]
    coeff_ids: dict[str, tuple[int, ...]]
    skipped: tuple[tuple[str, str], ...]
    pool: VariablePool

    def all_constraints(self) -> list[LinearConstraint]:
        out: list[LinearConstraint] = []
        for ds in self.systems:
            out.extend(ds.all_constraints())
        return out

    @property
    def num_rows(self) -> int:
        return sum(ds.num_rows for ds in self.systems)

    def coeff_variables(self) -> tuple[int, ...]:
        return tuple(v for ids in self.coeff_ids.values() for v in ids)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the decision procedure.

    ``witness`` is present exactly on affirmative kinds.  Over the naturals
    the procedure is sound but incomplete, so kinds become "sound-yes" /
    "unknown" instead of yes/no.
    """

    kind: str
    witness: LevelMapping | None = None
    projection: LinearSystem | None = None
    alm: AlmSystem | None = None
    binary: Program | None = None

    @property
    def affirmative(self) -> bool:
        return self.kind in (ALM_RECURRENT, SOUND_YES)


def coeff_table(program: Program, pool: VariablePool) -> dict[str, tuple[int, ...]]:
    """Allocate one coefficient variable per predicate and argument slot
    (index 0 is the additive constant)."""
    table: dict[str, tuple[int, ...]] = {}
    for pred in program.predicates():
        arity = program.arities[pred]
        table[pred] = tuple(
            pool.fresh(f"lm({pred},{i})") for i in range(arity + 1)
        )
    return table


def _domain_vars(rule: Rule, domain: Domain) -> tuple[int, ...]:
    return tuple(sorted(rule.all_vars())) if domain.nonneg else ()


def rule_constraint_satisfiable(rule: Rule, domain: Domain) -> bool:
    """Satisfiability of the rule constraint, including the domain's implicit
    nonnegativity rows, over the rationals (exact)."""
    return feasible(normalize(rule.constraints, extra_nonneg=_domain_vars(rule, domain)))


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
    if not rule_constraint_satisfiable(rule, domain):
        return None

    head, body = rule.head, rule.body[0]
    one = pool.fresh(f"one[{rule.rule_id}]")
    pinned = LinearConstraint(
        LinearExpr.of_var(one), "=", LinearExpr.of_const(1)
    )
    system = normalize(
        (pinned,) + rule.constraints,
        extra_nonneg=_domain_vars(rule, domain),
        order_hint=(one,) + head.args + body.args,
    )

    hc = coeff_ids[head.pred]
    bc = coeff_ids[body.pred]
    head_slot = {v: i for i, v in enumerate(head.args, start=1)}
    body_slot = {v: i for i, v in enumerate(body.args, start=1)}

    decrease: list[LinearExpr] = []
    nonneg: list[LinearExpr] = []
    for v in system.variables:
        if v == one:
            decrease.append(LinearExpr.of_var(hc[0]) - LinearExpr.of_var(bc[0]))
            nonneg.append(LinearExpr.of_var(bc[0]))
        elif v in head_slot:
            decrease.append(LinearExpr.of_var(hc[head_slot[v]]))
            nonneg.append(LinearExpr())
        elif v in body_slot:
            decrease.append(LinearExpr.of_var(bc[body_slot[v]], -1))
            nonneg.append(LinearExpr.of_var(bc[body_slot[v]]))
        else:
            # leftover constraint variable (from body splitting): both
            # objectives ignore it, so its multiplier combination must vanish
            decrease.append(LinearExpr())
            nonneg.append(LinearExpr())

    return RulePrimal(
        rule.rule_id,
        system,
        one,
        head.args,
        body.args,
        tuple(decrease),
        tuple(nonneg),
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
    for j in range(sys.num_vars):
        combo = LinearExpr({ys[i]: sys.rows[i][j] for i in range(sys.num_rows)})
        balance.append(LinearConstraint(combo, "=", layout[j]))
    objective = LinearExpr({ys[i]: sys.rhs[i] for i in range(sys.num_rows)})
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


def assemble(program: Program, domain: Domain) -> AlmSystem:
    """Conjoin the multiplier systems of every contributing rule of a binary
    program (facts and unsatisfiable rules are skipped, with the reason
    recorded)."""
    if not program.is_binary():
        raise ModelError("assemble requires a binary program; binarize first")
    pool = program.pool.clone()
    coeff_ids = coeff_table(program, pool)
    systems: list[DualSystem] = []
    skipped: list[tuple[str, str]] = []
    for rule in program.rules:
        # one satisfiability test per rule: build_rule_systems makes it for
        # every rule that is not a fact
        if rule.is_fact:
            sat = rule_constraint_satisfiable(rule, domain)
            skipped.append((rule.rule_id, SKIP_FACT if sat else SKIP_UNSAT))
            continue
        built = build_rule_systems(rule, domain, pool, coeff_ids)
        if built is None:
            skipped.append((rule.rule_id, SKIP_UNSAT))
            continue
        systems.extend(built)
    return AlmSystem(domain, tuple(systems), coeff_ids, tuple(skipped), pool)


def coefficient_rows(alm: AlmSystem) -> list[LinearConstraint]:
    """Project every multiplier system onto the coefficient variables and
    return the conjunction.  Because multipliers are fresh per system, this
    set of rows has exactly the coefficient-space solutions of the full
    conjunction."""
    keep = set(alm.coeff_variables())
    rows: list[LinearConstraint] = []
    for ds in alm.systems:
        projected = project_constraints(ds.all_constraints(), keep)
        if projected is None:
            # this rule alone admits no coefficients at all
            rows.append(
                LinearConstraint(LinearExpr(), GEQ, LinearExpr.of_const(1))
            )
        else:
            rows.extend(projected)
    return rows


def extract_witness(alm: AlmSystem, point: dict[int, Fraction]) -> LevelMapping:
    """Read a level mapping off a satisfying assignment of the coefficient
    system; coefficient variables the system never mentions default to 0."""
    return LevelMapping(
        {
            pred: tuple(point.get(v, ZERO) for v in ids)
            for pred, ids in alm.coeff_ids.items()
        }
    )


def decide(
    program: Program, domain: Domain, want_projection: bool = False
) -> Verdict:
    """Full decision pipeline: binarize, build and project the multiplier
    systems, test satisfiability, and extract a witness mapping.

    Over q/q+/r/r+ the answer is exact in both directions.  Over n a
    satisfiable system still proves termination (sound-yes) but an
    unsatisfiable one proves nothing (unknown).
    """
    binary = binarize(program)
    alm = assemble(binary, domain)
    order = alm.coeff_variables()
    coeff_system = deduplicate(normalize(coefficient_rows(alm), order_hint=order))
    point = feasible_point(coeff_system)

    if point is None:
        kind = UNKNOWN if domain.sound_only else NOT_ALM_RECURRENT
        return Verdict(kind, alm=alm, binary=binary)

    witness = extract_witness(alm, point)
    projection = None
    if want_projection:
        projection = drop_redundant(coeff_system)
    kind = SOUND_YES if domain.sound_only else ALM_RECURRENT
    return Verdict(kind, witness, projection, alm=alm, binary=binary)
