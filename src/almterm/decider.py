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

Both systems of a rule are instances of its dual cone
``K = {(z, s) : some y >= 0 has A^T y = z and b.y >= s}``, since ``c -> e.x >= t``
holds iff ``(e, t)`` lies in ``K`` (the generator view of the encoding:
Bagnara, Mesnard, Pescetti and Zaffanella, Inf. Comput. 2012).  So each rule's
constraint becomes integer rows once, ``K`` is projected onto ``(z, s)`` once
(its rows are homogeneous, so this is pure integer arithmetic), and the
projection is instantiated twice: ``z`` the decrease objective with ``s = 1``,
and ``z`` the body-level objective with ``s = 0``.  By Farkas' lemma ``c`` is
unsatisfiable iff ``(0, 1)`` lies in ``K``, so the same projection tests the
rule and no LP runs for it.  The explicit multiplier systems
(:func:`build_rule_systems`) remain as the specification; ``decide`` never
builds them.

The verifier module re-checks any extracted mapping through plain primal
minimisation, giving an independent second encoding of the same implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .binarize import binarize
from .lp import (
    LinearSystem,
    Row,
    deduplicate,
    drop_redundant,
    feasible,
    feasible_point,
    integer_system,
    normalize,
    project_constraints,
    rows_system,
)
from .model import (
    EQ,
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
class RuleCone:
    """The dual cone of one analysed binary rule, projected onto ``(z, s)``.

    ``z_j`` (id ``j``) stands for column ``j`` of the rule's primal system
    (laid out as in :class:`RulePrimal`) and ``s`` for id ``columns``;
    ``rows`` are ``>=`` rows (an equality gives two).  ``decrease`` and
    ``nonneg`` give, per column, the coefficient-variable combination ``z``
    takes in the two implications.  ``multipliers`` counts the primal rows.
    """

    rule: Rule
    columns: int
    multipliers: int
    rows: tuple[Row, ...]
    decrease: tuple[dict[int, int], ...]
    nonneg: tuple[dict[int, int], ...]

    @property
    def satisfiable(self) -> bool:
        """Farkas: the rule constraint is unsatisfiable iff ``(z, s) = (0, 1)``
        lies in the cone, i.e. no row has a negative ``s`` entry."""
        return any(coeffs.get(self.columns, 0) < 0 for coeffs, _ in self.rows)

    def instantiate(self, layout: tuple[dict[int, int], ...], s: int) -> list[Row]:
        """The rows with ``z := layout`` and ``s := s``, over the coefficient
        variables; ``[0 >= 1]`` when the rule admits no coefficients."""
        out: list[Row] = []
        for coeffs, _ in self.rows:
            row: dict[int, int] = {}
            for z, c in coeffs.items():
                if z < self.columns:
                    for mu, k in layout[z].items():
                        row[mu] = row.get(mu, 0) + c * k
            row = {mu: c for mu, c in row.items() if c}
            bound = -coeffs.get(self.columns, 0) * s
            if row:
                out.append((row, bound))
            elif bound > 0:
                return [({}, 1)]
        return out


@dataclass(frozen=True)
class AlmSystem:
    """Conjunction of all per-rule multiplier systems of a binary program,
    held as one projected dual cone per analysed rule.

    The coefficient variables (one block per predicate, arity + 1 entries
    starting with the constant) are shared across rules; multipliers are
    fresh per system.  An empty system is vacuously satisfiable.
    """

    domain: Domain
    cones: tuple[RuleCone, ...]
    coeff_ids: dict[str, tuple[int, ...]]
    skipped: tuple[tuple[str, str], ...]
    pool: VariablePool

    @cached_property
    def systems(self) -> tuple[DualSystem, ...]:
        """The explicit multiplier systems, decrease then body-nonneg for
        each analysed rule; built (into ``pool``) on first use."""
        out: list[DualSystem] = []
        for cone in self.cones:
            out.extend(build_rule_systems(cone.rule, self.domain, self.pool, self.coeff_ids))
        return tuple(out)

    def all_constraints(self) -> list[LinearConstraint]:
        out: list[LinearConstraint] = []
        for ds in self.systems:
            out.extend(ds.all_constraints())
        return out

    @property
    def num_rows(self) -> int:
        """Rows of :attr:`systems`, counted without building them: each
        system has a balance row per column, the bound row and a
        nonnegativity row per multiplier."""
        return sum(2 * (cone.columns + 1 + cone.multipliers) for cone in self.cones)

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


def _encode(
    rule: Rule,
    domain: Domain,
    one: int,
    coeff_ids: dict[str, tuple[int, ...]],
) -> tuple[tuple[int, ...], list[Row], list[dict[int, int]], list[dict[int, int]]]:
    """A binary rule's constraint with ``one`` pinned to 1, as integer rows
    over ``(one, head args..., body args..., leftover constraint vars...)``,
    and per column the coefficient-variable combination that multiplies it
    in the decrease objective and in the body-level objective."""
    head, body = rule.head, rule.body[0]
    pinned = LinearConstraint(LinearExpr.of_var(one), EQ, LinearExpr.of_const(1))
    variables, rows = integer_system(
        (pinned,) + rule.constraints,
        extra_nonneg=_domain_vars(rule, domain),
        order_hint=(one,) + head.args + body.args,
    )
    hc = coeff_ids[head.pred]
    bc = coeff_ids[body.pred]
    head_slot = {v: i for i, v in enumerate(head.args, start=1)}
    body_slot = {v: i for i, v in enumerate(body.args, start=1)}
    decrease: list[dict[int, int]] = []
    nonneg: list[dict[int, int]] = []
    for v in variables:
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
    return variables, rows, decrease, nonneg


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
    one = pool.fresh(f"one[{rule.rule_id}]")
    variables, rows, decrease, nonneg = _encode(rule, domain, one, coeff_ids)
    return RulePrimal(
        rule.rule_id,
        rows_system(variables, rows),
        one,
        rule.head.args,
        rule.body[0].args,
        tuple(LinearExpr(d) for d in decrease),
        tuple(LinearExpr(n) for n in nonneg),
    )


# the ``one`` column of a rule's cone: no pool id, since nothing outside the
# cone refers to it
_ONE = -1


def rule_cone(
    rule: Rule, domain: Domain, coeff_ids: dict[str, tuple[int, ...]]
) -> RuleCone:
    """Project the dual cone of a binary rule with a body (see the module
    docstring).

    The cone's variables are ``z_j`` (id ``j``) per primal column, ``s`` (id
    ``n``) and one multiplier ``y_i`` (id ``n + 1 + i``) per primal row; its
    rows are ``A^T y - z = 0``, ``b.y - s >= 0`` and ``y >= 0``, in the order
    and with the multiplier order of :func:`build_rule_systems`.
    """
    variables, rows, decrease, nonneg = _encode(rule, domain, _ONE, coeff_ids)
    n = len(variables)
    column = {v: j for j, v in enumerate(variables)}
    balance: list[dict[int, int]] = [{} for _ in range(n)]
    bound: dict[int, int] = {}
    for y, (coeffs, b) in enumerate(rows, start=n + 1):
        for v, c in coeffs.items():
            balance[column[v]][y] = c
        if b:
            bound[y] = b
    for j, row in enumerate(balance):
        row[j] = -1
    bound[n] = -1
    eqs = [(row, 0) for row in balance]
    ineqs = [(bound, 0)] + [({y: 1}, 0) for y in range(n + 1, n + 1 + len(rows))]
    projected = project_constraints(eqs, ineqs, range(n + 1))
    assert projected is not None, "a cone always contains 0"
    eqs, ineqs = projected
    split = [r for c, _ in eqs for r in ((c, 0), ({v: -k for v, k in c.items()}, 0))]
    return RuleCone(rule, n, len(rows), tuple(split + ineqs), tuple(decrease), tuple(nonneg))


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
    """Project the dual cone of every rule of a binary program (facts and
    rules with unsatisfiable constraints are skipped, with the reason
    recorded).  Facts take one exact satisfiability test each; every other
    rule is tested by its cone."""
    if not program.is_binary():
        raise ModelError("assemble requires a binary program; binarize first")
    pool = program.pool.clone()
    coeff_ids = coeff_table(program, pool)
    cones: list[RuleCone] = []
    skipped: list[tuple[str, str]] = []
    for rule in program.rules:
        if rule.is_fact:
            sat = rule_constraint_satisfiable(rule, domain)
            skipped.append((rule.rule_id, SKIP_FACT if sat else SKIP_UNSAT))
            continue
        cone = rule_cone(rule, domain, coeff_ids)
        if cone.satisfiable:
            cones.append(cone)
        else:
            skipped.append((rule.rule_id, SKIP_UNSAT))
    return AlmSystem(domain, tuple(cones), coeff_ids, tuple(skipped), pool)


def coefficient_rows(alm: AlmSystem) -> list[Row]:
    """The conjunction, as ``>=`` rows over the coefficient variables, of
    every analysed rule's two projected systems: its cone instantiated for
    the decrease and for the body-nonneg implication.  Because multipliers
    are fresh per system, these rows have exactly the coefficient-space
    solutions of the full conjunction."""
    rows: list[Row] = []
    for cone in alm.cones:
        rows += cone.instantiate(cone.decrease, 1)
        rows += cone.instantiate(cone.nonneg, 0)
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
    """Full decision pipeline: binarize, project each rule's dual cone,
    instantiate it for both implications, solve the conjunction, and extract
    a witness mapping.

    Over q/q+/r/r+ the answer is exact in both directions.  Over n a
    satisfiable system still proves termination (sound-yes) but an
    unsatisfiable one proves nothing (unknown).
    """
    binary = binarize(program)
    alm = assemble(binary, domain)
    coeff_system = deduplicate(rows_system(alm.coeff_variables(), coefficient_rows(alm)))
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
