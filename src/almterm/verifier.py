"""Independent certificate checking through primal minimisation.

Given a concrete level mapping, each rule must satisfy, for every body atom,

    min  |head| - |body atom|   over the rule constraint   >=  1
    min  |body atom|            over the rule constraint   >=  0

with the measures instantiated to plain rationals.

Each rule (facts too) is presolved once, for all its body atoms, over its
rows on the domain (``Rule.domain_rows``, with the nonnegativity rows the
rule's rows leave open): every equality is substituted away (the row arithmetic of the
projection's equality step) from the other equalities and the inequalities,
and from both objectives of every pair, and the inequalities left are pruned
as the projection prunes them (primitive form, one row per direction).
The substitution maps the rule's solutions one to one onto the solutions of
the inequalities that are left, so each minimum over the reduced system is
the minimum over the rule constraint.  Both minima of a pair are found
together over those inequalities, with integer objectives: the mapping is
scaled to integers once per :func:`verify` call, and each predicate's
vector is read from it once, at the predicate's first atom, as an int
constant and its nonzero ``(position, coefficient)`` pairs
(:class:`_Levels`).  The level constants, and what the substitution adds to
them, are added to the minima outside the LP, in ints, and a minimum is
tested against its threshold in ints before it is printed.
The eliminated variables are worked out again, in reverse order, only to
build a counterexample.

A fact has no pair: it is satisfiable when its reduced system is nonempty,
which :func:`minimize` decides with the zero objective.  Every point is
:func:`minimize`'s, which reads the minima of a box off its bounds.

The decider never runs these minimisations (it works with the projected
cone), and no cone enters here, so agreement between the two is a genuine
cross-check of both encodings.  Both share the LP kernel and its columns
(:func:`minimize` solves the dual), so :func:`minimize` checks each optimum
the simplex finds against its point and its multipliers before returning
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    LpOutcome,
    Row,
    _prune,
    _substitute,
    minimize,
)
from .model import EQ, Atom, Domain, LevelMapping, Program, Q, Rule

EPSILON = Fraction(1)  # required per-step decrease; scaling makes 1 canonical
_ZERO = Fraction(0)

PASS = "pass"
FAIL = "fail"
VACUOUS_FACT = "vacuous-fact"
VACUOUS_UNSAT = "vacuous-unsat"


@dataclass(frozen=True)
class RuleCheck:
    """Result for one (rule, body atom) pair.

    ``decrease`` / ``body_floor`` hold the two minimisation outcomes: the
    exact minima, and points and rays over the variables of the reduced
    system, which are the rule's variables left once its equalities are
    substituted away (then any objective variable outside it).  The points
    are :func:`minimize`'s.  On failure ``counterexample`` assigns every
    rule variable a rational, witnessing the violated implication (a ground
    instance of the rule).
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


# a rule constraint with its equalities substituted away: the system of the
# inequalities left, and each eliminated variable with the equality that
# fixed it (over variables eliminated later or kept), in elimination order
_Reduced = tuple[LinearSystem, list[tuple[int, Row]]]

# an objective through the substitution, ``(coeffs, k, s)``: its value is
# ``(coeffs . x - k) / s`` at every solution, with ``s`` a positive int
_Objective = tuple[dict[int, int], "int | Fraction", int]


def _presolve(rule: Rule, domain: Domain) -> _Reduced | None:
    """Substitute each equality of ``rule.domain_rows(domain)`` away, first
    its variable with the smallest coefficient, and prune the inequalities
    left as the projection does (primitive form, one row per direction);
    None when a row reduces to ``0 = b`` with ``b != 0`` or to ``0 >= b``
    with ``b > 0``."""
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for coeffs, bound, rel in rule.domain_rows(domain):
        (eqs if rel == EQ else ineqs).append((coeffs, bound))
    steps: list[tuple[int, Row]] = []
    for k, eq in enumerate(eqs):
        coeffs, bound = eq
        if not coeffs:
            if bound:
                return None
            continue
        var, least = None, 0
        for v, c in coeffs.items():
            if var is None or abs(c) < least:
                var, least = v, abs(c)
        eqs[k + 1 :] = [_substitute(row, var, eq) if var in row[0] else row for row in eqs[k + 1 :]]
        ineqs = [_substitute(row, var, eq) if var in row[0] else row for row in ineqs]
        steps.append((var, eq))
    pruned = _prune(ineqs)
    if pruned is None:
        return None
    rows = tuple(pruned.values())
    variables = tuple(dict.fromkeys([v for coeffs, _ in rows for v in coeffs]))
    return LinearSystem(variables, rows), steps


class _Levels:
    """The integer mapping, the certificate times ``scale``, one predicate
    at a time: each predicate's vector is read from the certificate once, at
    its first atom, as its constant and its nonzero ``(position, coefficient)``
    pairs.  ModelError unless the certificate covers the atom's predicate at
    its arity (every atom of a program's predicate has one arity)."""

    def __init__(self, lm: LevelMapping, scale: int):
        self.lm = lm
        self.scale = scale
        self.vectors: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {}

    def of(self, atom: Atom) -> tuple[int, tuple[tuple[int, int], ...]]:
        vector = self.vectors.get(atom.pred)
        if vector is None:
            scale = self.scale
            ints = [c.numerator * (scale // c.denominator) for c in self.lm.vector(atom.pred, atom.arity)]
            vector = ints[0], tuple((i, c) for i, c in enumerate(ints[1:]) if c)
            self.vectors[atom.pred] = vector
        return vector


def _reduce(coeffs: dict[int, int], const: int, scale: int, steps) -> _Objective:
    """``(coeffs . x + const) / scale`` through the substitutions ``steps``."""
    row: Row = (coeffs, -const)
    for var, eq in steps:
        f = row[0].get(var)
        if f:
            a = abs(eq[0][var])
            scale *= a // gcd(a, f)
            row = _substitute(row, var, eq)
    return row[0], row[1], scale


def _shifted(out: LpOutcome, objective: _Objective) -> LpOutcome:
    """``out`` with the minimum of ``coeffs . x`` turned into the
    objective's own."""
    if out.status != OPTIMAL:
        return out
    _, k, s = objective
    num, den = out.value.numerator, out.value.denominator
    if den == s == 1:
        return LpOutcome(OPTIMAL, Fraction(num - k), out.point)
    return LpOutcome(OPTIMAL, Fraction(num - k * den, den * s), out.point)


def _violating_point(out: LpOutcome, objective: _Objective, threshold: Fraction):
    """A point of the reduced system where the objective drops below the
    threshold: the optimum, or, for an unbounded outcome, its point moved
    forward along its ray (never backward, which may leave the polyhedron)
    until the objective is at most ``threshold - 1``."""
    if out.status == OPTIMAL:
        return out.point
    coeffs, k, s = objective
    slope = sum(c * out.ray[v] for v, c in coeffs.items())
    value = sum((c * out.point[v] for v, c in coeffs.items()), -k)
    steps = max(Fraction(0), (value - s * (threshold - 1)) / -slope)
    return {v: out.point[v] + steps * out.ray[v] for v in out.point}


def _assignment(point: dict[int, Fraction], rule: Rule, steps) -> dict[int, Fraction]:
    """Every rule variable at ``point`` (0 where the point is silent), the
    eliminated ones back-substituted in reverse order."""
    full = dict.fromkeys(rule.variables, Fraction(0))
    full.update(point)
    for var, (coeffs, bound) in reversed(steps):
        rest = sum((c * full[v] for v, c in coeffs.items() if v != var), Fraction(0))
        full[var] = (bound - rest) / coeffs[var]
    return full


def _check_pair(
    rule: Rule,
    body_index: int,
    levels: _Levels,
    reduced: _Reduced | None,
) -> RuleCheck | None:
    """Both minimisations for one body atom under the integer mapping
    ``levels``, tested in order, the decrease first; the first that fails
    gives the note and the counterexample.  None when the rule constraint
    is unsatisfiable."""
    hconst, hcoeffs = levels.of(rule.head)
    body = rule.body[body_index]
    bconst, bcoeffs = levels.of(body)
    if reduced is None:
        return None
    system, steps = reduced
    # head - body: the atoms share no variable, so only the constants meet
    hargs, bargs = rule.head.args, body.args
    drop_coeffs = {hargs[i]: c for i, c in hcoeffs}
    drop_coeffs.update([(bargs[i], -c) for i, c in bcoeffs])
    drop = _reduce(drop_coeffs, hconst - bconst, levels.scale, steps)
    body_level = _reduce({bargs[i]: c for i, c in bcoeffs}, bconst, levels.scale, steps)

    decrease, body_floor = minimize(system, drop[0], body_level[0])
    if decrease.status == INFEASIBLE:
        return None
    decrease = _shifted(decrease, drop)
    body_floor = _shifted(body_floor, body_level)

    for name, outcome, objective, threshold in (
        ("head-to-body decrease", decrease, drop, EPSILON),
        ("body level", body_floor, body_level, _ZERO),
    ):
        # ``value >= threshold``, in ints (each threshold is an integer)
        if outcome.status == OPTIMAL and (
            outcome.value.numerator >= threshold.numerator * outcome.value.denominator
        ):
            continue
        note = (
            f"{name} is unbounded below"
            if outcome.status == UNBOUNDED
            else f"{name} bottoms out at {outcome.value}, needs >= {threshold}"
        )
        witness = _assignment(_violating_point(outcome, objective, threshold), rule, steps)
        return RuleCheck(rule.rule_id, body_index, FAIL, decrease, body_floor, witness, note)
    return RuleCheck(rule.rule_id, body_index, PASS, decrease, body_floor)


def verify(program: Program, lm: LevelMapping, domain: Domain = Q) -> VerifyReport:
    """Check that ``lm`` certifies every rule of ``program`` (binary or not:
    body atoms are checked independently).  Facts and rules with unsatisfiable
    constraints pass vacuously; any other rule needs both minima to clear
    their thresholds exactly."""
    levels = _Levels(lm, lcm(*[c.denominator for vec in lm.coeffs.values() for c in vec]))
    checks: list[RuleCheck] = []
    for rule in program.rules:
        reduced = _presolve(rule, domain)
        if rule.is_fact:
            sat = reduced is not None and minimize(reduced[0], {})[0].status != INFEASIBLE
            checks.append(RuleCheck(rule.rule_id, None, VACUOUS_FACT if sat else VACUOUS_UNSAT))
            continue
        for idx in range(len(rule.body)):
            check = _check_pair(rule, idx, levels, reduced)
            if check is None:
                # all pairs share the constraint, so this is the first pair
                checks.append(RuleCheck(rule.rule_id, None, VACUOUS_UNSAT))
                break
            checks.append(check)
    return VerifyReport(EPSILON, tuple(checks))
