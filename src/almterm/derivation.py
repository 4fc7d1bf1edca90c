"""Small-step execution of programs on ground start atoms.

States are ``<goal atoms || constraint store>``.  A rewrite picks one goal
atom, renames a rule of its predicate apart, equates the atom's arguments
with the renamed head, and conjoins the rule constraint: if the grown store
is satisfiable the atom is replaced by the rule body, otherwise the state
collapses to the failure state ``<[] || false>`` (represented by a ``None``
store).  Only the start atom is ground; later bindings stay symbolic in the
store, which is all the satisfiability checks need.

Between rewrites the runner existentially projects the store onto the
variables the goal still mentions.  That changes nothing observable (the
projection has the same solutions over the live variables, and rules are
renamed apart so no future constraint can mention an eliminated variable)
but keeps stores from growing with derivation length.

Step counting: every rewrite application counts, including the final failing
or fact-resolving one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .lp import (
    OPTIMAL,
    constraint_rows,
    feasible,
    feasible_point,
    fm_project,
    minimize,
    normalize,
    project_constraints,
    row_constraints,
)
from .model import (
    AlmtermError,
    Atom,
    Domain,
    LevelMapping,
    LinearConstraint,
    LinearExpr,
    Program,
    Q,
    Rule,
    VariablePool,
    rat,
)
from .verifier import verify

SUCCESS = "success"
FAILURE = "failure"
FLOUNDERED = "floundered"
MAX_STEPS = "max-steps"

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
RANDOM = "random"


class Floundered(AlmtermError):
    """Raised when the selected atom's predicate has no rules at all."""


@dataclass(frozen=True)
class DerivationState:
    """``goal`` atoms still to resolve; ``store`` is the constraint
    conjunction, or None for the unsatisfiable marker."""

    goal: tuple[Atom, ...]
    store: tuple[LinearConstraint, ...] | None

    @property
    def failed(self) -> bool:
        return self.store is None

    @property
    def done(self) -> bool:
        return not self.goal


@dataclass(frozen=True)
class SelectionRule:
    """Which goal atom gets rewritten next; deterministic given the seed."""

    strategy: str = LEFTMOST
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in (LEFTMOST, RIGHTMOST, RANDOM):
            raise AlmtermError(f"unknown selection strategy {self.strategy!r}")

    def select(self, goal: Sequence[Atom], rng: random.Random | None = None) -> int:
        if self.strategy == LEFTMOST:
            return 0
        if self.strategy == RIGHTMOST:
            return len(goal) - 1
        rng = rng or random.Random(self.seed)
        return rng.randrange(len(goal))


def rename_apart(rule: Rule, pool: VariablePool) -> Rule:
    """Fresh copy of a rule; new ids can never collide with state variables."""
    mapping: dict[int, int] = {}

    def fresh(v: int) -> int:
        if v not in mapping:
            mapping[v] = pool.fresh(pool.name(v) + "'")
        return mapping[v]

    def ratom(a: Atom) -> Atom:
        return Atom(a.pred, tuple(fresh(v) for v in a.args))

    def rexpr(e: LinearExpr) -> LinearExpr:
        return LinearExpr({fresh(v): c for v, c in e.coeffs.items()}, e.const)

    constraints = tuple(
        LinearConstraint(rexpr(c.lhs), c.rel, rexpr(c.rhs)) for c in rule.constraints
    )
    return Rule(rule.rule_id, ratom(rule.head), constraints, tuple(ratom(a) for a in rule.body))


def store_satisfiable(
    constraints: Sequence[LinearConstraint], domain: Domain
) -> bool:
    """Exact satisfiability of a store.  Domains with implicit nonnegativity
    restrict every store variable; over the naturals this is the rational
    relaxation (sound for the length-bound check, since integer solutions are
    a subset of the rational ones)."""
    extra: set[int] = set()
    if domain.nonneg:
        for c in constraints:
            extra.update(c.variables())
    return feasible(normalize(constraints, extra_nonneg=extra))


def step(
    program: Program,
    state: DerivationState,
    selection: SelectionRule,
    choose: Callable[[Sequence[Rule]], Rule],
    pool: VariablePool,
    domain: Domain = Q,
    rng: random.Random | None = None,
) -> DerivationState:
    """One rewrite of ``state``.  ``choose`` picks among the rules of the
    selected atom's predicate (the semantics itself is nondeterministic).
    Raises :class:`Floundered` when that predicate has no rules."""
    if state.failed or state.done:
        raise AlmtermError("cannot step a finished state")
    idx = selection.select(state.goal, rng)
    atom = state.goal[idx]
    candidates = program.rules_for(atom.pred)
    if not candidates:
        raise Floundered(f"no rule for predicate {atom.pred}")
    renamed = rename_apart(choose(candidates), pool)

    links = tuple(
        LinearConstraint(LinearExpr.of_var(a), "=", LinearExpr.of_var(h))
        for a, h in zip(atom.args, renamed.head.args)
    )
    grown = tuple(state.store) + links + renamed.constraints
    if not store_satisfiable(grown, domain):
        return DerivationState((), None)
    goal = state.goal[:idx] + renamed.body + state.goal[idx + 1 :]
    return DerivationState(goal, grown)


def compact_store(state: DerivationState, domain: Domain) -> DerivationState:
    """Project the store onto the variables the goal still mentions."""
    if state.failed or state.store is None:
        return state
    live: set[int] = set()
    for a in state.goal:
        live.update(a.args)
    constraints = list(state.store)
    if domain.nonneg:
        seen: set[int] = set()
        for c in constraints:
            seen.update(c.variables())
        constraints += [
            LinearConstraint(LinearExpr.of_var(v), ">=", LinearExpr.of_const(0))
            for v in sorted(seen)
        ]
    projected = project_constraints(*constraint_rows(constraints), live)
    assert projected is not None, "only satisfiable stores are compacted"
    return DerivationState(state.goal, tuple(row_constraints(*projected)))


@dataclass
class Trace:
    """One derivation: the visited states, the rewrite count, and how the
    run ended (success / failure / floundered / max-steps)."""

    states: list[DerivationState]
    steps: int
    outcome: str

    @property
    def terminated(self) -> bool:
        return self.outcome != MAX_STEPS


def ground_start(
    program: Program,
    pred: str,
    args: Sequence[int | Fraction],
    pool: VariablePool,
    domain: Domain = Q,
) -> DerivationState:
    """State for a ground atom: fresh variables pinned to the argument
    values (equivalent to writing the numbers into the atom directly).
    Arguments must lie within the domain's carrier."""
    arity = program.arities.get(pred)
    if arity is None:
        raise AlmtermError(f"unknown predicate {pred}")
    if arity != len(args):
        raise AlmtermError(f"{pred} expects {arity} arguments, got {len(args)}")
    values = [rat(a) for a in args]
    for value in values:
        if domain.nonneg and value < 0:
            raise AlmtermError(f"{value} is outside domain {domain.tag}")
        if domain.integral and value.denominator != 1:
            raise AlmtermError(f"{value} is not integral, required over {domain.tag}")
    vs = tuple(pool.fresh(f"{pred}_arg{i + 1}") for i in range(arity))
    store = tuple(
        LinearConstraint(LinearExpr.of_var(v), "=", LinearExpr.of_const(a))
        for v, a in zip(vs, values)
    )
    return DerivationState((Atom(pred, vs),), store)


def state_from_query(
    constraints: Sequence[LinearConstraint], atoms: Sequence[Atom]
) -> DerivationState:
    """Initial state for a parsed query."""
    return DerivationState(tuple(atoms), tuple(constraints))


def run_ground(
    program: Program,
    pred: str,
    args: Sequence[int | Fraction],
    selection: SelectionRule | None = None,
    max_steps: int = 200,
    seed: int = 0,
    domain: Domain = Q,
) -> Trace:
    """Run one derivation from a ground atom with seeded random rule choice,
    until success, failure, floundering, or the step budget runs out."""
    rng = random.Random(seed)
    selection = selection or SelectionRule(LEFTMOST)
    pool = program.pool.clone()
    state = ground_start(program, pred, args, pool, domain)
    states = [state]
    steps = 0
    while True:
        if state.failed:
            return Trace(states, steps, FAILURE)
        if state.done:
            return Trace(states, steps, SUCCESS)
        if steps >= max_steps:
            return Trace(states, steps, MAX_STEPS)
        try:
            state = step(
                program, state, selection, rng.choice, pool, domain, rng
            )
        except Floundered:
            return Trace(states, steps, FLOUNDERED)
        steps += 1
        state = compact_store(state, domain)
        states.append(state)


# ---------------------------------------------------------------------------
# sampling ground starts and checking the derivation-length bound
# ---------------------------------------------------------------------------


def _in_domain(value: Fraction, domain: Domain) -> Fraction:
    if domain.integral:
        value = Fraction(math.floor(value))
    if domain.nonneg and value < 0:
        value = Fraction(0)
    return value


def sample_starts(
    program: Program, domain: Domain, rng: random.Random, per_rule: int = 4
) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Ground start atoms: vertices of each rule's head-projected constraint
    polyhedron, plus random in-domain perturbations of them."""
    starts: list[tuple[str, tuple[Fraction, ...]]] = []
    seen: set[tuple[str, tuple[Fraction, ...]]] = set()

    def add(pred: str, args: tuple[Fraction, ...]) -> None:
        args = tuple(_in_domain(a, domain) for a in args)
        key = (pred, args)
        if key not in seen:
            seen.add(key)
            starts.append(key)

    for rule in program.rules:
        head = rule.head
        extra = tuple(sorted(rule.all_vars())) if domain.nonneg else ()
        system = normalize(rule.constraints, extra_nonneg=extra, order_hint=head.args)
        if not feasible(system):
            continue
        if head.arity == 0:
            add(head.pred, ())
            continue
        projected = fm_project(system, head.args, lp_minimize=False)
        points: list[dict[int, Fraction]] = []
        base = feasible_point(projected)
        if base is not None:
            points.append(base)
        for _ in range(per_rule):
            objective = LinearExpr(
                {v: Fraction(rng.randint(-3, 3)) for v in head.args}
            )
            out = minimize(projected, objective)
            if out.status == OPTIMAL:
                points.append(out.point)
        for pt in points:
            args = tuple(pt.get(v, Fraction(0)) for v in head.args)
            add(head.pred, args)
            jitter = tuple(
                a + Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for a in args
            )
            add(head.pred, jitter)
    return starts


@dataclass(frozen=True)
class BoundRun:
    pred: str
    args: tuple[Fraction, ...]
    level: Fraction
    bound: int
    steps: int
    outcome: str

    @property
    def violated(self) -> bool:
        return self.steps > self.bound

    @property
    def truncated(self) -> bool:
        # hit an external step cap before the budget itself was exceeded
        return self.outcome == MAX_STEPS and self.steps <= self.bound


@dataclass(frozen=True)
class BoundReport:
    """Result of the derivation-length experiment.

    Each run from a ground atom with measure L must finish within
    max(0, floor(L)) + 1 rewrites; the +1 pays for the final failing or
    fact-resolving step, which the measure argument does not cover.
    """

    runs: tuple[BoundRun, ...]
    counting = "rewrite applications, including the final failing or fact step"

    @property
    def violations(self) -> tuple[BoundRun, ...]:
        return tuple(r for r in self.runs if r.violated)

    @property
    def truncated(self) -> tuple[BoundRun, ...]:
        return tuple(r for r in self.runs if r.truncated)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def max_steps_observed(self) -> int:
        return max((r.steps for r in self.runs), default=0)


def check_length_bound(
    program: Program,
    lm: LevelMapping,
    samples: int = 100,
    seed: int = 0,
    domain: Domain = Q,
    step_cap: int | None = None,
) -> BoundReport:
    """Run ``samples`` seeded derivations from sampled ground atoms and check
    each against the measure-derived budget.  Requires a binary program and a
    mapping that the verifier accepts (checked up front).  ``step_cap``
    truncates individual runs early; truncated runs are reported as such, not
    as violations."""
    if not program.is_binary():
        raise AlmtermError("length-bound checking expects a binary program")
    if not verify(program, lm, domain).passed:
        raise AlmtermError("level mapping does not certify this program")
    rng = random.Random(seed)
    starts = sample_starts(program, domain, rng)
    if not starts:
        return BoundReport(())
    runs: list[BoundRun] = []
    for k in range(samples):
        pred, args = starts[k % len(starts)]
        level = lm.level_of(pred, args)
        budget = lm.bound_for(pred, args)
        limit = budget + 1 if step_cap is None else min(budget + 1, step_cap)
        trace = run_ground(
            program,
            pred,
            args,
            selection=SelectionRule(RANDOM, seed=seed + k),
            max_steps=limit,
            seed=seed * 7919 + k,
            domain=domain,
        )
        runs.append(BoundRun(pred, args, level, budget, trace.steps, trace.outcome))
    return BoundReport(tuple(runs))


def explore(
    program: Program,
    pred: str,
    args: Sequence[int | Fraction],
    depth: int,
    domain: Domain = Q,
) -> tuple[int, bool]:
    """Exhaustively follow every rule choice (leftmost selection) up to
    ``depth`` rewrites.  Returns (longest complete derivation, whether every
    branch finished within the depth).  Meant for small programs."""
    pool = program.pool.clone()
    start = ground_start(program, pred, args, pool, domain)
    longest = 0
    complete = True
    stack: list[tuple[DerivationState, int]] = [(start, 0)]
    sel = SelectionRule(LEFTMOST)
    while stack:
        state, used = stack.pop()
        if state.failed or state.done:
            longest = max(longest, used)
            continue
        if used >= depth:
            complete = False
            continue
        atom = state.goal[0]
        candidates = program.rules_for(atom.pred)
        if not candidates:
            longest = max(longest, used)
            continue
        for rule in candidates:
            nxt = step(program, state, sel, lambda _rs, _r=rule: _r, pool, domain)
            stack.append((compact_store(nxt, domain), used + 1))
    return longest, complete
