"""Small-step execution of programs on ground start atoms.

States are ``<goal atoms || constraint store>``.  A rewrite picks one goal
atom, renames a rule of its predicate apart, equates the atom's arguments
with the renamed head, and conjoins the rule constraint.  The grown store is
existentially projected onto the variables the new goal mentions, and those
are then eliminated as well: full Fourier-Motzkin elimination is a decision
procedure over the rationals, so one projection both decides the rewrite and
yields the next store.  If either step finds a contradiction the state
collapses to the failure state ``<[] || false>`` (represented by a ``None``
store); otherwise the atom is replaced by the rule body and the projection
is the new store.  Only the start atom is ground; later bindings stay
symbolic in the store.

Projecting changes nothing observable (the projection has the same solutions
over the live variables, and rules are renamed apart so no future constraint
can mention an eliminated variable) but keeps stores from growing with
derivation length.  Stores are integer rows (:data:`almterm.lp.Row`), split
into equalities and inequalities; a rule holds its constraint as integer rows
from the parser on (``Rule.rows``), so renaming it apart only remaps variable
ids while the rows are split by relation.

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
    Row,
    feasible,
    feasible_point,
    fm_project,
    integer_system,
    minimize,
    project_constraints,
)
from .model import (
    EQ,
    GEQ,
    AlmtermError,
    Atom,
    ConstraintRow,
    Domain,
    LevelMapping,
    LinearConstraint,
    Program,
    Q,
    Rule,
    VariablePool,
    rat,
    row_constraint,
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
    """``goal`` atoms still to resolve; ``rows`` is the constraint store as
    integer equality and inequality rows, or None for the unsatisfiable
    marker."""

    goal: tuple[Atom, ...]
    rows: tuple[list[Row], list[Row]] | None

    @property
    def store(self) -> tuple[LinearConstraint, ...] | None:
        """The store as constraints, equalities first (built on each access)."""
        if self.rows is None:
            return None
        eqs, ineqs = self.rows
        return tuple([row_constraint(c, b, EQ) for c, b in eqs]) + tuple(
            [row_constraint(c, b, GEQ) for c, b in ineqs]
        )

    @property
    def failed(self) -> bool:
        return self.rows is None

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


def store_satisfiable(rows: tuple[list[Row], list[Row]]) -> bool:
    """Exact satisfiability of a store over the rationals: Fourier-Motzkin
    elimination of every variable.  Over the naturals this is the rational
    relaxation (sound for the length-bound check, since integer solutions are
    a subset of the rational ones)."""
    return project_constraints(*rows, ()) is not None


def step(
    program: Program,
    state: DerivationState,
    selection: SelectionRule,
    choose: Callable[[Sequence[Rule]], Rule],
    pool: VariablePool,
    domain: Domain = Q,
    rng: random.Random | None = None,
) -> DerivationState:
    """One rewrite of ``state``, with its store already compacted (see
    :func:`compact_store`).  ``choose`` picks among the rules of the selected
    atom's predicate (the semantics itself is nondeterministic).  Raises
    :class:`Floundered` when that predicate has no rules."""
    if state.failed or state.done:
        raise AlmtermError("cannot step a finished state")
    idx = selection.select(state.goal, rng)
    atom = state.goal[idx]
    candidates = program.rules_for(atom.pred)
    if not candidates:
        raise Floundered(f"no rule for predicate {atom.pred}")
    rule = choose(candidates)
    # rename apart: fresh ids in the rule's variable order
    fresh = {v: pool.fresh(pool.name(v) + "'") for v in rule.variables}
    store_eqs, store_ineqs = state.rows
    eqs = store_eqs + [({a: 1, fresh[h]: -1}, 0) for a, h in zip(atom.args, rule.head.args)]
    ineqs = list(store_ineqs)
    for coeffs, bound, rel in rule.rows:
        (eqs if rel == EQ else ineqs).append(({fresh[v]: c for v, c in coeffs.items()}, bound))
    body = tuple(Atom(a.pred, tuple([fresh[v] for v in a.args])) for a in rule.body)
    goal = state.goal[:idx] + body + state.goal[idx + 1 :]
    return compact_store(DerivationState(goal, (eqs, ineqs)), domain)


def compact_store(state: DerivationState, domain: Domain) -> DerivationState:
    """Project the store onto the variables the goal still mentions, and
    decide it by eliminating those as well (:func:`store_satisfiable`): the
    failure state if either finds a contradiction.  Domains with implicit
    nonnegativity restrict every store variable."""
    if state.rows is None:
        return state
    eqs, ineqs = state.rows
    if domain.nonneg:
        seen = {v for coeffs, _ in eqs + ineqs for v in coeffs}
        ineqs = ineqs + [({v: 1}, 0) for v in sorted(seen)]
    live = {v for a in state.goal for v in a.args}
    projected = project_constraints(eqs, ineqs, live)
    if projected is None or not store_satisfiable(projected):
        return DerivationState((), None)
    return DerivationState(state.goal, projected)


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
    pins = [({v: a.denominator}, a.numerator) for v, a in zip(vs, values)]
    return DerivationState((Atom(pred, vs),), (pins, []))


def state_from_query(rows: Sequence[ConstraintRow], atoms: Sequence[Atom]) -> DerivationState:
    """Initial state for a parsed query (:func:`almterm.parser.parse_query`)."""
    eqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel == EQ]
    ineqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel != EQ]
    return DerivationState(tuple(atoms), (eqs, ineqs))


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


# random objectives minimised over each rule's head projection
OBJECTIVES_PER_RULE = 4


def sample_starts(
    program: Program, domain: Domain, rng: random.Random
) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Ground start atoms: vertices of each rule's head-projected constraint
    polyhedron, plus random in-domain perturbations of them.

    Each rule is decided once: a head with arguments by :func:`feasible_point`
    on the projection (Fourier-Motzkin keeps satisfiability exactly), a head
    without by :func:`feasible`.  An unsatisfiable rule draws nothing from
    ``rng``."""
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
        system = integer_system(
            rule.rows, extra_nonneg=rule.nonneg_vars(domain), order_hint=head.args
        )
        if head.arity == 0:
            if feasible(system):
                add(head.pred, ())
            continue
        projected = fm_project(system, head.args)
        base = feasible_point(projected)
        if base is None:
            continue
        points = [base]
        objectives = [{v: rng.randint(-3, 3) for v in head.args} for _ in range(OBJECTIVES_PER_RULE)]
        for out in minimize(projected, *objectives):
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
            selection=SelectionRule(RANDOM),
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
            stack.append((nxt, used + 1))
    return longest, complete
