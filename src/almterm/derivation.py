"""Small-step execution of binary programs on ground start atoms.

A state is ``<goal || constraint store>`` where the goal is one atom or none:
a derivation starts from one ground atom, and each rule of a binary program
has at most one body atom.  A rewrite renames a rule of the goal atom's
predicate apart: one block of fresh ids, drawn in the rule's variable order
by one pool call (:meth:`VariablePool.fresh_block`), under the rule's
variable names primed.  It then binds the renamed head to the atom (each head
argument becomes the atom's argument: head arguments are distinct, so this is
the polyhedron that equating them would give) and conjoins the rule
constraint.  The grown store is existentially projected onto the variables of
the rule's body atom, and the projection is decided without a second
projection where its form allows: equalities that each pin a variable of
their own are put into the inequalities (integer cross-multiplication) and
dropped, which decides a ground store on every domain, the ``x >= 0`` rows of
``q+``, ``r+`` and ``n`` included; a store in which every row left has a
variable that no other row mentions is satisfiable (each row is met by moving
that variable); any other store is decided by eliminating its variables as
well, since full Fourier-Motzkin elimination is a decision procedure over the
rationals.  If either step finds a contradiction the state collapses to the
failure state ``<[] || false>`` (represented by a ``None`` store); otherwise
the body atom, or none for a fact, is the new goal and the projection is the
new store.  Only the start atom is ground; later bindings stay symbolic in
the store.

Projecting changes nothing observable (the projection has the same solutions
over the live variables, and rules are renamed apart so no future constraint
can mention an eliminated variable) but keeps stores from growing with
derivation length.  Stores are integer rows (:data:`almterm.lp.Row`), split
into equalities and inequalities; a rule holds its constraint as integer rows
from the parser on (``Rule.rows``), so renaming it apart only remaps variable
ids while the rows are split by relation.

One rewrite loop serves both callers and returns a seeded run's rewrite
count and outcome.  :func:`run_ground` has it keep every state for its
:class:`Trace`; :func:`check_length_bound` needs only the count and the
outcome, so its sampled runs keep no states.

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
    _substitute,
    feasible_point,
    fm_project,
    integer_system,
    minimize,
    project_constraints,
)
from .model import (
    EQ,
    AlmtermError,
    Atom,
    Domain,
    LevelMapping,
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


class Floundered(AlmtermError):
    """Raised when the goal atom's predicate has no rules at all."""


@dataclass(frozen=True)
class DerivationState:
    """``goal`` is the atom still to resolve, as a tuple of one atom, or
    empty once resolved; ``rows`` is the constraint store as integer
    equality and inequality rows, or None for the unsatisfiable marker."""

    goal: tuple[Atom, ...]
    rows: tuple[list[Row], list[Row]] | None

    @property
    def failed(self) -> bool:
        return self.rows is None

    @property
    def done(self) -> bool:
        return not self.goal


def store_satisfiable(rows: tuple[list[Row], list[Row]]) -> bool:
    """Exact satisfiability of a store over the rationals.  When the
    equalities each pin a variable of their own (one variable, a different
    one each), the pins are put into the inequalities and dropped, since each
    is met by its variable's value: a row left without variables is decided
    by its bound.  Then, when every row left has a variable of its own (one
    no other row mentions), each row is met by moving that variable alone, so
    the store is satisfiable; otherwise Fourier-Motzkin elimination of every
    variable decides it.  Over the naturals this is the rational relaxation
    (sound for the length-bound check, since integer solutions are a subset
    of the rational ones)."""
    eqs, ineqs = rows
    pins: dict[int, Row] = {}
    for eq in eqs:
        if len(eq[0]) != 1:
            break
        (v,) = eq[0]
        if v in pins:
            break
        pins[v] = eq
    else:
        eqs = []
        left = []
        for row in ineqs:
            for v in row[0].keys() & pins.keys():
                row = _substitute(row, v, pins[v])
            if row[0]:
                left.append(row)
            elif row[1] > 0:
                return False
        if not left:
            return True
        ineqs = left
    every = eqs + ineqs
    seen: set[int] = set()
    shared: set[int] = set()
    for coeffs, _ in every:
        for v in coeffs:
            (shared if v in seen else seen).add(v)
    if all(not coeffs.keys() <= shared for coeffs, _ in every):
        return True
    return project_constraints(eqs, ineqs, ()) is not None


def step(
    program: Program,
    state: DerivationState,
    choose: Callable[[Sequence[Rule]], Rule],
    pool: VariablePool,
    domain: Domain = Q,
) -> DerivationState:
    """One rewrite of ``state``'s goal atom, with the new store already
    compacted (see :func:`compact_store`).  ``choose`` picks among the rules
    of the atom's predicate (the semantics itself is nondeterministic).  The
    new goal is the chosen rule's body atom, or none for a fact; a rule with
    more body atoms raises :class:`AlmtermError`, since derivations expect a
    binary program.  Raises :class:`Floundered` when that predicate has no
    rules."""
    if state.rows is None or not state.goal:
        raise AlmtermError("cannot step a finished state")
    (atom,) = state.goal
    candidates = program.rules_for(atom.pred)
    if not candidates:
        raise Floundered(f"no rule for predicate {atom.pred}")
    rule = choose(candidates)
    if len(rule.body) > 1:
        raise AlmtermError(f"rule {rule.rule_id} has several body atoms; derivations expect a binary program")
    # rename apart: one block of fresh ids in the rule's variable order, the
    # head's included, so that the body's ids are those of renaming the whole
    # rule apart; then bind each head argument to the atom's
    names = [pool.name(v) + "'" for v in rule.variables]
    first = pool.fresh_block(names)
    fresh = dict(zip(rule.variables, range(first, first + len(names))))
    fresh.update(zip(rule.head.args, atom.args))
    store_eqs, store_ineqs = state.rows
    eqs = list(store_eqs)
    ineqs = list(store_ineqs)
    for coeffs, bound, rel in rule.rows:
        (eqs if rel == EQ else ineqs).append(({fresh[v]: c for v, c in coeffs.items()}, bound))
    goal = tuple([Atom(a.pred, tuple([fresh[v] for v in a.args])) for a in rule.body])
    return compact_store(goal, (eqs, ineqs), domain)


def compact_store(
    goal: tuple[Atom, ...], rows: tuple[list[Row], list[Row]], domain: Domain
) -> DerivationState:
    """The state of ``goal`` with the store ``rows`` projected onto the
    goal's variables and the projection decided (:func:`store_satisfiable`):
    the failure state if either finds a contradiction.  Domains with
    implicit nonnegativity restrict every store variable."""
    eqs, ineqs = rows
    if domain.nonneg:
        seen = {v for coeffs, _ in eqs + ineqs for v in coeffs}
        ineqs = ineqs + [({v: 1}, 0) for v in sorted(seen)]
    live = set(goal[0].args) if goal else set()
    projected = project_constraints(eqs, ineqs, live)
    if projected is None or not store_satisfiable(projected):
        return DerivationState((), None)
    return DerivationState(goal, projected)


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


def _rewrite_loop(
    program: Program,
    pred: str,
    args: Sequence[int | Fraction],
    max_steps: int,
    seed: int,
    domain: Domain,
    states: list[DerivationState] | None,
) -> tuple[int, str]:
    """The rewrite loop of :func:`run_ground` and :func:`check_length_bound`:
    one derivation from the ground atom ``pred(args)`` with seeded random
    rule choice, until success, failure, floundering, or the step budget
    runs out.  Appends the start state and each rewrite's to ``states``
    unless that is None; returns the rewrite count and the outcome."""
    rng = random.Random(seed)
    pool = program.pool.clone()
    state = ground_start(program, pred, args, pool, domain)
    if states is not None:
        states.append(state)
    choose = rng.choice
    steps = 0
    while True:
        if state.rows is None:
            return steps, FAILURE
        if not state.goal:
            return steps, SUCCESS
        if steps >= max_steps:
            return steps, MAX_STEPS
        try:
            state = step(program, state, choose, pool, domain)
        except Floundered:
            return steps, FLOUNDERED
        steps += 1
        if states is not None:
            states.append(state)


def run_ground(
    program: Program,
    pred: str,
    args: Sequence[int | Fraction],
    max_steps: int = 200,
    seed: int = 0,
    domain: Domain = Q,
) -> Trace:
    """Run one derivation of a binary program (checked up front) from a
    ground atom with seeded random rule choice, until success, failure,
    floundering, or the step budget runs out; the trace keeps every visited
    state."""
    if not program.is_binary():
        raise AlmtermError("derivations expect a binary program")
    states: list[DerivationState] = []
    return Trace(states, *_rewrite_loop(program, pred, args, max_steps, seed, domain, states))


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

    Each rule is decided once, by :func:`feasible_point` on its projection
    onto the head's arguments (Fourier-Motzkin keeps satisfiability exactly);
    an arity-0 head's projection has no variables, so it is either empty or
    ``0 >= 1``.  An unsatisfiable rule, and a head without arguments, draws
    nothing from ``rng``."""
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
        system = integer_system(rule.domain_rows(domain), order_hint=head.args)
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
        # the run of run_ground with this start, seed and cap, its states
        # dropped as they come
        outcome = _rewrite_loop(program, pred, args, limit, seed * 7919 + k, domain, None)
        runs.append(BoundRun(pred, args, level, budget, *outcome))
    return BoundReport(tuple(runs))
