"""Small-step execution of binary programs on ground start atoms.

A state is ``<goal || constraint store>`` where the goal is one atom or none:
a derivation starts from one ground atom, and each rule of a binary program
has at most one body atom.  A rewrite renames a rule of the goal atom's
predicate apart: a fresh id for every rule variable, in the rule's variable
order, under the rule's variable names primed.  It then binds the renamed
head to the atom (each head argument becomes the atom's argument: head
arguments are distinct, so this is the polyhedron that equating them would
give) and conjoins the rule's rows over the domain (``Rule.domain_rows``,
with the ``x >= 0`` rows the rule's rows leave open on ``q+``, ``r+`` and
``n``, so every store implies the domain of every goal variable).  The grown
store is existentially projected onto the variables of the rule's body atom,
and the projection is decided by eliminating its variables as well, since
full Fourier-Motzkin elimination is a decision procedure over the rationals.
If either step finds a contradiction the state collapses to the failure
state ``<[] || false>`` (represented by a ``None`` store); otherwise the body
atom, or none for a fact, is the new goal and the projection is the new
store.  Only the start atom is ground; later bindings stay symbolic in the
store.

Projecting changes nothing observable (the projection has the same solutions
over the live variables, and rules are renamed apart so no future constraint
can mention an eliminated variable) but keeps stores from growing with
derivation length.  Stores are integer rows (:data:`almterm.lp.Row`), split
into equalities and inequalities; a rule's rows over the domain are integer
rows already, so renaming them apart only remaps variable ids while the rows
are split by relation.

Runs take one of two paths, which return the same rewrite count and outcome
for the same start, seed and budget.  The store path is the rewrite loop
above; :func:`run_ground` keeps every state it visits for its
:class:`Trace`.  :func:`check_length_bound` needs only the count and the
outcome, and every start it samples is ground, so it first compiles each
rule once: the rule's domain rows projected onto its head and body
arguments, each body argument solved by an equality as an affine function of
the head arguments, and guards over the head arguments that are left (a
binary clause read as a transition relation over its head and body
arguments, Podelski and Rybalchenko, VMCAI 2004).  A sampled run then carries
the goal atom as integer numerators over one common denominator and
evaluates each rewrite: the guards by cross-multiplied integer sums, the
body atom's values by the affine functions.  It needs no fresh ids, no store
and no projection.  A rule with a body argument that no equality solves (one
only an implicit equality fixes, or one left free) has no such plan, nor has
one that compiling finds unsatisfiable; a run that draws either pins fresh
variables to the goal atom's values and takes the store path from that
rewrite on.  Both paths are exact over the rationals (over ``n``, the
rational relaxation), and both draw the rule of each rewrite by one
``rng.choice`` among the goal predicate's rules.

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
from .verifier import VerifyReport, verify

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


def store_satisfiable(rows: tuple[list[Row], list[Row]]) -> bool:
    """Exact satisfiability of a store over the rationals: every variable
    eliminated (:func:`project_constraints` onto none), since full
    Fourier-Motzkin elimination is a decision procedure over the rationals.
    Over the naturals this is the rational relaxation (sound for the
    length-bound check, since integer solutions are a subset of the rational
    ones)."""
    return project_constraints(*rows, ()) is not None


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
    # rename apart: a fresh id for every rule variable, the head's included,
    # so that the body's ids are those of renaming the whole rule apart; then
    # bind each head argument to the atom's
    fresh = {v: pool.fresh(pool.name(v) + "'") for v in rule.variables}
    fresh.update(zip(rule.head.args, atom.args))
    store_eqs, store_ineqs = state.rows
    eqs = list(store_eqs)
    ineqs = list(store_ineqs)
    for coeffs, bound, rel in rule.domain_rows(domain):
        (eqs if rel == EQ else ineqs).append(({fresh[v]: c for v, c in coeffs.items()}, bound))
    goal = tuple([Atom(a.pred, tuple([fresh[v] for v in a.args])) for a in rule.body])
    return compact_store(goal, (eqs, ineqs))


def compact_store(goal: tuple[Atom, ...], rows: tuple[list[Row], list[Row]]) -> DerivationState:
    """The state of ``goal`` with the store ``rows`` projected onto the
    goal's variables and the projection decided (:func:`store_satisfiable`):
    the failure state if either finds a contradiction.  A nonnegative
    domain's ``x >= 0`` rows are among ``rows`` already or implied by them
    (:func:`step` conjoins ``Rule.domain_rows``)."""
    eqs, ineqs = rows
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
    return _pinned(pred, values, pool)


def _pinned(pred: str, values: Sequence[Fraction], pool: VariablePool) -> DerivationState:
    """The goal ``pred`` over fresh variables, each pinned to its value."""
    vs = tuple(pool.fresh(f"{pred}_arg{i + 1}") for i in range(len(values)))
    pins = [({v: a.denominator}, a.numerator) for v, a in zip(vs, values)]
    return DerivationState((Atom(pred, vs),), (pins, []))


def _rewrite_loop(
    program: Program,
    state: DerivationState,
    steps: int,
    max_steps: int,
    choose: Callable[[Sequence[Rule]], Rule],
    pool: VariablePool,
    domain: Domain,
    states: list[DerivationState] | None,
) -> tuple[int, str]:
    """The store path: rewrites of ``state``, ``steps`` rewrites into its
    run, with rules drawn by ``choose``, until success, failure,
    floundering, or the step budget runs out.  Appends each rewrite's state
    to ``states`` unless that is None; returns the rewrite count and the
    outcome."""
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
    pool = program.pool.clone()
    state = ground_start(program, pred, args, pool, domain)
    states = [state]
    choose = random.Random(seed).choice
    return Trace(states, *_rewrite_loop(program, state, 0, max_steps, choose, pool, domain, states))


# ---------------------------------------------------------------------------
# ground rewrites by evaluation
# ---------------------------------------------------------------------------

# A compiled rule over its head's argument positions: guards ``(terms, bound,
# eq)``, each the integer row ``sum(c * x[i] for i, c in terms) >= bound``
# (``= bound`` if ``eq``); the body atom's predicate, or None for a fact; and
# the body atom's arguments ``(terms, constant)``, each the affine function
# ``(sum(c * x[i] for i, c in terms) + constant) / den`` of one common ``den``.
Terms = tuple[tuple[int, int], ...]
Guard = tuple[Terms, int, bool]
Plan = tuple[tuple[Guard, ...], str | None, tuple[tuple[Terms, int], ...], int]


def _compile(rule: Rule, domain: Domain) -> Plan | None:
    """The rule as a transition from its head's arguments to its body's:
    its domain rows projected onto both atoms' arguments, each body argument
    solved by an equality (and substituted away everywhere else), and what is
    left as guards over the head's arguments (flatness keeps the head's and
    the body's arguments apart).  None when an equality solves no body
    argument, say one only an implicit equality fixes, or when the projection
    or a constant guard shows the rule unsatisfiable (then :func:`step`
    fails it on the store path)."""
    head = rule.head.args
    body = rule.body[0].args if rule.body else ()
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for coeffs, bound, rel in rule.domain_rows(domain):
        (eqs if rel == EQ else ineqs).append((coeffs, bound))
    projected = project_constraints(eqs, ineqs, {*head, *body})
    if projected is None:
        return None
    eqs, ineqs = projected
    solved: dict[int, Row] = {}
    for y in body:
        k = next((k for k, (coeffs, _) in enumerate(eqs) if y in coeffs), None)
        if k is None:
            return None
        eq = eqs.pop(k)
        eqs = [_substitute(row, y, eq) for row in eqs]
        ineqs = [_substitute(row, y, eq) for row in ineqs]
        solved = {v: _substitute(row, y, eq) for v, row in solved.items()}
        solved[y] = eq
    at = {v: i for i, v in enumerate(head)}
    guards: list[Guard] = []
    for rows, eq in ((eqs, True), (ineqs, False)):
        for coeffs, bound in rows:
            if not coeffs:
                if bound > 0 or eq and bound:
                    return None
                continue
            den = bound.denominator
            guards.append((tuple([(at[v], c * den) for v, c in coeffs.items()]), bound.numerator, eq))
    funcs = []
    for y in body:
        coeffs, bound = solved[y]
        a = coeffs[y]
        funcs.append(({at[v]: Fraction(-c, a) for v, c in coeffs.items() if v != y}, Fraction(bound) / a))
    den = math.lcm(*[f.denominator for terms, const in funcs for f in (const, *terms.values())])
    scaled = tuple(
        (tuple([(i, int(c * den)) for i, c in terms.items()]), int(const * den)) for terms, const in funcs
    )
    return tuple(guards), rule.body[0].pred if rule.body else None, scaled, den


def _evaluated_run(
    program: Program,
    plans: dict[str, list[tuple[Rule, Plan | None]]],
    pred: str,
    args: Sequence[int | Fraction],
    max_steps: int,
    seed: int,
    domain: Domain,
) -> tuple[int, str]:
    """The rewrite count and outcome of :func:`run_ground` from ``pred(args)``
    with ``seed`` and ``max_steps``, the goal atom carried as integer
    numerators over one common denominator and each rewrite evaluated by its
    rule's plan (:func:`_compile`).  A rule without a plan hands the run, at
    the goal atom's values, to the store path from that rewrite on; the rng
    draws once per rewrite on both paths."""
    choose = random.Random(seed).choice
    d = math.lcm(*[a.denominator for a in args])
    nums = [a.numerator * (d // a.denominator) for a in args]
    steps = 0
    while True:
        if steps >= max_steps:
            return steps, MAX_STEPS
        entries = plans.get(pred)
        if not entries:
            return steps, FLOUNDERED
        rule, plan = choose(entries)
        steps += 1
        if plan is None:
            pool = program.pool.clone()
            state = _pinned(pred, [Fraction(a, d) for a in nums], pool)
            state = step(program, state, lambda _: rule, pool, domain)
            return _rewrite_loop(program, state, steps, max_steps, choose, pool, domain, None)
        guards, pred, funcs, den = plan
        for terms, bound, eq in guards:
            s = -bound * d
            for i, c in terms:
                s += c * nums[i]
            if s < 0 or eq and s:
                return steps, FAILURE
        if pred is None:
            return steps, SUCCESS
        body = []
        for terms, const in funcs:
            s = const * d
            for i, c in terms:
                s += c * nums[i]
            body.append(s)
        if den != 1:
            d *= den
            g = math.gcd(d, *body)
            d //= g
            body = [a // g for a in body]
        nums = body


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
    verified: VerifyReport | None = None,
) -> BoundReport:
    """Run ``samples`` seeded derivations from sampled ground atoms and check
    each against the measure-derived budget.  Requires a binary program and a
    mapping that the verifier accepts: checked up front, unless ``verified``
    is a passed report of ``verify(program, lm, domain)`` already made.
    ``step_cap`` truncates individual runs early; truncated runs are reported
    as such, not as violations.

    Each rule is compiled once per call (:func:`_compile`), and each run
    evaluates its rewrites on the ground atom's values; a run that draws a
    rule without a plan takes the store path from that rewrite on.  Either
    way a run takes the rewrites and ends in the outcome of
    :func:`run_ground` from its start with its seed and budget."""
    if not program.is_binary():
        raise AlmtermError("length-bound checking expects a binary program")
    if verified is None:
        verified = verify(program, lm, domain)
    if not verified.passed:
        raise AlmtermError("level mapping does not certify this program")
    rng = random.Random(seed)
    starts = sample_starts(program, domain, rng)
    if not starts:
        return BoundReport(())
    plans: dict[str, list[tuple[Rule, Plan | None]]] = {}
    for rule in program.rules:
        plans.setdefault(rule.head.pred, []).append((rule, _compile(rule, domain)))
    runs: list[BoundRun] = []
    for k in range(samples):
        pred, args = starts[k % len(starts)]
        level = lm.level_of(pred, args)
        budget = lm.bound_for(pred, args)
        limit = budget + 1 if step_cap is None else min(budget + 1, step_cap)
        # the run of run_ground with this start, seed and cap, its states
        # dropped as they come
        outcome = _evaluated_run(program, plans, pred, args, limit, seed * 7919 + k, domain)
        runs.append(BoundRun(pred, args, level, budget, *outcome))
    return BoundReport(tuple(runs))
