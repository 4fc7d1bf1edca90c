"""Reference derivation step on ``linear.LinearConstraint`` stores (test
oracle).

A rewrite of the goal atom (one atom or none, as in ``almterm.derivation``)
renames the chosen rule apart, conjoins the current store, the link
equalities and the renamed rule constraint as ``LinearConstraint``s, decides
the conjunction with one exact LP (``feasible(normalize(...))``) and then
projects it onto the new goal's variables with ``project_constraints``.
``almterm.derivation`` decides the same rewrite with the projection alone;
the tests compare the two on traces, failure states and stores, and on the
exhaustive walk :func:`explore`, driven once by each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from almterm.derivation import FAILURE, FLOUNDERED, MAX_STEPS, SUCCESS
from almterm.lp import project_constraints
from almterm.model import EQ, GEQ, Atom, Domain, Program, Q, Rule, VariablePool
from helpers import feasible
from linear import (
    LinearConstraint,
    LinearExpr,
    constraint_row,
    equal,
    geq,
    normalize,
    row_constraint,
)


@dataclass(frozen=True)
class OracleState:
    goal: tuple[Atom, ...]
    store: tuple[LinearConstraint, ...] | None

    @property
    def failed(self) -> bool:
        return self.store is None


def rename_apart(rule: Rule, pool: VariablePool) -> Rule:
    """Fresh copy of a rule: fresh ids for the constraint, head and body
    variables, in that order."""
    mapping: dict[int, int] = {}

    def fresh(v: int) -> int:
        if v not in mapping:
            mapping[v] = pool.fresh(pool.name(v) + "'")
        return mapping[v]

    def ratom(a: Atom) -> Atom:
        return Atom(a.pred, tuple(fresh(v) for v in a.args))

    rows = tuple(
        ({fresh(v): c for v, c in coeffs.items()}, bound, rel) for coeffs, bound, rel in rule.rows
    )
    return Rule(rule.rule_id, ratom(rule.head), rows, tuple(ratom(a) for a in rule.body))


def store_satisfiable(constraints: Sequence[LinearConstraint], domain: Domain) -> bool:
    extra: set[int] = set()
    if domain.nonneg:
        for c in constraints:
            extra.update(c.variables())
    return feasible(normalize(constraints, extra_nonneg=extra))


def step(
    program: Program,
    state: OracleState,
    choose: Callable[[Sequence[Rule]], Rule],
    pool: VariablePool,
    domain: Domain = Q,
) -> OracleState:
    """One rewrite of the goal atom; the grown store is left uncompacted."""
    (atom,) = state.goal
    candidates = program.rules_for(atom.pred)
    if not candidates:
        raise LookupError(atom.pred)
    renamed = rename_apart(choose(candidates), pool)
    links = tuple(
        equal(LinearExpr.of_var(a), LinearExpr.of_var(h))
        for a, h in zip(atom.args, renamed.head.args)
    )
    grown = tuple(state.store) + links + tuple(row_constraint(*row) for row in renamed.rows)
    if not store_satisfiable(grown, domain):
        return OracleState((), None)
    return OracleState(renamed.body, grown)


def compact_store(state: OracleState, domain: Domain) -> OracleState:
    """Project a satisfiable store onto the variables the goal mentions.  A
    nonnegative domain restricts every store variable and every goal
    variable, so a goal variable the store leaves free keeps ``x >= 0``."""
    if state.failed:
        return state
    live = {v for a in state.goal for v in a.args}
    constraints = list(state.store)
    if domain.nonneg:
        seen = set(live)
        for c in constraints:
            seen.update(c.variables())
        constraints += [geq(LinearExpr.of_var(v), 0) for v in sorted(seen)]
    rows = [constraint_row(c) for c in constraints]
    eqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel == EQ]
    ineqs = [(coeffs, bound) for coeffs, bound, rel in rows if rel == GEQ]
    projected = project_constraints(eqs, ineqs, live)
    assert projected is not None, "only satisfiable stores are compacted"
    eqs, ineqs = projected
    store = [row_constraint(c, b, EQ) for c, b in eqs]
    store += [row_constraint(c, b, GEQ) for c, b in ineqs]
    return OracleState(state.goal, tuple(store))


def start(
    program: Program, pred: str, args: Sequence, pool: VariablePool, domain: Domain = Q
) -> OracleState:
    """The ground atom ``pred(args)`` with its arguments pinned in the store
    (the signature of ``almterm.derivation.ground_start``)."""
    vs = tuple(pool.fresh(f"{pred}_arg{i + 1}") for i in range(len(args)))
    store = tuple(equal(LinearExpr.of_var(v), a) for v, a in zip(vs, args))
    return OracleState((Atom(pred, vs),), store)


def explore(
    program: Program,
    pred: str,
    args: Sequence,
    depth: int,
    start: Callable = start,
    step: Callable = step,
    compact: Callable = compact_store,
    domain: Domain = Q,
) -> tuple[int, bool]:
    """Follow every rule choice up to ``depth`` rewrites, each state made by
    ``step`` then ``compact``: the longest complete derivation, and whether
    every branch finished within the depth.
    The defaults are this oracle's functions; ``almterm.derivation``'s
    ``ground_start`` and ``step`` (which compacts itself) drive the same walk."""
    pool = program.pool.clone()
    longest = 0
    complete = True
    stack = [(start(program, pred, args, pool, domain), 0)]
    while stack:
        state, used = stack.pop()
        if state.failed or not state.goal:
            longest = max(longest, used)
            continue
        if used >= depth:
            complete = False
            continue
        candidates = program.rules_for(state.goal[0].pred)
        if not candidates:
            longest = max(longest, used)
            continue
        for rule in candidates:
            nxt = step(program, state, lambda _rs, _r=rule: _r, pool, domain)
            stack.append((compact(nxt, domain), used + 1))
    return longest, complete


def run_ground(
    program: Program,
    pred: str,
    args: Sequence,
    max_steps: int,
    seed: int,
    domain: Domain,
) -> tuple[list[OracleState], int, str]:
    """The states, rewrite count and outcome of ``almterm.run_ground``."""
    rng = random.Random(seed)
    pool = program.pool.clone()
    state = start(program, pred, args, pool)
    states = [state]
    steps = 0
    while True:
        if state.failed:
            return states, steps, FAILURE
        if not state.goal:
            return states, steps, SUCCESS
        if steps >= max_steps:
            return states, steps, MAX_STEPS
        try:
            state = step(program, state, rng.choice, pool, domain)
        except LookupError:
            return states, steps, FLOUNDERED
        steps += 1
        state = compact_store(state, domain)
        states.append(state)
