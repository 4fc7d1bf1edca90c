"""Decide whether a program admits an affine level mapping that certifies
termination, and extract one when it does.

For each binary rule ``p(xs) :- c, q(ys)`` with satisfiable constraint, the
two required implications

    c  implies  |p(xs)| >= 1 + |q(ys)|        (strict decrease)
    c  implies  |q(ys)| >= 0                  (body stays nonnegative)

are turned into linear systems over fresh row multipliers and the
unknown level coefficients: an implication ``c -> e >= t`` holds exactly when
some nonnegative combination of the rows of ``c`` (written as ``A x >= b``)
produces ``e`` with combined bound at least ``t``.  The multipliers are local
to a rule, so the conjunction of all systems is satisfiable iff each rule's
system can be satisfied at a common choice of level coefficients; the decider
therefore projects every per-rule system onto the coefficient variables and
solves the (low-dimensional) conjunction of the projections.  That keeps the
solve linear in the number of rules.

Both systems of a rule are instances of its dual cone
``K = {(z, s) : some y has A^T y = z and b.y >= s}``, with one multiplier
``y_i`` per row of ``c`` over the domain (``Rule.domain_rows``, the domain's
``x >= 0`` rows included): ``y_i >= 0`` for a ``>=`` row and ``y_i`` free for
an equality.  By the affine Farkas lemma ``c -> e.x >= t`` holds iff
``(e, t)`` lies in ``K`` (the generator view of the encoding: Bagnara,
Mesnard, Pescetti and Zaffanella, Inf. Comput. 2012).  So ``K`` is built
straight from the integer rows the rule holds, projected onto ``(z, s)``
once (its rows are homogeneous, so this is pure integer arithmetic; a free
multiplier starts out in balance equalities and the bound row only, so the
projection's equality substitution removes it whenever a balance row picks
it), and the projection is instantiated twice.
``z`` ranges over the head's and the body atom's arguments only, the
variables the implications read (both put ``z = 0`` at every other rule
variable, so the cone is built with that already fixed), and the level
constants ``c0`` enter through ``s``: the decrease takes ``z`` the head's
argument coefficients minus the body's and ``s = 1 - c0(head) + c0(body)``,
the body level takes ``z`` the body's argument coefficients and
``s = -c0(body)``.  By Farkas' lemma ``c`` is unsatisfiable iff ``(0, 1)``
lies in ``K``, so the same projection tests the rule and no LP runs for it.
A fact is tested by its cone too, projected onto ``s`` alone, so the final
solve is the one LP :func:`decide` runs.

The children of a split rule share their source rule's constraint, so each
child's cone is one cone over the head's and every body atom's arguments,
restricted to ``z = 0`` on its siblings' columns (the ``z`` columns are kept,
never eliminated, so restricting after the projection is restricting
before it).  :func:`assemble` projects that joint cone once and tests the
constraint once when the rule's equalities give every body argument as an
affine function of the head's (:func:`solved`): the joint cone is then the
graph of an affine map and has no more rows than any child's.  Without that
guard independent body arguments multiply its rows (``2^k + 1`` for ``k``
boxed ones, against 3 per child), so each child is projected on its own.

The explicit multiplier systems are never built; the test suite keeps them,
over a pinned ``one`` column, as the specification the cones are checked
against.

The verifier module re-checks any extracted mapping through plain primal
minimisation, giving an independent second encoding of the same implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby

from .binarize import binarize
from .lp import (
    LinearSystem,
    Row,
    deduplicate,
    drop_redundant,
    feasible_point,
    project_constraints,
)
from .model import (
    EQ,
    AlmtermError,
    Domain,
    LevelMapping,
    ModelError,
    Program,
    Rule,
    VariablePool,
)

ALM_RECURRENT = "alm-recurrent"
NOT_ALM_RECURRENT = "not-alm-recurrent"
SOUND_YES = "sound-yes"
UNKNOWN = "unknown"

SKIP_FACT = "fact"
SKIP_UNSAT = "unsat"

ZERO = Fraction(0)


@dataclass(frozen=True)
class RuleCone:
    """The dual cone of one analysed binary rule, projected onto ``(z, s)``.

    ``columns`` counts the head's and the body atom's arguments (none for a
    fact): ``z_j`` (id ``j``) stands for the ``j``-th of them, head first, and
    ``s`` for id ``columns``.  The rule's other variables have no column.  A
    split child whose cone is shared (see :func:`assemble`) has the joint
    cone's columns instead: the head's arguments, then every body atom's of
    the source rule, in body order; its siblings' ``rows`` are the same
    tuple.  ``rows`` are ``>=`` rows (a projected equality gives two).
    ``decrease`` and ``nonneg`` give, per column and then for ``s``, the
    coefficient-variable combination it takes in the two implications
    (``{}``, so ``z = 0``, on a sibling's column); the constant part of ``s``
    is the argument of :meth:`instantiate`.
    """

    rule: Rule
    columns: int
    rows: tuple[Row, ...]
    decrease: tuple[dict[int, int], ...]
    nonneg: tuple[dict[int, int], ...]

    @property
    def satisfiable(self) -> bool:
        """Farkas: the rule constraint is unsatisfiable iff ``(z, s) = (0, 1)``
        lies in the cone, i.e. no row has a negative ``s`` entry."""
        return any(coeffs.get(self.columns, 0) < 0 for coeffs, _ in self.rows)

    def instantiate(self, layout: tuple[dict[int, int], ...], s: int) -> list[Row]:
        """The rows with ``z := layout`` and ``s := layout[columns] + s``,
        over the coefficient variables; ``[0 >= 1]`` when the rule admits no
        coefficients."""
        out: list[Row] = []
        for coeffs, _ in self.rows:
            row: dict[int, int] = {}
            for z, c in coeffs.items():
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

    @property
    def num_rows(self) -> int:
        """Rows of the test suite's explicit multiplier systems, two per
        analysed rule, counted without building them.  Their primal pins a
        ``one`` column to 1 and writes the pin and every equality as two
        ``>=`` rows, so each system has a balance row per rule variable and
        for ``one``, the bound row, and a nonnegativity row per primal row:
        the cone's multipliers (one per row of ``Rule.domain_rows``), one more
        per equality, and two for the pin."""
        equalities = sum(rel == EQ for cone in self.cones for _, _, rel in cone.rule.rows)
        rows = sum(len(c.rule.variables) + len(c.rule.domain_rows(self.domain)) + 4 for c in self.cones)
        return 2 * (rows + equalities)

    def coeff_variables(self) -> tuple[int, ...]:
        return tuple(v for ids in self.coeff_ids.values() for v in ids)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the decision procedure, as :func:`decide` builds it.

    ``witness`` is present exactly on affirmative kinds.  ``coefficients`` is
    the deduplicated coefficient system the final solve decided, kept on
    negative verdicts too.  Over the naturals the procedure is sound but
    incomplete, so kinds become "sound-yes" / "unknown" instead of yes/no.
    """

    kind: str
    witness: LevelMapping | None
    coefficients: LinearSystem
    alm: AlmSystem
    binary: Program

    @property
    def affirmative(self) -> bool:
        return self.kind in (ALM_RECURRENT, SOUND_YES)

    @cached_property
    def projection(self) -> LinearSystem | None:
        """The irredundant coefficient system of an affirmative verdict (None
        otherwise).  The first read runs :func:`drop_redundant`, which decides
        each row of ``coefficients`` by a certificate or an entailment test;
        later reads return the same system."""
        return drop_redundant(self.coefficients) if self.affirmative else None


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


def solved(group: list[Rule]) -> bool:
    """Whether every body argument of ``group`` (the children of one source
    rule) occurs in an equality row of their constraint whose other
    variables are all head arguments: the guard under which
    :func:`assemble` projects one cone for the whole group."""
    head = set(group[0].head.args)
    given: set[int] = set()
    for coeffs, _, rel in group[0].rows:
        if rel == EQ and len(others := coeffs.keys() - head) == 1:
            given |= others
    return all(v in given for rule in group for atom in rule.body for v in atom.args)


def rule_cones(
    group: list[Rule],
    domain: Domain,
    coeff_ids: dict[str, tuple[int, ...]],
    layouts: dict[tuple[str, ...], list] | None = None,
) -> tuple[RuleCone, ...]:
    """Project one dual cone for the rules of ``group`` (see the module
    docstring) and give each rule a :class:`RuleCone` of those rows.

    ``group`` is one rule of a binary program, or children of one source
    rule that share its head and constraint and each of whose body
    arguments is a variable of that constraint (the children :func:`solved`
    admits).  The cone's variables are ``z_j`` (id ``j``) per argument the
    layouts read (head arguments, then each rule's body arguments in turn:
    ``n`` of them, none for a fact), ``s`` (id ``n``) and one multiplier
    ``y_i`` (id ``n + 1 + i``) per row of ``domain_rows(domain)``: the
    rule's rows in order, then the domain's ``x >= 0`` rows.
    Its rows are a balance equality per rule variable, ``A_v^T y - z_v = 0``
    for a read argument and ``A_v^T y = 0`` for any other (the layouts would
    put ``z_v = 0`` there, and fixing it before the projection gives the same
    cone as fixing it after), then ``b.y - s >= 0`` and ``y_i >= 0`` for each
    ``>=`` row; an equality's multiplier is free.  Each rule's layouts put
    ``z = 0`` on its siblings' columns.  A fact's cone is projected onto
    ``s`` alone, which still tells whether its constraint is satisfiable, so
    its layouts are empty.

    The layouts depend on the group's predicates alone (the head's, then
    each body atom's), so ``layouts`` keeps them by those predicates, for
    every group over the same ones to share.
    """
    rule = group[0]
    read = rule.head.args if rule.body else ()
    for child in group:
        for atom in child.body:
            read += atom.args
    n = len(read)
    rows = rule.domain_rows(domain)
    balance: dict[int, dict[int, int]] = {v: {} for v in read + rule.variables}
    bound: dict[int, int] = {}
    signs: list[Row] = []
    for y, (coeffs, b, rel) in enumerate(rows, start=n + 1):
        for v, c in coeffs.items():
            balance[v][y] = c
        if b:
            bound[y] = b
        if rel != EQ:
            signs.append(({y: 1}, 0))
    for j, v in enumerate(read):
        balance[v][j] = -1
    bound[n] = -1
    eqs = [(row, 0) for row in balance.values()]
    projected = project_constraints(eqs, [(bound, 0)] + signs, range(n + 1))
    if projected is None:
        raise AlmtermError("internal: a cone does not contain 0")
    eqs, ineqs = projected
    split = [r for c, _ in eqs for r in ((c, 0), ({v: -k for v, k in c.items()}, 0))]
    cone = tuple(split + ineqs)
    if not rule.body:
        return (RuleCone(rule, n, cone, (), ()),)
    preds = (rule.head.pred, *[child.body[0].pred for child in group])
    if layouts is None:
        layouts = {}
    if preds not in layouts:
        layouts[preds] = _layouts(preds, n, coeff_ids)
    return tuple([
        RuleCone(child, n, cone, decrease, nonneg)
        for child, (decrease, nonneg) in zip(group, layouts[preds])
    ])


def _layouts(preds: tuple[str, ...], n: int, coeff_ids: dict[str, tuple[int, ...]]) -> list:
    """Per child of a group over ``preds`` (the head's predicate, then each
    child's body atom's) with ``n`` columns: per column, then for ``s``, the
    coefficient-variable combination each implication puts there.  A child's
    body arguments are columns ``start`` to ``end``."""
    hc = coeff_ids[preds[0]]
    head = len(hc) - 1
    out = []
    start = head
    for pred in preds[1:]:
        bc = coeff_ids[pred]
        end = start + len(bc) - 1
        decrease = (
            [{mu: 1} for mu in hc[1:]]
            + [{}] * (start - head)
            + [{mu: -1} for mu in bc[1:]]
            + [{}] * (n - end)
            + [{} if hc[0] == bc[0] else {hc[0]: -1, bc[0]: 1}]
        )
        nonneg = [{}] * start + [{mu: 1} for mu in bc[1:]] + [{}] * (n - end) + [{bc[0]: -1}]
        out.append((tuple(decrease), tuple(nonneg)))
        start = end
    return out


def assemble(program: Program, domain: Domain) -> AlmSystem:
    """Project the dual cones of a binary program's rules, which tests each
    source rule's constraint for satisfiability once; facts and rules with
    unsatisfiable constraints are skipped, with the reason recorded.

    The children of a split rule share one cone, with a column per argument
    of every body atom, when :func:`solved` admits them: each body argument
    is then an affine function of the head's, so that cone has no more rows
    than any child's.  Otherwise it can have exponentially more, and each
    child is projected on its own."""
    if not program.is_binary():
        raise ModelError("assemble requires a binary program; binarize first")
    pool = program.pool.clone()
    coeff_ids = coeff_table(program, pool)
    cones: list[RuleCone] = []
    skipped: list[tuple[str, str]] = []
    layouts: dict[tuple[str, ...], list] = {}
    # ``binarize`` puts a source rule's children together, in body order,
    # each with the source rule's head and constraint
    split = groupby(program.rules, lambda r: (r.origin[0], r.head, r.rows) if r.origin else id(r))
    for _, members in split:
        group = list(members)
        shared = len(group) == 1 or solved(group)
        first = rule_cones(group if shared else group[:1], domain, coeff_ids, layouts)
        if not first[0].satisfiable:
            skipped += [(rule.rule_id, SKIP_UNSAT) for rule in group]
        elif group[0].is_fact:
            skipped.append((group[0].rule_id, SKIP_FACT))
        else:
            cones += first
            if not shared:
                for rule in group[1:]:
                    cones += rule_cones([rule], domain, coeff_ids, layouts)
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


def decide(program: Program, domain: Domain) -> Verdict:
    """Full decision pipeline: binarize, project each rule's dual cone,
    instantiate it for both implications, solve the conjunction, and extract
    a witness mapping.

    Over q/q+/r/r+ the answer is exact in both directions.  Over n a
    satisfiable system still proves termination (sound-yes) but an
    unsatisfiable one proves nothing (unknown).  The verdict keeps the
    coefficient system; its ``projection`` is computed on first read.
    """
    binary = binarize(program)
    alm = assemble(binary, domain)
    coeff_system = deduplicate(LinearSystem(alm.coeff_variables(), tuple(coefficient_rows(alm))))
    point = feasible_point(coeff_system)

    if point is None:
        kind = UNKNOWN if domain.integral else NOT_ALM_RECURRENT
        return Verdict(kind, None, coeff_system, alm, binary)

    kind = SOUND_YES if domain.integral else ALM_RECURRENT
    return Verdict(kind, extract_witness(alm, point), coeff_system, alm, binary)
