"""Exact rational linear programming and polyhedral projection.

A linear row (:data:`Row`) is sparse: a dict of nonzero int coefficients by
variable id and an exact bound.  A :class:`LinearSystem` is a conjunction of
``>=`` rows over a tuple of variables, which fixes the column order of the
solver.  The solver is a two-phase simplex with Bland's rule, so every run
terminates and every answer (feasible / infeasible / unbounded / optimal
value and point) is exact; no floating point appears anywhere.

The simplex tableau is kept as integer rows: each row (and the reduced-cost
row) is a list of Python ints, the numerators of its entries, over one
positive denominator of its own.  Python ints never overflow and every update
is an exact integer identity (a pivot brings a row and the pivot row to a
common denominator before subtracting, then divides out the row's gcd), so the
tableau holds exactly the rationals a Fraction tableau would hold, and Bland's
choices, taken by integer sign tests and cross-multiplied ratio comparisons,
are the same.  Only rows with a nonzero in the pivot column are updated, and
within them only the pivot row's nonzero columns.

Phase one reads no costs, so :func:`minimize` runs it once per system and
gives every objective its own phase two on a copy of the feasible tableau;
each outcome is the one that objective alone would get.  The optimum is read
off the reduced-cost row, whose rhs entry carries minus the objective value.

Only :func:`minimize` runs phase two.  Feasibility and entailment are yes/no
questions, and each is one phase one on the system's row-multiplier
alternative (the affine Farkas lemma), built by the one private builder
``_alternative``: a row per *variable*, then the bound row, over a column per
system row.  Deciding systems with thousands of rows over a handful of
variables so stays cheap.  :func:`feasible_point` asks for nonnegative
multipliers that cancel every variable and combine the right-hand sides to 1;
when there are none, phase one's equality duals yield an exact point of the
system for free.  :func:`entails` asks for multipliers that combine the rows
into the tested row or refute the system, so each redundancy test of
:func:`drop_redundant` is a tableau of a row per variable, not a primal LP
over split variables and a surplus column per row.

Projection works on the same rows.  :func:`project_constraints` is the one
routine: equality substitution, then Fourier-Motzkin elimination with
duplicate and dominated rows pruned after every step, all by integer
cross-multiplication and a gcd.  ``fm_project`` and ``deduplicate`` hand a
system's rows to it unchanged; the verifier's presolve reuses its equality
substitution and its pruning.

:func:`integer_system` builds a system from the rows a rule holds
(:data:`almterm.model.ConstraintRow`), and objectives are coefficient dicts,
so nothing is converted here; :func:`normalize`, the entry for
:class:`LinearConstraint` input, maps ``constraint_row`` over the same builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .model import EQ, GEQ, ConstraintRow, LinearConstraint, constraint_row, row_constraint

ZERO = Fraction(0)
ONE = Fraction(1)

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"

# ``coeffs . x >= bound`` (or ``= bound``): nonzero int coefficients by
# variable id, and an int bound (a Fraction only once a row has been divided
# by the gcd of its coefficients)
Row = tuple[dict[int, int], "int | Fraction"]


@dataclass(frozen=True)
class LinearSystem:
    """Conjunction of the ``>=`` rows ``rows`` over ``variables`` (which fixes
    the solver's column order); both fields are tuples."""

    variables: tuple[int, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        known = set(self.variables)
        if any(not known.issuperset(coeffs) for coeffs, _ in self.rows):
            raise ValueError("a row mentions a variable outside the system's variables")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def satisfied_by(self, assignment: Mapping[int, Fraction]) -> bool:
        """Exact test in integers: the point over one common denominator
        ``den``, and each row's sum against ``bound * den``."""
        den = lcm(*[a.denominator for a in assignment.values()])
        nums = {v: a.numerator * (den // a.denominator) for v, a in assignment.items()}
        return all(
            sum(c * nums[v] for v, c in coeffs.items()) >= bound * den
            for coeffs, bound in self.rows
        )

    def constraints(self) -> list[LinearConstraint]:
        return [row_constraint(coeffs, bound, GEQ) for coeffs, bound in self.rows]


@dataclass(frozen=True)
class LpOutcome:
    """Result of an optimisation: infeasible, unbounded, or an exact optimum.

    For unbounded problems ``point`` is a feasible point and ``ray`` a
    direction along which the objective improves without bound.
    """

    status: str
    value: Fraction | None = None
    point: dict[int, Fraction] | None = None
    ray: dict[int, Fraction] | None = None


def integer_system(
    rows: Iterable[ConstraintRow],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> LinearSystem:
    """Mixed =/>= integer rows as one system of ``>=`` rows.

    Rows keep their order, and an equality is followed by its negation.
    Every variable in ``extra_nonneg`` adds one ``x >= 0`` row at the end.
    Variable order is deterministic: ``order_hint`` first, then first
    occurrence.  Bland's path, and so every point the solver returns, depends
    on both orders.
    """
    extra = sorted(extra_nonneg)
    out: list[Row] = []
    for coeffs, bound, rel in rows:
        out.append((coeffs, bound))
        if rel == EQ:
            out.append(({v: -k for v, k in coeffs.items()}, -bound))
    variables = dict.fromkeys([*order_hint, *[v for coeffs, _ in out for v in coeffs], *extra])
    out += [({v: 1}, 0) for v in extra]
    return LinearSystem(tuple(variables), tuple(out))


def normalize(
    constraints: Iterable[LinearConstraint],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> LinearSystem:
    """:func:`integer_system` of the constraints' rows
    (:func:`almterm.model.constraint_row`)."""
    return integer_system(map(constraint_row, constraints), extra_nonneg, order_hint)


# ---------------------------------------------------------------------------
# simplex core: min cost.w  subject to  M w = d, w >= 0
# ---------------------------------------------------------------------------


def _to_row(values) -> list[int]:
    """Rationals (Fractions or ints) as integer numerators over the lcm of
    the nonzero entries' denominators, which is appended as the last entry."""
    den = lcm(*[a.denominator for a in values if a])
    return [a.numerator * (den // a.denominator) if a else 0 for a in values] + [den]


def _reduced(row: list[int]) -> list[int]:
    """The same values with numerators and denominator divided by their gcd."""
    if row[-1] == 1:
        return row
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _clear(row: list[int], prow: list[int], nz: list[int], c: int) -> list[int]:
    """``row - row[c] * prow`` where ``prow`` holds 1 in column ``c``; only
    the columns ``nz`` (the nonzeros of ``prow``) are combined."""
    f = row[c]
    p = prow[-1]
    g = gcd(f, p)
    if g != p:
        k = p // g
        row = [a * k for a in row]
    f //= g
    for j in nz:
        row[j] -= f * prow[j]
    return _reduced(row)


def _priced(rows, basis, costs) -> list[int]:
    """Reduced-cost row c - c_B.B^-1.M for the current tableau."""
    cost = _to_row(costs)
    basic = [i for i, b in enumerate(basis) if cost[b]]
    scale = lcm(*[rows[i][-1] for i in basic])
    obj = [c * scale for c in cost[:-1]] + [0, cost[-1] * scale]
    for i in basic:
        row = rows[i]
        w = cost[basis[i]] * (scale // row[-1])
        for j in range(len(row) - 1):
            a = row[j]
            if a:
                obj[j] -= w * a
    return _reduced(obj)


def _pivot(rows, basis, r, c, obj=None) -> None:
    """Make column ``c`` basic in row ``r`` (and update ``obj`` in place)."""
    prow = rows[r]
    p = prow[c]
    # dividing the row by its pivot entry keeps the numerators over |p|
    prow = prow[:-1] + [p] if p > 0 else [-a for a in prow[:-1]] + [-p]
    prow = rows[r] = _reduced(prow)
    nz = [j for j in range(len(prow) - 1) if prow[j]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = _clear(row, prow, nz, c)
    basis[r] = c
    if obj is not None and obj[c]:
        obj[:] = _clear(obj, prow, nz, c)


def _bland(rows, basis, obj, eligible: int):
    """Run Bland-rule pivots until optimal or unbounded.

    Only columns < eligible may enter (artificials never re-enter).  Returns
    ("optimal", -1) or ("unbounded", entering_column).
    """
    while True:
        enter = next((j for j in range(eligible) if obj[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, -1
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                # ratios rhs/a share the row denominator: compare crosswise
                b = row[-2]
                if (
                    leave < 0
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and basis[i] < basis[leave])
                ):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return UNBOUNDED, enter
        _pivot(rows, basis, leave, enter, obj)


def _phase_one(mat, d, ncols):
    """Phase one of the simplex for ``mat w = d, w >= 0`` over ``ncols``
    columns; it does not depend on any costs.

    Returns ``(rows, basis, None)``: a feasible tableau with the artificial
    columns and redundant rows gone, ready for :func:`_phase_two`; or
    ``(None, None, duals)`` with the phase-one equality multipliers when the
    system is infeasible.

    Each row is ``[numerators of the columns..., numerator of the rhs,
    denominator]`` (see :func:`_to_row`).
    """
    m = len(mat)
    rows: list[list[int]] = []
    flipped: list[bool] = []
    for i, (row, b) in enumerate(zip(mat, d)):
        ints = _to_row([*row, b])
        den = ints.pop()
        if b < 0:
            ints = [-a for a in ints]
        # artificial identity block; artificials start basic
        rhs = ints.pop()
        ints += [0] * m
        ints[ncols + i] = den
        rows.append(ints + [rhs, den])
        flipped.append(b < 0)
    basis = list(range(ncols, ncols + m))

    obj = _priced(rows, basis, [0] * ncols + [1] * m)
    status, _ = _bland(rows, basis, obj, ncols)
    assert status == OPTIMAL, "phase one is bounded below by zero"
    if any(row[-2] for row, bi in zip(rows, basis) if bi >= ncols):
        den = obj[-1]
        duals = [Fraction(den - obj[ncols + i], den) for i in range(m)]
        duals = [-w if flipped[i] else w for i, w in enumerate(duals)]
        return None, None, duals

    # artificials never re-enter: drop their columns, drive leftover ones out
    # of the basis and drop the redundant rows they sit in
    rows = [row[:ncols] + row[-2:] for row in rows]
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if rows[i][j]), -1)
            if col >= 0:
                _pivot(rows, basis, i, col)
            else:
                drop.append(i)
    if drop:
        rows = [row for i, row in enumerate(rows) if i not in drop]
        basis = [bi for i, bi in enumerate(basis) if i not in drop]
    return rows, basis, None


def _phase_two(rows, basis, costs, width):
    """Phase two from a :func:`_phase_one` tableau, which it pivots in
    place: min costs.w.  Returns (status, point, value, ray), with the point
    and the ray over the first ``width`` columns only; ``value`` is read off
    the reduced-cost row and is None unless OPTIMAL, ``ray`` is None unless
    UNBOUNDED."""
    obj = _priced(rows, basis, costs)
    status, enter = _bland(rows, basis, obj, len(costs))

    point = [ZERO] * width
    for row, bi in zip(rows, basis):
        if bi < width:
            point[bi] = Fraction(row[-2], row[-1])
    if status == UNBOUNDED:
        ray = [ZERO] * width
        if enter < width:
            ray[enter] = ONE
        for row, bi in zip(rows, basis):
            if bi < width:
                ray[bi] = Fraction(-row[enter], row[-1])
        return UNBOUNDED, point, None, ray
    return OPTIMAL, point, Fraction(-obj[-2], obj[-1]), None


def _alternative(sys: LinearSystem, order: Iterable[int], extra: int) -> list[list[int]]:
    """The row-multiplier side of ``sys`` as a ``_phase_one`` matrix: a row per
    variable of ``order`` (a superset of ``sys.variables``), then the bound
    row, over a column per row of ``sys`` and ``extra`` zero columns after
    them."""
    m = sys.num_rows
    index = {v: k for k, v in enumerate(order)}
    mat = [[0] * (m + extra) for _ in range(len(index) + 1)]
    for i, (coeffs, bound) in enumerate(sys.rows):
        for v, c in coeffs.items():
            mat[index[v]][i] = c
        mat[-1][i] = bound
    return mat


# ---------------------------------------------------------------------------
# public solving interface over LinearSystem
# ---------------------------------------------------------------------------


def minimize(sys: LinearSystem, *objectives: Mapping[int, int | Fraction]) -> tuple[LpOutcome, ...]:
    """Exact minimum of each objective ``sum(c * v for v, c in
    objective.items())`` over ``sys`` (variables unrestricted): one outcome
    per objective, in order.

    Internally splits every variable into a difference of nonnegatives and
    adds one surplus column per row.  Phase one runs once for the system;
    each objective then runs phase two on its own copy of that tableau, with
    zero columns for the objective's variables outside the system.  Phase
    one reads no costs, so every outcome is the one a call with that
    objective alone returns.  The reported point is a vertex, deterministic
    under Bland's order, over the system's variables and then the objective's
    own (in the objective's order).
    """
    if not objectives:
        return ()
    n = sys.num_vars
    m = sys.num_rows
    index = {v: i for i, v in enumerate(sys.variables)}

    mat: list[list] = []
    for r, (coeffs, _) in enumerate(sys.rows):
        row = [0] * (2 * n + m)
        for v, c in coeffs.items():
            k = index[v]
            row[k] = c
            row[n + k] = -c
        row[2 * n + r] = -1
        mat.append(row)
    rows, basis, _ = _phase_one(mat, [bound for _, bound in sys.rows], 2 * n + m)
    if rows is None:
        return (LpOutcome(INFEASIBLE),) * len(objectives)

    outcomes: list[LpOutcome] = []
    last = len(objectives) - 1
    for k, objective in enumerate(objectives):
        extra = [v for v in objective if v not in index]
        e = len(extra)
        if e:
            # the objective's own variables split into zero columns after the
            # system's, as in a call with this objective alone; phase one
            # never enters a zero column, so it is the same without them
            tableau = [row[:n] + [0] * e + row[n : 2 * n] + [0] * e + row[2 * n :] for row in rows]
            tbasis = [b if b < n else b + e if b < 2 * n else b + 2 * e for b in basis]
        else:
            # the last objective may pivot the phase-one tableau itself
            tableau = rows if k == last else [row[:] for row in rows]
            tbasis = list(basis)
        column = {v: i for i, v in enumerate([*sys.variables, *extra])}
        w = n + e
        costs = [0] * (2 * w + m)
        for v, c in objective.items():
            costs[column[v]] = c
            costs[w + column[v]] = -c
        status, point, value, ray = _phase_two(tableau, tbasis, costs, 2 * w)

        def recombine(vec) -> dict[int, Fraction]:
            return {v: vec[i] - vec[w + i] if vec[w + i] else vec[i] for v, i in column.items()}

        if status == UNBOUNDED:
            outcomes.append(LpOutcome(UNBOUNDED, point=recombine(point), ray=recombine(ray)))
        else:
            outcomes.append(LpOutcome(OPTIMAL, value, recombine(point)))
    return tuple(outcomes)


def maximize(sys: LinearSystem, objective: Mapping[int, int | Fraction]) -> LpOutcome:
    """Exact maximum of the one ``objective``; see :func:`minimize`.
    Unbounded means unbounded above."""
    (out,) = minimize(sys, {v: -c for v, c in objective.items()})
    if out.status != OPTIMAL:
        return out
    return LpOutcome(OPTIMAL, -out.value, out.point)


def feasible_point(sys: LinearSystem) -> dict[int, Fraction] | None:
    """An exact rational point satisfying every row, or None.

    Decided by phase one alone on the row-multiplier alternative (see module
    docstring), whose size is governed by the variable count rather than the
    row count: the point is read off the phase-one duals, and phase two never
    runs.  The returned point is checked against the system before being
    handed out.
    """
    m = sys.num_rows
    n = sys.num_vars
    if m == 0:
        return {v: ZERO for v in sys.variables}
    # the multipliers must cancel every variable and combine the rhs to 1;
    # the system is feasible exactly when they cannot, and then phase one's
    # equality duals, scaled by the bound row's, are a point of it
    rows, _, duals = _phase_one(_alternative(sys, sys.variables, 0), [0] * n + [1], m)
    if rows is not None:
        return None
    scale = duals[n]
    assert scale > 0, "alternative-system duals must combine the rhs positively"
    point = {v: -duals[k] / scale for k, v in enumerate(sys.variables)}
    assert sys.satisfied_by(point), "extracted point must satisfy the system"
    return point


def feasible(sys: LinearSystem) -> bool:
    """Exact satisfiability of the conjunction; no tolerance anywhere."""
    return feasible_point(sys) is not None


def _holds(out: LpOutcome, bound: int | Fraction) -> bool:
    """Does the minimisation ``out`` show its objective stays ``>= bound``?"""
    return out.status == INFEASIBLE or (out.status == OPTIMAL and out.value >= bound)


def entails(sys: LinearSystem, coeffs: Mapping[int, int | Fraction], bound: int | Fraction) -> bool:
    """Does every solution of ``sys`` satisfy ``coeffs . x >= bound``?

    Decided on the multiplier side by the affine Farkas lemma, with one phase
    one: are there ``y >= 0`` (one per row), ``lam >= 0`` and ``t >= 0`` with
    ``A^T y = lam * coeffs``, ``b.y - lam * bound - t = 0`` and
    ``lam + t = 1``?  With ``lam > 0``, ``y / lam`` combines rows into one
    that implies the tested row; with ``lam = 0``, ``y`` refutes ``sys``, which
    then entails every row.  The tableau has a row per variable (of ``sys``
    and of ``coeffs``) and two more.
    """
    m = sys.num_rows
    index = {v: k for k, v in enumerate(dict.fromkeys([*sys.variables, *coeffs]))}
    mat = _alternative(sys, index, 2)
    for v, c in coeffs.items():
        mat[index[v]][m] = -c
    mat[-1][m:] = [-bound, -1]
    mat.append([0] * m + [1, 1])
    rows, _, _ = _phase_one(mat, [0] * (len(index) + 1) + [1], m + 2)
    return rows is not None


def equivalent_systems(a: LinearSystem, b: LinearSystem) -> bool:
    """Solution-set equality over the union of both variable tuples,
    established by mutual row entailment: one :func:`minimize` call per side,
    with every row of the one side an objective over the other (exact LPs, no
    tolerance)."""
    for sys, other in ((a, b), (b, a)):
        outs = minimize(other, *[coeffs for coeffs, _ in sys.rows])
        if not all(_holds(out, bound) for out, (_, bound) in zip(outs, sys.rows)):
            return False
    return True


# ---------------------------------------------------------------------------
# projection over integer rows
# ---------------------------------------------------------------------------


def _primitive(coeffs: dict[int, int], bound) -> Row:
    """The same row divided by the gcd of its coefficients."""
    g = gcd(*coeffs.values())
    if g < 2:
        return coeffs, bound
    q, r = divmod(bound, g)
    return {v: c // g for v, c in coeffs.items()}, Fraction(bound, g) if r else q


def _prune(rows: list[Row]) -> list[Row] | None:
    """Primitive form, trivial rows dropped, and one row per coefficient
    direction: the strongest, in the place of the first.  None on a row
    ``0 >= positive``."""
    best: dict[frozenset, Row] = {}
    for coeffs, bound in rows:
        if not coeffs:
            if bound > 0:
                return None
            continue
        coeffs, bound = _primitive(coeffs, bound)
        key = frozenset(coeffs.items())
        old = best.get(key)
        if old is None or old[1] < bound:
            best[key] = (coeffs, bound)
    return list(best.values())


def _substitute(row: Row, var: int, eq: Row) -> Row:
    """``row`` with ``var`` solved away through the equality ``eq``: a
    positive multiple of ``row`` minus a multiple of ``eq``."""
    coeffs, bound = row
    f = coeffs.get(var)
    if not f:
        return row
    ecoeffs, ebound = eq
    a = ecoeffs[var]
    if a < 0:
        a, f = -a, -f
    g = gcd(a, f)
    a //= g
    f //= g
    merged = {v: c * a for v, c in coeffs.items() if v != var}
    for v, c in ecoeffs.items():
        if v != var:
            s = merged.get(v, 0) - f * c
            if s:
                merged[v] = s
            else:
                del merged[v]
    return merged, bound * a - ebound * f


def _cheapest(rows: list[Row], candidates: set[int]) -> int:
    """Next variable to eliminate: fewest combined rows (positive times
    negative occurrences), ties to the smallest id."""
    pos = dict.fromkeys(candidates, 0)
    neg = dict.fromkeys(candidates, 0)
    for coeffs, _ in rows:
        for v, c in coeffs.items():
            if v in pos:
                if c > 0:
                    pos[v] += 1
                else:
                    neg[v] += 1
    return min(sorted(candidates), key=lambda v: pos[v] * neg[v])


def _eliminate(rows: list[Row], var: int) -> list[Row]:
    """One Fourier-Motzkin step: rows without ``var``, then every positive
    combination of a row with ``var > 0`` and one with ``var < 0`` that
    cancels it."""
    pos: list[Row] = []
    neg: list[Row] = []
    out: list[Row] = []
    for row in rows:
        c = row[0].get(var)
        if not c:
            out.append(row)
        elif c > 0:
            pos.append(row)
        else:
            neg.append(row)
    for pc, pb in pos:
        pa = pc[var]
        for nc, nb in neg:
            g = gcd(pa, nc[var])
            a, b = pa // g, -nc[var] // g
            merged = {v: c * b for v, c in pc.items() if v != var}
            for v, c in nc.items():
                if v != var:
                    s = merged.get(v, 0) + c * a
                    if s:
                        merged[v] = s
                    else:
                        del merged[v]
            out.append((merged, pb * b + nb * a))
    return out


def project_constraints(
    eqs: Sequence[Row], ineqs: Sequence[Row], keep: Iterable[int]
) -> tuple[list[Row], list[Row]] | None:
    """Existentially project equalities ``eqs`` and inequalities ``ineqs``
    onto the variables ``keep``: the one projection routine.

    Each equality that mentions a variable outside ``keep`` is used to
    substitute its first such variable away, which costs no row growth;
    Fourier-Motzkin then eliminates what is left, cheapest variable first,
    with duplicate and dominated rows pruned after every step.  Every step is
    integer cross-multiplication and a gcd.  Returns the remaining equalities
    (all over ``keep``) and the pruned inequalities, or None when the input
    is (exactly) unsatisfiable.
    """
    keep = set(keep)
    eqs = list(eqs)
    k = 0
    while k < len(eqs):
        eq = eqs[k]
        var = next((v for v in eq[0] if v not in keep), None)
        if var is None:
            k += 1
            continue
        del eqs[k]
        eqs = [_substitute(row, var, eq) for row in eqs]
        ineqs = [_substitute(row, var, eq) for row in ineqs]
    if any(not coeffs and bound for coeffs, bound in eqs):
        return None

    rows = _prune(ineqs)
    if rows is None:
        return None
    drop = {v for coeffs, _ in rows for v in coeffs} - keep
    while drop:
        var = _cheapest(rows, drop)
        drop.discard(var)
        rows = _prune(_eliminate(rows, var))
        if rows is None:
            return None
        drop &= {v for coeffs, _ in rows for v in coeffs}
    return [_primitive(*eq) for eq in eqs if eq[0]], rows


def deduplicate(sys: LinearSystem) -> LinearSystem:
    """Cheap syntactic reduction: scale rows to primitive form, then keep only
    the strongest bound per coefficient direction.  Exact and always sound."""
    return fm_project(sys, sys.variables)


def drop_redundant(sys: LinearSystem) -> LinearSystem:
    """Greedy exact redundancy elimination: a row is removed when the
    remaining rows entail it (one :func:`entails` feasibility test each)."""
    rows = sys.rows
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        if entails(LinearSystem(sys.variables, others), *rows[i]):
            rows = others
        else:
            i += 1
    return LinearSystem(sys.variables, rows)


def fm_project(sys: LinearSystem, keep: Iterable[int]) -> LinearSystem:
    """Project ``sys`` onto the ``keep`` variables with
    :func:`project_constraints`.

    The result has exactly the solutions of ``sys`` restricted to ``keep``,
    with duplicate and dominated rows pruned; :func:`drop_redundant` makes it
    irredundant.
    """
    keep_set = set(keep)
    kept_vars = tuple([v for v in sys.variables if v in keep_set])
    projected = project_constraints([], sys.rows, keep_set)
    if projected is None:
        # canonical empty polyhedron over the kept variables
        return LinearSystem(kept_vars, (({}, 1),))
    return LinearSystem(kept_vars, tuple(projected[1]))
