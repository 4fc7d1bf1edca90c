"""Exact rational linear programming and polyhedral projection.

A :class:`LinearSystem` is a conjunction ``A x >= b`` of exact rationals
(Fractions, or ints where an entry is whole).  The solver is a dense
two-phase simplex with Bland's rule, so every run terminates and every answer
(feasible / infeasible / unbounded / optimal value and point) is exact; no
floating point appears anywhere.

The simplex tableau is kept as integer rows: each row (and the reduced-cost
row) is a list of Python ints, the numerators of its entries, over one
positive denominator of its own.  Python ints never overflow and every update
is an exact integer identity (a pivot brings a row and the pivot row to a
common denominator before subtracting, then divides out the row's gcd), so the
tableau holds exactly the rationals a Fraction tableau would hold, and Bland's
choices, taken by integer sign tests and cross-multiplied ratio comparisons,
are the same.  Only rows with a nonzero in the pivot column are updated, and
within them only the pivot row's nonzero columns.

Feasibility uses a different route than optimisation: instead of solving the
system directly we solve its row-multiplier alternative (nonnegative
multipliers that cancel every column while making the combined right-hand side
positive).  That alternative has one row per *variable*, so deciding systems
with thousands of rows over a handful of variables stays cheap, and when the
alternative is infeasible its phase-one multipliers yield an exact point of
the original system for free.

Projection works on sparse integer rows (:data:`Row`): a dict of int
coefficients and a bound.  :func:`project_constraints` is the one routine:
equality substitution, then Fourier-Motzkin elimination with duplicate and
dominated rows pruned after every step, all by integer cross-multiplication
and a gcd.  ``fm_project`` and ``deduplicate`` are entry points into it from
:class:`LinearSystem`; ``constraint_rows`` and ``row_constraints`` convert
from and to :class:`LinearConstraint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .model import EQ, GEQ, LinearConstraint, LinearExpr, VariablePool

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
    """Conjunction of rows ``rows[i] . variables >= rhs[i]``; all three
    fields are tuples."""

    variables: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if any(len(row) != n for row in self.rows):
            raise ValueError("row length does not match variable count")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs count mismatch")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def satisfied_by(self, assignment: Mapping[int, Fraction]) -> bool:
        for row, b in zip(self.rows, self.rhs):
            total = ZERO
            for v, c in zip(self.variables, row):
                if c:
                    total += c * assignment[v]
            if total < b:
                return False
        return True

    def row_expr(self, i: int) -> LinearExpr:
        return LinearExpr({v: c for v, c in zip(self.variables, self.rows[i]) if c})

    def row_constraint(self, i: int) -> LinearConstraint:
        return LinearConstraint(self.row_expr(i), GEQ, LinearExpr.of_const(self.rhs[i]))

    def constraints(self) -> list[LinearConstraint]:
        return [self.row_constraint(i) for i in range(self.num_rows)]

    def render(self, names: VariablePool | None = None) -> str:
        return "\n".join(c.render(names) for c in self.constraints())


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

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _gap(c: LinearConstraint) -> tuple[dict[int, Fraction], Fraction]:
    """``c`` as ``coeffs . x (rel) bound``: the nonzero coefficients of
    ``lhs - rhs`` (lhs variables first) and ``rhs.const - lhs.const``."""
    coeffs = dict(c.lhs.coeffs)
    for v, k in c.rhs.coeffs.items():
        s = coeffs.get(v, 0) - k
        if s:
            coeffs[v] = s
        else:
            del coeffs[v]
    return coeffs, c.rhs.const - c.lhs.const


def integer_system(
    constraints: Iterable[LinearConstraint],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> tuple[tuple[int, ...], list[Row]]:
    """Mixed =/>= constraints as integer ``>=`` rows and their variables.

    Each constraint gives one row, scaled to coprime integers; an equality
    is followed by its negation.  Every variable in ``extra_nonneg`` adds one
    ``x >= 0`` row at the end.  Variable order is deterministic:
    ``order_hint`` first, then first occurrence.
    """
    gaps = [(_integral(*_gap(c)), c.rel) for c in constraints]
    extra = sorted(extra_nonneg)
    variables = dict.fromkeys([*order_hint, *[v for (g, _), _ in gaps for v in g], *extra])
    rows: list[Row] = []
    for (coeffs, bound), rel in gaps:
        rows.append((coeffs, bound))
        if rel == EQ:
            rows.append(({v: -k for v, k in coeffs.items()}, -bound))
    rows += [({v: 1}, 0) for v in extra]
    return tuple(variables), rows


def normalize(
    constraints: Iterable[LinearConstraint],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> LinearSystem:
    """Rewrite mixed =/>= constraints as a single ``A x >= b`` system: the
    rows of :func:`integer_system`, dense."""
    return rows_system(*integer_system(constraints, extra_nonneg, order_hint))


# ---------------------------------------------------------------------------
# simplex core: min cost.w  subject to  M w = d, w >= 0
# ---------------------------------------------------------------------------


def _to_row(values) -> list[int]:
    """Rationals as integer numerators over their lcm denominator, which is
    appended as the last entry."""
    den = lcm(*[a.denominator for a in values])
    return [a.numerator * (den // a.denominator) for a in values] + [den]


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


def _solve_standard(mat, d, costs):
    """Two-phase simplex for min costs.w s.t. mat w = d, w >= 0.

    Returns (status, point, value, duals, ray).  ``duals`` are the phase-one
    equality multipliers and are only returned on INFEASIBLE (that is the one
    place a caller needs them); ``ray`` only on UNBOUNDED.

    Each row is ``[numerators of the columns..., numerator of the rhs,
    denominator]`` (see :func:`_to_row`).
    """
    m = len(mat)
    ncols = len(costs)
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
        return INFEASIBLE, None, None, duals, None

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

    obj = _priced(rows, basis, costs)
    status, enter = _bland(rows, basis, obj, ncols)

    point = [ZERO] * ncols
    for row, bi in zip(rows, basis):
        point[bi] = Fraction(row[-2], row[-1])
    if status == UNBOUNDED:
        ray = [ZERO] * ncols
        ray[enter] = ONE
        for row, bi in zip(rows, basis):
            ray[bi] = Fraction(-row[enter], row[-1])
        return UNBOUNDED, point, None, None, ray
    value = sum((costs[j] * point[j] for j in range(ncols) if point[j]), ZERO)
    return OPTIMAL, point, value, None, None


# ---------------------------------------------------------------------------
# public solving interface over LinearSystem
# ---------------------------------------------------------------------------


def minimize(sys: LinearSystem, objective: LinearExpr) -> LpOutcome:
    """Exact minimum of ``objective`` over ``sys`` (variables unrestricted).

    Internally splits every variable into a difference of nonnegatives and
    adds one surplus column per row.  The reported optimum includes the
    objective's constant term; the reported point is a vertex, deterministic
    under Bland's order.
    """
    variables = list(sys.variables)
    present = set(variables)
    for v in objective.coeffs:
        if v not in present:
            present.add(v)
            variables.append(v)
    n = len(variables)
    m = sys.num_rows
    index = {v: i for i, v in enumerate(variables)}

    mat: list[list[Fraction]] = []
    for r in range(m):
        row = [ZERO] * (2 * n + m)
        for v, c in zip(sys.variables, sys.rows[r]):
            if c:
                k = index[v]
                row[k] = c
                row[n + k] = -c
        row[2 * n + r] = -ONE
        mat.append(row)
    d = list(sys.rhs)
    costs = [ZERO] * (2 * n + m)
    for v, c in objective.coeffs.items():
        k = index[v]
        costs[k] = c
        costs[n + k] = -c

    status, w, value, _, ray_w = _solve_standard(mat, d, costs)
    if status == INFEASIBLE:
        return LpOutcome(INFEASIBLE)

    def recombine(vec) -> dict[int, Fraction]:
        return {v: vec[index[v]] - vec[n + index[v]] for v in variables}

    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED, point=recombine(w), ray=recombine(ray_w))
    point = recombine(w)
    return LpOutcome(OPTIMAL, value + objective.const, point)


def maximize(sys: LinearSystem, objective: LinearExpr) -> LpOutcome:
    """Exact maximum; see :func:`minimize`.  Unbounded means unbounded above."""
    out = minimize(sys, objective.scale(-1))
    if out.status != OPTIMAL:
        return out
    return LpOutcome(OPTIMAL, -out.value, out.point)


def feasible_point(sys: LinearSystem) -> dict[int, Fraction] | None:
    """An exact rational point satisfying every row, or None.

    Decided through the row-multiplier alternative system (see module
    docstring), whose size is governed by the variable count rather than the
    row count.  The returned point is checked against the system before being
    handed out.
    """
    m = sys.num_rows
    n = sys.num_vars
    if m == 0:
        return {v: ZERO for v in sys.variables}
    # alternative: columns are one multiplier per original row; rows force the
    # multipliers to cancel every variable and to combine the rhs to 1
    mat = [[sys.rows[i][k] for i in range(m)] for k in range(n)]
    mat.append([sys.rhs[i] for i in range(m)])
    d = [ZERO] * n + [ONE]
    status, _, _, duals, _ = _solve_standard(mat, d, [ZERO] * m)
    if status != INFEASIBLE:
        return None
    scale = duals[n]
    assert scale > 0, "alternative-system duals must combine the rhs positively"
    point = {v: -duals[k] / scale for k, v in enumerate(sys.variables)}
    assert sys.satisfied_by(point), "extracted point must satisfy the system"
    return point


def feasible(sys: LinearSystem) -> bool:
    """Exact satisfiability of the conjunction; no tolerance anywhere."""
    return feasible_point(sys) is not None


def entails(sys: LinearSystem, coeffs: Mapping[int, Fraction], bound: Fraction) -> bool:
    """Does every solution of ``sys`` satisfy ``coeffs . x >= bound``?"""
    out = minimize(sys, LinearExpr(dict(coeffs)))
    if out.status == INFEASIBLE:
        return True
    return out.status == OPTIMAL and out.value >= bound


def equivalent_systems(a: LinearSystem, b: LinearSystem) -> bool:
    """Solution-set equality over the union of both variable tuples,
    established by mutual row entailment (exact LPs, no tolerance)."""
    for sys, other in ((a, b), (b, a)):
        for i in range(sys.num_rows):
            coeffs = {v: c for v, c in zip(sys.variables, sys.rows[i]) if c}
            if not entails(other, coeffs, sys.rhs[i]):
                return False
    return True




# ---------------------------------------------------------------------------
# projection over integer rows
# ---------------------------------------------------------------------------


def _integral(coeffs: Mapping[int, Fraction], bound: Fraction) -> Row:
    """The same row times a positive rational: coprime integer coefficients
    and bound."""
    den = lcm(bound.denominator, *[c.denominator for c in coeffs.values()])
    ints = {v: c.numerator * (den // c.denominator) for v, c in coeffs.items()}
    b = bound.numerator * (den // bound.denominator)
    g = gcd(b, *ints.values())
    if g > 1:
        return {v: c // g for v, c in ints.items()}, b // g
    return ints, b


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
    eqs: list[Row], ineqs: list[Row], keep: Iterable[int]
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


def constraint_rows(
    constraints: Iterable[LinearConstraint],
) -> tuple[list[Row], list[Row]]:
    """Mixed =/>= constraints as integer equalities and inequalities."""
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for c in constraints:
        (eqs if c.rel == EQ else ineqs).append(_integral(*_gap(c)))
    return eqs, ineqs


def row_constraints(eqs: list[Row], ineqs: list[Row]) -> list[LinearConstraint]:
    """Integer rows back as constraints, equalities first."""
    return [
        LinearConstraint(LinearExpr(coeffs), rel, LinearExpr.of_const(bound))
        for rows, rel in ((eqs, EQ), (ineqs, GEQ))
        for coeffs, bound in rows
    ]


def rows_system(variables: Sequence[int], rows: Iterable[Row]) -> LinearSystem:
    """Inequality rows over ``variables`` as a dense ``A x >= b`` system."""
    index = {v: i for i, v in enumerate(variables)}
    dense: list[tuple] = []
    rhs: list = []
    for coeffs, bound in rows:
        row = [0] * len(index)
        for v, c in coeffs.items():
            row[index[v]] = c
        dense.append(tuple(row))
        rhs.append(bound)
    return LinearSystem(tuple(variables), tuple(dense), tuple(rhs))


def deduplicate(sys: LinearSystem) -> LinearSystem:
    """Cheap syntactic reduction: scale rows to primitive form, then keep only
    the strongest bound per coefficient direction.  Exact and always sound."""
    return fm_project(sys, sys.variables, lp_minimize=False)


def drop_redundant(sys: LinearSystem) -> LinearSystem:
    """Greedy exact redundancy elimination: a row is removed when the
    remaining rows entail it (one LP per test)."""
    rows = list(zip(sys.rows, sys.rhs))
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        candidate = LinearSystem(
            sys.variables, tuple([r for r, _ in others]), tuple([b for _, b in others])
        )
        coeffs = {v: c for v, c in zip(sys.variables, rows[i][0]) if c}
        if entails(candidate, coeffs, rows[i][1]):
            rows = others
        else:
            i += 1
    return LinearSystem(
        sys.variables, tuple([r for r, _ in rows]), tuple([b for _, b in rows])
    )


def fm_project(sys: LinearSystem, keep: Iterable[int], lp_minimize: bool = True) -> LinearSystem:
    """Project ``sys`` onto the ``keep`` variables.

    The result has exactly the solutions of ``sys`` restricted to ``keep``.
    With ``lp_minimize`` (the default) redundant rows are then removed by
    pairwise LP entailment, which gives an irredundant presentation.
    """
    keep_set = set(keep)
    kept_vars = tuple([v for v in sys.variables if v in keep_set])
    rows = [
        _integral({v: c for v, c in zip(sys.variables, row) if c}, b)
        for row, b in zip(sys.rows, sys.rhs)
    ]
    projected = project_constraints([], rows, keep_set)
    if projected is None:
        # canonical empty polyhedron over the kept variables
        return LinearSystem(kept_vars, ((ZERO,) * len(kept_vars),), (ONE,))
    result = rows_system(kept_vars, projected[1])
    return drop_redundant(result) if lp_minimize else result
