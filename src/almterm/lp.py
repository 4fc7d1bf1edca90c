"""Exact rational linear programming and polyhedral projection.

All systems have the shape ``A x >= b`` with Fraction entries.  The solver is
a dense two-phase simplex with Bland's rule, so every run terminates and every
answer (feasible / infeasible / unbounded / optimal value and point) is exact;
no floating point appears anywhere.

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


@dataclass(frozen=True)
class LinearSystem:
    """Conjunction of rows ``rows[i] . variables >= rhs[i]``."""

    variables: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        for row in self.rows:
            if len(row) != len(self.variables):
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


def normalize(
    constraints: Iterable[LinearConstraint],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> LinearSystem:
    """Rewrite mixed =/>= constraints as a single ``A x >= b`` system.

    Equalities split into a >= and a <= row (in that order); every variable in
    ``extra_nonneg`` contributes one ``x >= 0`` row at the end.  Variable
    order is deterministic: ``order_hint`` first, then first occurrence.
    """
    constraints = list(constraints)
    extra = list(extra_nonneg)
    variables: list[int] = []
    seen: set[int] = set()

    def note(v: int) -> None:
        if v not in seen:
            seen.add(v)
            variables.append(v)

    for v in order_hint:
        note(v)
    for c in constraints:
        for v in c.gap().coeffs:
            note(v)
    for v in sorted(extra):
        note(v)

    index = {v: i for i, v in enumerate(variables)}
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def emit(coeffs: Mapping[int, Fraction], bound: Fraction) -> None:
        row = [ZERO] * len(variables)
        for v, c in coeffs.items():
            row[index[v]] = c
        rows.append(row)
        rhs.append(bound)

    for c in constraints:
        g = c.gap()
        emit(g.coeffs, -g.const)
        if c.rel == EQ:
            emit({v: -k for v, k in g.coeffs.items()}, g.const)
    for v in sorted(extra):
        emit({v: ONE}, ZERO)

    return LinearSystem(tuple(variables), tuple(tuple(r) for r in rows), tuple(rhs))


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
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

Row = tuple[dict[int, Fraction], Fraction]  # coeffs . x >= bound


def _canon(coeffs: dict[int, Fraction], bound: Fraction) -> Row:
    """Scale a row to a primitive integer coefficient vector (sign kept)."""
    denom_lcm = 1
    for c in coeffs.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    nums = [abs(c.numerator * (denom_lcm // c.denominator)) for c in coeffs.values()]
    g = 0
    for v in nums:
        g = gcd(g, v)
    factor = Fraction(denom_lcm, g or 1)
    return ({v: c * factor for v, c in coeffs.items()}, bound * factor)


class _Contradiction(Exception):
    pass


def _prune(rows: list[Row]) -> list[Row]:
    """Drop trivial rows, duplicates, and dominated rows (same direction,
    weaker bound).  Raises _Contradiction on ``0 >= positive``."""
    best: dict[tuple, Row] = {}
    for coeffs, bound in rows:
        if not coeffs:
            if bound > 0:
                raise _Contradiction
            continue
        canon_coeffs, canon_bound = _canon(coeffs, bound)
        key = tuple(sorted(canon_coeffs.items()))
        old = best.get(key)
        if old is None or old[1] < canon_bound:
            best[key] = (canon_coeffs, canon_bound)
    return list(best.values())


def _eliminate(rows: list[Row], var: int) -> list[Row]:
    """One Fourier-Motzkin step: combine rows of opposite sign on ``var``."""
    pos: list[Row] = []
    neg: list[Row] = []
    out: list[Row] = []
    for coeffs, bound in rows:
        c = coeffs.get(var)
        if not c:
            out.append((coeffs, bound))
        elif c > 0:
            pos.append((coeffs, bound))
        else:
            neg.append((coeffs, bound))
    for pc, pb in pos:
        a = pc[var]
        for nc, nb in neg:
            b = -nc[var]
            merged: dict[int, Fraction] = {}
            for v, c in pc.items():
                if v != var:
                    merged[v] = c * b
            for v, c in nc.items():
                if v == var:
                    continue
                s = merged.get(v, ZERO) + c * a
                if s:
                    merged[v] = s
                elif v in merged:
                    del merged[v]
            out.append((merged, pb * b + nb * a))
    return out


def _best_elimination_order(rows: list[Row], candidates: set[int]) -> int:
    """Next variable to eliminate: smallest pos*neg product (least growth)."""
    best_var = -1
    best_score = None
    for v in sorted(candidates):
        p = n = 0
        for coeffs, _ in rows:
            c = coeffs.get(v)
            if c:
                if c > 0:
                    p += 1
                else:
                    n += 1
        score = p * n
        if best_score is None or score < best_score:
            best_score = score
            best_var = v
    return best_var

def _project_rows(rows: list[Row], keep: set[int]) -> list[Row] | None:
    """Eliminate all variables outside ``keep``; None means infeasible."""
    try:
        rows = _prune(rows)
        drop = {v for coeffs, _ in rows for v in coeffs} - keep
        while drop:
            v = _best_elimination_order(rows, drop)
            drop.discard(v)
            rows = _prune(_eliminate(rows, v))
            drop &= {v for coeffs, _ in rows for v in coeffs}
    except _Contradiction:
        return None
    return rows


def deduplicate(sys: LinearSystem) -> LinearSystem:
    """Cheap syntactic reduction: scale rows to primitive form, then keep only
    the strongest bound per coefficient direction.  Exact and always sound."""
    rows: list[Row] = []
    for r in range(sys.num_rows):
        coeffs = {v: c for v, c in zip(sys.variables, sys.rows[r]) if c}
        rows.append((coeffs, sys.rhs[r]))
    try:
        reduced = _prune(rows)
    except _Contradiction:
        return LinearSystem(
            sys.variables, ((ZERO,) * sys.num_vars,), (ONE,)
        )
    index = {v: i for i, v in enumerate(sys.variables)}
    out_rows = []
    out_rhs = []
    for coeffs, bound in reduced:
        row = [ZERO] * sys.num_vars
        for v, c in coeffs.items():
            row[index[v]] = c
        out_rows.append(tuple(row))
        out_rhs.append(bound)
    return LinearSystem(sys.variables, tuple(out_rows), tuple(out_rhs))


def drop_redundant(sys: LinearSystem) -> LinearSystem:
    """Greedy exact redundancy elimination: a row is removed when the
    remaining rows entail it (one LP per test)."""
    rows = list(zip(sys.rows, sys.rhs))
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        candidate = LinearSystem(
            sys.variables, tuple(r for r, _ in others), tuple(b for _, b in others)
        )
        coeffs = {v: c for v, c in zip(sys.variables, rows[i][0]) if c}
        if entails(candidate, coeffs, rows[i][1]):
            rows = others
        else:
            i += 1
    return LinearSystem(
        sys.variables, tuple(r for r, _ in rows), tuple(b for _, b in rows)
    )


def fm_project(sys: LinearSystem, keep: Iterable[int], lp_minimize: bool = True) -> LinearSystem:
    """Project ``sys`` onto the ``keep`` variables.

    The result has exactly the solutions of ``sys`` restricted to ``keep``.
    With ``lp_minimize`` (the default) redundant rows are then removed by
    pairwise LP entailment, which gives an irredundant presentation.
    """
    keep_set = set(keep)
    kept_vars = tuple(v for v in sys.variables if v in keep_set)
    rows: list[Row] = []
    for r in range(sys.num_rows):
        coeffs = {v: c for v, c in zip(sys.variables, sys.rows[r]) if c}
        rows.append((coeffs, sys.rhs[r]))
    projected = _project_rows(rows, keep_set)
    if projected is None:
        # canonical empty polyhedron over the kept variables
        return LinearSystem(kept_vars, ((ZERO,) * len(kept_vars),), (ONE,))
    index = {v: i for i, v in enumerate(kept_vars)}
    out_rows: list[tuple[Fraction, ...]] = []
    out_rhs: list[Fraction] = []
    for coeffs, bound in projected:
        row = [ZERO] * len(kept_vars)
        for v, c in coeffs.items():
            row[index[v]] = c
        out_rows.append(tuple(row))
        out_rhs.append(bound)
    result = LinearSystem(kept_vars, tuple(out_rows), tuple(out_rhs))
    return drop_redundant(result) if lp_minimize else result


def project_constraints(
    constraints: Iterable[LinearConstraint],
    keep: Iterable[int],
    lp_minimize: bool = False,
) -> list[LinearConstraint] | None:
    """Existentially project mixed =/>= constraints onto ``keep``.

    Equalities are used for exact substitution before any Fourier-Motzkin
    combination happens, which is what keeps projection of the per-rule
    multiplier systems cheap.  Returns None when the input is (exactly)
    unsatisfiable; equalities purely over kept variables survive as
    equalities.
    """
    keep_set = set(keep)
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for c in constraints:
        g = c.gap()
        row = (dict(g.coeffs), -g.const)
        (eqs if c.rel == EQ else ineqs).append(row)

    # substitution pass: solve equalities for variables being eliminated
    changed = True
    while changed:
        changed = False
        for k, (coeffs, bound) in enumerate(eqs):
            var = next((v for v in coeffs if v not in keep_set), None)
            if var is None:
                continue
            a = coeffs[var]
            sub = {v: -c / a for v, c in coeffs.items() if v != var}
            sub_const = bound / a  # var = sub_const + sub . rest
            del eqs[k]

            def apply(rows: list[Row]) -> list[Row]:
                out = []
                for cs, bd in rows:
                    f = cs.get(var)
                    if not f:
                        out.append((cs, bd))
                        continue
                    merged = {v: c for v, c in cs.items() if v != var}
                    for v, c in sub.items():
                        s = merged.get(v, ZERO) + f * c
                        if s:
                            merged[v] = s
                        elif v in merged:
                            del merged[v]
                    out.append((merged, bd - f * sub_const))
                return out

            eqs = apply(eqs)
            ineqs = apply(ineqs)
            changed = True
            break

    for coeffs, bound in eqs:
        if not coeffs and bound != 0:
            return None

    ineq_rows = _project_rows(ineqs, keep_set)
    if ineq_rows is None:
        return None

    def constraint(coeffs: dict[int, Fraction], bound: Fraction, rel: str) -> LinearConstraint:
        return LinearConstraint(LinearExpr(coeffs), rel, LinearExpr.of_const(bound))

    out = [constraint(c, b, EQ) for c, b in eqs if c]
    out += [constraint(c, b, GEQ) for c, b in ineq_rows]
    if lp_minimize and out:
        sys = normalize(out)
        return drop_redundant(sys).constraints()
    return out
