"""Exact rational linear programming and polyhedral projection.

A linear row (:data:`Row`) is sparse: a dict of nonzero int coefficients by
variable id and an exact bound.  A :class:`LinearSystem` is a conjunction of
``>=`` rows over a tuple of variables, which fixes the column order of the
solver.  The solver is a two-phase simplex with Bland's rule, so every run
terminates and every answer (feasible / infeasible / unbounded / optimal
value and point) is exact; no floating point appears anywhere.

The kernel is a revised simplex (Dantzig and Orchard-Hays, 1954).  It keeps
only the basis inverse ``B^-1`` and the reduced-cost row over its columns,
each row as Python ints: the numerators of its entries and of its rhs over one
positive denominator of its own.  It reads the matrix as sparse integer
columns and prices them by sparse dot products, only as far as Bland's rule
looks.  Python ints never overflow and every update is an exact integer
identity (a pivot brings a row and the pivot row to a common denominator
before subtracting, then divides out the row's gcd), so the kernel holds
exactly the rationals a Fraction tableau would hold, and Bland's choices,
taken by integer sign tests and cross-multiplied ratio comparisons, are the
same: every pivot, point, ray, value and dual is the dense tableau's.  A
builder that puts a fractional bound into a column multiplies that column by
the bound's denominator: scaling a column by ``k > 0`` changes no sign test
and no ratio comparison of Bland's rule, so no pivot and no phase-one dual.

Every LP question is asked on the system's row-multiplier side (the affine
Farkas lemma and LP duality), over the columns of the one private builder
``_alternative``: a row per *variable*, then the bound row, over a column per
system row (``_tested`` adds a tested row's two).  Deciding systems with
thousands of rows over a handful of variables so stays cheap.  Feasibility
and entailment are yes/no questions, each one phase one.
:func:`feasible_point` asks for nonnegative multipliers that cancel every
variable and combine the right-hand sides to 1; when there are none, phase
one's equality duals yield an exact point of the system for free.
:func:`entails` asks for multipliers that combine the rows into the tested
row or refute the system.  :func:`drop_redundant` asks that of a row only
when no certificate read off one feasible point decides it without a pivot:
a ray from the point that crosses the row before any other row keeps it, and
a box of one-variable rows on which the row holds drops it.
:func:`minimize` solves each objective's dual, multipliers that combine the
rows into the objective with the largest combined bound, by one phase one
and one phase two; the optimum's point is the final basis's simplex
multipliers, read off the reduced-cost row phase two ends with, and the
basic multipliers are the certificate it is checked against before it is
returned.  On a box, a system whose rows each mention one variable, it
reads the outcomes off the bounds instead, with no pivot and no check.

Projection works on the same rows.  :func:`project_constraints` is the one
routine: equality substitution, then Fourier-Motzkin elimination with
duplicate and dominated rows pruned after every step, all by integer
cross-multiplication and a gcd.  ``fm_project`` and ``deduplicate`` hand a
system's rows to it unchanged; the verifier's presolve reuses its equality
substitution and its pruning.

:func:`integer_system` builds a system from the rows a rule holds
(:data:`almterm.model.ConstraintRow`), over a domain from
:meth:`almterm.model.Rule.domain_rows` with its ``x >= 0`` rows, and
objectives are coefficient dicts, so nothing is converted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .model import EQ, AlmtermError, ConstraintRow

ZERO = Fraction(0)

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


def integer_system(rows: Iterable[ConstraintRow], order_hint: Sequence[int] = ()) -> LinearSystem:
    """Mixed =/>= integer rows as one system of ``>=`` rows.

    Rows keep their order, and an equality is followed by its negation; a
    domain's ``x >= 0`` rows are ordinary rows here, as
    :meth:`almterm.model.Rule.domain_rows` writes them.  Variable order is
    deterministic: ``order_hint`` first, then first occurrence.  Bland's
    path, and so every point the solver returns, depends on both orders.
    """
    out: list[Row] = []
    for coeffs, bound, rel in rows:
        out.append((coeffs, bound))
        if rel == EQ:
            out.append(({v: -k for v, k in coeffs.items()}, -bound))
    variables = dict.fromkeys([*order_hint, *[v for coeffs, _ in out for v in coeffs]])
    return LinearSystem(tuple(variables), tuple(out))


# ---------------------------------------------------------------------------
# simplex core: min cost.w  subject to  M w = d, w >= 0
# ---------------------------------------------------------------------------

# a column of M: its nonzero entries as (row, value) pairs
Column = list[tuple[int, int]]


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


def _minus(row: list[int], prow: list[int], f: int) -> list[int]:
    """``row - (f / d) * prow``, where ``d`` is the denominator of ``row``;
    both are integer rows (numerators, then one denominator)."""
    p = prow[-1]
    g = gcd(f, p)
    k = p // g
    f //= g
    out = [a * k - f * b for a, b in zip(row, prow[:-1])]
    out.append(row[-1] * k)
    return _reduced(out)


def _column(inv, col: Column) -> list[int]:
    """``B^-1`` times the column ``col``: an entry per row of ``inv``, the
    numerator over that row's denominator."""
    out = []
    for row in inv:
        a = 0
        for k, v in col:
            a += row[k] * v
        out.append(a)
    return out


def _prices(inv, basis, costs: list[int]) -> list[int]:
    """The reduced-cost row over the columns of ``B^-1`` and the rhs: minus
    the simplex multipliers ``c_B.B^-1``, then minus the objective value, over
    one denominator.  ``costs`` are ints and cover every basic column."""
    basic = [i for i, b in enumerate(basis) if costs[b]]
    den = lcm(*[inv[i][-1] for i in basic])
    obj = [0] * (len(inv) + 1) + [den]
    for i in basic:
        row = inv[i]
        w = costs[basis[i]] * (den // row[-1])
        for k in range(len(row) - 1):
            if row[k]:
                obj[k] -= w * row[k]
    return _reduced(obj)


def _pivot(inv, basis, r, c, col, obj=None, f=0) -> None:
    """Make column ``c``, whose ``B^-1`` image is ``col``, basic in row ``r``.
    ``f`` is its reduced cost over the denominator of ``obj``, which is
    updated in place."""
    p = col[r]
    row = inv[r]
    # dividing the row by its pivot entry keeps the numerators over |p|
    prow = row[:-1] + [p] if p > 0 else [-a for a in row[:-1]] + [-p]
    prow = inv[r] = _reduced(prow)
    for i, a in enumerate(col):
        if a and i != r:
            inv[i] = _minus(inv[i], prow, a)
    basis[r] = c
    if f:
        obj[:] = _minus(obj, prow, f)


def _bland(cols, inv, basis, obj, costs, eligible: int):
    """Run Bland-rule pivots until optimal or unbounded.

    Column ``j``'s reduced cost is ``costs[j] + obj.M_j`` over the
    denominator of ``obj``, priced only until the first negative one.  Only
    columns < eligible may enter (artificials never re-enter).  Returns
    OPTIMAL, or UNBOUNDED when the entering column's ``B^-1`` image has no
    positive entry.
    """
    while True:
        den = obj[-1]
        for enter in range(eligible):
            f = costs[enter] * den
            for k, v in cols[enter]:
                f += obj[k] * v
            if f < 0:
                break
        else:
            return OPTIMAL
        col = _column(inv, cols[enter])
        leave = -1
        for i, a in enumerate(col):
            if a > 0:
                # ratios rhs/a share the row denominator: compare crosswise
                b = inv[i][-2]
                if (
                    leave < 0
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and basis[i] < basis[leave])
                ):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return UNBOUNDED
        _pivot(inv, basis, leave, enter, col, obj, f)


def _phase_one(cols: list[Column], d):
    """Phase one of the simplex for ``M w = d, w >= 0``, with ``cols`` the
    integer columns of ``M`` and ``d`` the rhs (ints or Fractions); it does
    not depend on any costs.

    Returns ``((inv, basis), None)``: ``B^-1`` and the basis of a feasible
    vertex, ready for :func:`_phase_two`; or ``(None, duals)`` with the
    phase-one equality multipliers when the system is infeasible.

    ``B`` is a basis of the columns and the artificial ones, and row ``i`` of
    ``inv`` is ``[numerators of row i of B^-1..., numerator of the rhs,
    denominator]`` (see :func:`_to_row`).  An artificial left basic at zero
    in a redundant row stays there: its row of ``B^-1 M`` is zero, so no
    later pivot reads or changes it.
    """
    m = len(d)
    ncols = len(cols)
    # the artificial of row i is the column sign(d_i) * e_i, so that every
    # artificial starts basic at |d_i|
    inv: list[list[int]] = []
    for i, b in enumerate(d):
        row = [0] * (m + 2)
        row[i] = b.denominator if b >= 0 else -b.denominator
        row[m] = abs(b.numerator)
        row[m + 1] = b.denominator
        inv.append(row)
    basis = list(range(ncols, ncols + m))

    costs = [0] * ncols + [1] * m
    obj = _prices(inv, basis, costs)
    if _bland(cols, inv, basis, obj, costs, ncols) != OPTIMAL:
        raise AlmtermError("internal: phase one is not bounded below by zero")
    if any(row[-2] for row, b in zip(inv, basis) if b >= ncols):
        return None, [Fraction(-obj[i], obj[-1]) for i in range(m)]

    # drive leftover artificials out of the basis where their row of B^-1 M
    # has a nonzero entry
    for i in range(m):
        if basis[i] >= ncols:
            row = inv[i]
            j = next((j for j in range(ncols) if sum(row[k] * v for k, v in cols[j])), -1)
            if j >= 0:
                _pivot(inv, basis, i, j, _column(inv, cols[j]))
    return (inv, basis), None


def _phase_two(cols, inv, basis, costs: list[int]):
    """Phase two over the columns ``cols`` from a :func:`_phase_one` state,
    whose ``inv`` and ``basis`` it pivots in place: min costs.w over integer
    ``costs``.  Returns (status, value, obj): ``obj`` is the reduced-cost row
    of ``costs`` at the final basis, as :func:`_prices` writes it, and
    ``value``, read off it, is None unless OPTIMAL."""
    # artificials left basic at zero cost nothing
    ints = costs + [0] * len(inv)
    obj = _prices(inv, basis, ints)
    status = _bland(cols, inv, basis, obj, ints, len(costs))
    return status, Fraction(-obj[-2], obj[-1]) if status == OPTIMAL else None, obj


def _alternative(sys: LinearSystem, order: Iterable[int]) -> list[Column]:
    """The row-multiplier side of ``sys`` as ``_phase_one`` columns: a column
    per row of ``sys``, holding its coefficients in a row per variable of
    ``order`` (a superset of ``sys.variables``) and its bound in the row
    after them, all times the bound's denominator."""
    index = {v: k for k, v in enumerate(order)}
    last = len(index)
    cols: list[Column] = []
    for coeffs, bound in sys.rows:
        den = bound.denominator
        col = [(index[v], c * den) for v, c in coeffs.items()]
        if bound:
            col.append((last, bound.numerator))
        cols.append(col)
    return cols


def _tested(coeffs: Mapping[int, int | Fraction], bound, index: Mapping[int, int]) -> list[Column]:
    """The two columns that test the row ``coeffs . x >= bound`` against
    ``_alternative``'s columns over ``index`` (see :func:`entails`): ``lam``'s,
    minus the row in the variable rows and the bound row and 1 in the row
    after them, all times the lcm of the row's denominators; and ``t``'s."""
    last = len(index)
    *nums, b, den = _to_row([*coeffs.values(), bound])
    lam = [(index[v], -a) for v, a in zip(coeffs, nums) if a]
    if b:
        lam.append((last, -b))
    lam.append((last + 1, den))
    return [lam, [(last, -1), (last + 1, 1)]]


# ---------------------------------------------------------------------------
# public solving interface over LinearSystem
# ---------------------------------------------------------------------------


def minimize(sys: LinearSystem, *objectives: Mapping[int, int | Fraction]) -> tuple[LpOutcome, ...]:
    """Exact minimum of each objective ``sum(c * v for v, c in
    objective.items())`` over ``sys`` (variables unrestricted): one outcome
    per objective, in order, with points and rays over the system's
    variables and then the objective's own.

    Each objective ``c`` is solved as its LP dual (Gale, Kuhn and Tucker,
    1951), max ``b.y`` over ``y >= 0`` with ``A^T y = c``, on
    ``_alternative``'s columns with the bound row as costs: one phase one
    and one phase two, over a basis of a row per variable.  With no such
    ``y``, minus phase one's equality duals are a ray ``r`` (``A r >= 0``,
    ``c.r < 0``), and the outcome is UNBOUNDED at :func:`feasible_point`'s
    point, found once per call, or INFEASIBLE without one; an unbounded
    ``b.y`` means INFEASIBLE too.  Otherwise the point is the final basis's
    simplex multipliers, deterministic under Bland's order, and the optimum
    is checked by :func:`_check_optimum` before it is returned.  A box, a
    system whose rows each mention one variable, needs no simplex: its
    outcomes are the simplex's, read off its bounds by :func:`_box_minimize`
    with no pivot and nothing to check, and an unbounded one takes the box's
    point and ray.
    """
    if all(len(coeffs) == 1 for coeffs, _ in sys.rows):
        return _box_minimize(sys, objectives)
    cols = _alternative(sys, sys.variables)
    # each column's bound entry, popped, is its cost in min -b.y
    costs = [-col.pop()[1] if bound else 0 for col, (_, bound) in zip(cols, sys.rows)]
    base = cache(lambda: feasible_point(sys))
    outcomes: list[LpOutcome] = []
    for objective in objectives:
        order = tuple(dict.fromkeys([*sys.variables, *objective]))
        c = [objective.get(v, 0) for v in order]
        state, duals = _phase_one(cols, c)
        if state is None:
            point = base()
            if point is None:
                outcomes.append(LpOutcome(INFEASIBLE))
            else:
                point = {**point, **{v: ZERO for v in order[sys.num_vars :]}}
                ray = {v: -duals[k] for k, v in enumerate(order)}
                outcomes.append(LpOutcome(UNBOUNDED, point=point, ray=ray))
            continue
        inv, basis = state
        status, value, prices = _phase_two(cols, inv, basis, costs)
        if status == UNBOUNDED:
            outcomes.append(LpOutcome(INFEASIBLE))
            continue
        _check_optimum(cols, costs, c, state, prices, -value)
        point = {v: Fraction(prices[k], prices[-1]) for k, v in enumerate(order)}
        outcomes.append(LpOutcome(OPTIMAL, -value, point))
    return tuple(outcomes)


def _box_minimize(sys: LinearSystem, objectives) -> tuple[LpOutcome, ...]:
    """:func:`minimize` over ``sys``, whose rows ``a x >= b`` each bound one
    variable (from below if ``a > 0``), by its tightest bounds: each term
    ``c * x`` takes the bound ``c`` pulls towards, or is unbounded along
    ``-sign(c) e_x`` without one.  A point sets each system variable to its
    lower bound, else its upper one, else 0, then the objective's own."""
    lo: dict[int, int | Fraction] = {}
    hi: dict[int, int | Fraction] = {}
    for coeffs, bound in sys.rows:
        ((v, a),) = coeffs.items()
        # the bound of a primitive row stays as it is, an int or a Fraction
        b = bound if a == 1 else -bound if a == -1 else Fraction(bound, a)
        if a > 0:
            if v not in lo or b > lo[v]:
                lo[v] = b
        elif v not in hi or b < hi[v]:
            hi[v] = b
    for v, b in lo.items():
        if v in hi and b > hi[v]:
            return (LpOutcome(INFEASIBLE),) * len(objectives)
    corner = {v: Fraction(lo[v] if v in lo else hi.get(v, 0)) for v in sys.variables}
    outcomes = []
    for objective in objectives:
        point = corner.copy()
        if not objective.keys() <= corner.keys():
            point.update((v, ZERO) for v in objective if v not in corner)
        value = 0
        for v, c in objective.items():
            if not c:
                continue
            b = (lo if c > 0 else hi).get(v)
            if b is None:
                ray = dict.fromkeys(point, ZERO)
                ray[v] = Fraction(-1 if c > 0 else 1)
                outcomes.append(LpOutcome(UNBOUNDED, point=point, ray=ray))
                break
            # the corner is already at the lower bound, or at the upper one
            # when there is no lower bound
            if c < 0 and v in lo:
                point[v] = Fraction(b)
            value += c * b
        else:
            outcomes.append(LpOutcome(OPTIMAL, Fraction(value), point))
    return tuple(outcomes)


def _check_optimum(cols, costs, c, state, prices, value) -> None:
    """Raise :class:`AlmtermError` (``internal: ...``) unless the point
    ``x``, the numerators ``prices[:len(c)]`` over ``prices[-1]``, satisfies
    every row and attains ``value`` on the objective ``c``, and the basic
    multipliers ``y`` of ``state`` are ``>= 0`` with ``A^T y = c`` and
    ``b.y = value``: by weak duality, ``value`` is then the minimum.  The
    rows are read as integers off ``minimize``'s columns and costs: column
    ``j`` holds row ``j`` times its bound's denominator, and ``-costs[j]``
    the bound's numerator."""
    x, den = prices[: len(c)], prices[-1]
    inv, basis = state
    basic = [row for row, j in zip(inv, basis) if j < len(cols)]
    yden = lcm(*[row[-1] for row in basic])
    combined = [0] * len(c)
    bound = 0
    for row, j in zip(inv, basis):
        if j < len(cols):
            y = row[-2] * (yden // row[-1])
            for k, a in cols[j]:
                combined[k] += a * y
            bound -= costs[j] * y
    if not (
        all(sum(a * x[k] for k, a in col) >= -cost * den for col, cost in zip(cols, costs))
        and sum(a * b for a, b in zip(c, x)) == value * den
        and all(row[-2] >= 0 for row in basic)
        and combined == [a * yden for a in c]
        and bound == value * yden
    ):
        raise AlmtermError("internal: an optimum fails its certificate")


def feasible_point(sys: LinearSystem) -> dict[int, Fraction] | None:
    """An exact rational point satisfying every row, or None.

    Decided by phase one alone on the row-multiplier alternative (see module
    docstring), whose size is governed by the variable count rather than the
    row count: the point is read off the phase-one duals, and phase two never
    runs.  The returned point is checked against the system before being
    handed out; a point that fails the check raises :class:`AlmtermError`
    (``internal: ...``), under ``python -O`` too.
    """
    m = sys.num_rows
    n = sys.num_vars
    if m == 0:
        return {v: ZERO for v in sys.variables}
    # the multipliers must cancel every variable and combine the rhs to 1;
    # the system is feasible exactly when they cannot, and then phase one's
    # equality duals, scaled by the bound row's, are a point of it
    state, duals = _phase_one(_alternative(sys, sys.variables), [0] * n + [1])
    if state is not None:
        return None
    scale = duals[n]
    if scale <= 0:
        raise AlmtermError("internal: alternative-system duals do not combine the rhs positively")
    point = {v: -duals[k] / scale for k, v in enumerate(sys.variables)}
    if not sys.satisfied_by(point):
        raise AlmtermError("internal: extracted point does not satisfy the system")
    return point


def entails(sys: LinearSystem, coeffs: Mapping[int, int | Fraction], bound: int | Fraction) -> bool:
    """Does every solution of ``sys`` satisfy ``coeffs . x >= bound``?

    Decided on the multiplier side by the affine Farkas lemma, with one phase
    one: are there ``y >= 0`` (one per row), ``lam >= 0`` and ``t >= 0`` with
    ``A^T y = lam * coeffs``, ``b.y - lam * bound - t = 0`` and
    ``lam + t = 1``?  With ``lam > 0``, ``y / lam`` combines rows into one
    that implies the tested row; with ``lam = 0``, ``y`` refutes ``sys``, which
    then entails every row.  The basis has a row per variable (of ``sys``
    and of ``coeffs``) and two more.
    """
    index = {v: k for k, v in enumerate(dict.fromkeys([*sys.variables, *coeffs]))}
    cols = _alternative(sys, index) + _tested(coeffs, bound, index)
    state, _ = _phase_one(cols, [0] * (len(index) + 1) + [1])
    return state is not None


def equivalent_systems(a: LinearSystem, b: LinearSystem) -> bool:
    """Solution-set equality over the union of both variable tuples,
    established by mutual row entailment: one :func:`entails` test per row
    of each side against the other (exact, no tolerance)."""
    return all(
        entails(other, coeffs, bound)
        for sys, other in ((a, b), (b, a))
        for coeffs, bound in sys.rows
    )


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
    if not isinstance(keep, set):
        keep = set(keep)
    eqs = list(eqs)
    ineqs = list(ineqs)
    k = 0
    while k < len(eqs):
        for var in eqs[k][0]:
            if var not in keep:
                break
        else:
            k += 1
            continue
        eq = eqs.pop(k)
        # only the rows that mention ``var`` change, in place
        for rows in (eqs, ineqs):
            for i, row in enumerate(rows):
                if var in row[0]:
                    rows[i] = _substitute(row, var, eq)
    for coeffs, bound in eqs:
        if not coeffs and bound:
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
    """Greedy exact redundancy elimination: in row order, a row is removed
    when the remaining rows entail it.

    A test needs no pivot when an exact certificate is at hand at the point
    ``x0`` of :func:`feasible_point`, which stays in the polyhedron because
    only entailed rows are removed: :func:`_bound_drops` shows the row
    entailed, :func:`_ray_keeps` shows it is not.  Otherwise, and for an
    infeasible system, the test is :func:`entails`' phase one over the
    columns of the remaining rows, each built once per call.
    """
    index = {v: k for k, v in enumerate(sys.variables)}
    cols = _alternative(sys, index)
    d = [0] * (len(index) + 1) + [1]
    point = feasible_point(sys)
    if point is not None:
        rows = _rows_at(cols, len(index), [point[v] for v in sys.variables])
    live = list(range(sys.num_rows))
    i = 0
    while i < len(live):
        j = live[i]
        others = live[:i] + live[i + 1 :]
        if point is not None and _bound_drops(rows, j, others):
            entailed = True
        elif point is not None and _ray_keeps(rows, j, others):
            entailed = False
        else:
            state, _ = _phase_one([cols[k] for k in others] + _tested(*sys.rows[j], index), d)
            entailed = state is not None
        if entailed:
            live = others
        else:
            i += 1
    return LinearSystem(sys.variables, tuple(sys.rows[j] for j in live))


def _rows_at(cols: list[Column], n: int, point: Sequence[Fraction]):
    """``_alternative``'s columns over ``n`` variables as the rows that
    :func:`_ray_keeps` and :func:`_bound_drops` read: each row's coefficients
    by variable index and its bound's numerator, both times the bound's
    denominator; its slack at ``point`` times one positive integer, common to
    every row; and for a row ``c x_v >= b`` on one variable, ``(v, c > 0, b /
    c)``: a lower bound on ``x_v`` if ``c > 0``, else an upper one."""
    x = _to_row(point)
    x[-1] = -x[-1]
    coeffs = []
    nums = []
    bounds = []
    for col in cols:
        row = [0] * (n + 1)
        for k, a in col:
            row[k] += a
        nums.append(row.pop())
        coeffs.append(row)
        support = [(v, c) for v, c in enumerate(row) if c]
        if len(support) == 1:
            ((v, c),) = support
            bounds.append((v, c > 0, Fraction(nums[-1], c)))
        else:
            bounds.append(None)
    slacks = [sum(a * x[k] for k, a in col) for col in cols]
    return coeffs, nums, slacks, bounds


def _ray_keeps(rows, i: int, others: Iterable[int]) -> bool:
    """Does a ray from the point cross row ``i`` strictly before it crosses
    any row of ``others``?  Then the points just past row ``i`` violate it and
    satisfy ``others``, which so do not entail it (Fukuda's ray shooting).

    ``rows`` are :func:`_rows_at`'s.  The rays go along ``-a_i``, then along
    ``-sign(a_iv) e_v`` for each variable ``v`` of the row.  Along ``-r`` row
    ``j``'s slack falls at the rate ``a_j.r`` and reaches 0 at ``slack_j /
    (a_j.r)``; the crossings are compared by cross-multiplying.
    """
    coeffs, _, slacks, _ = rows
    a = coeffs[i]
    units = [[0] * v + [1 if c > 0 else -1] + [0] * (len(a) - v - 1) for v, c in enumerate(a) if c]
    if not units:
        # no ray crosses a row without variables
        return False
    s = slacks[i]
    for ray in (a, *units):
        rate = sum(map(mul, a, ray))
        for j in others:
            falls = sum(map(mul, coeffs[j], ray))
            if falls > 0 and s * falls >= slacks[j] * rate:
                break
        else:
            return True
    return False


def _bound_drops(rows, i: int, others: Iterable[int]) -> bool:
    """Is the minimum of row ``i``'s left side over the box of the
    one-variable rows among ``others`` at least its bound?  Then those rows
    entail it.  ``rows`` are :func:`_rows_at`'s; a row without variables
    needs no box."""
    coeffs, nums, _, bounds = rows
    a = coeffs[i]
    box: dict[int, Fraction] = {}
    for j in others:
        if bounds[j] is not None:
            v, lower, t = bounds[j]
            # row i's minimum reads the bound on the side of its sign
            if a[v] and (a[v] > 0) == lower:
                old = box.get(v)
                if old is None or (t > old if lower else t < old):
                    box[v] = t
    support = [(v, c) for v, c in enumerate(a) if c]
    return len(box) == len(support) and sum(c * box[v] for v, c in support) >= nums[i]


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
