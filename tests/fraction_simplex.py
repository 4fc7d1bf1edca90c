"""Reference oracle for the simplex kernel of ``almterm.lp``.

A dense two-phase simplex with Bland's rule over ``fractions.Fraction``
tableau entries: the straightforward form of the algorithm, which carries
every column through every pivot.  ``almterm.lp._phase_one`` and
``almterm.lp._phase_two`` (``test_lp_kernel.solve_standard`` composes them)
are a revised simplex over an integer basis inverse instead, an independent
form of the same algorithm.  Both make the same pivot choices on the same
rational values, so for equal inputs they must pivot alike and return equal
``(status, point, value, duals, ray)`` tuples.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


def _priced(tableau, basis, costs):
    """Reduced-cost row c - c_B.B^-1.M for the current tableau."""
    obj = list(costs)
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb:
            row = tableau[i]
            for j, t in enumerate(row):
                if t:
                    obj[j] -= cb * t
    return obj


def _pivot(tableau, rhs, basis, obj, r, c) -> None:
    piv = tableau[r][c]
    if piv != 1:
        inv = ONE / piv
        tableau[r] = [a * inv for a in tableau[r]]
        rhs[r] = rhs[r] * inv
    prow = tableau[r]
    pb = rhs[r]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            tableau[i] = [a - f * p for a, p in zip(row, prow)]
            rhs[i] -= f * pb
    f = obj[c]
    if f:
        for j, p in enumerate(prow):
            if p:
                obj[j] -= f * p
    basis[r] = c


def _bland(tableau, rhs, basis, obj, eligible: int):
    """Run Bland-rule pivots until optimal or unbounded.

    Only columns < eligible may enter (artificials never re-enter).  Returns
    ("optimal", -1) or ("unbounded", entering_column).
    """
    while True:
        enter = -1
        for j in range(eligible):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, -1
        leave = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = rhs[i] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, enter
        _pivot(tableau, rhs, basis, obj, leave, enter)


def _solve_standard(mat, d, costs):
    """Two-phase simplex for min costs.w s.t. mat w = d, w >= 0.

    Returns (status, point, value, duals, ray).  ``duals`` are the phase-one
    equality multipliers and are only returned on INFEASIBLE (that is the one
    place a caller needs them); ``ray`` only on UNBOUNDED.
    """
    m = len(mat)
    ncols = len(costs)
    tableau: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flipped: list[bool] = []
    for row, b in zip(mat, d):
        if b < 0:
            tableau.append([-a for a in row])
            rhs.append(-b)
            flipped.append(True)
        else:
            tableau.append(list(row))
            rhs.append(b)
            flipped.append(False)
    # artificial identity block; artificials start basic and never re-enter
    for i in range(m):
        tableau[i].extend(ONE if j == i else ZERO for j in range(m))
    basis = list(range(ncols, ncols + m))

    phase1 = [ZERO] * ncols + [ONE] * m
    obj = _priced(tableau, basis, phase1)
    status, _ = _bland(tableau, rhs, basis, obj, ncols)
    assert status == OPTIMAL, "phase one is bounded below by zero"
    infeasibility = sum((rhs[i] for i in range(m) if basis[i] >= ncols), ZERO)
    if infeasibility > 0:
        duals = [ONE - obj[ncols + i] for i in range(m)]
        duals = [-w if flipped[i] else w for i, w in enumerate(duals)]
        return INFEASIBLE, None, None, duals, None

    # drive leftover artificials out of the basis; drop redundant rows
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tableau[i][j] != 0), -1)
            if col >= 0:
                _pivot(tableau, rhs, basis, obj, i, col)
            else:
                drop.append(i)
    if drop:
        keep = [i for i in range(len(tableau)) if i not in drop]
        tableau = [tableau[i] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]

    full_costs = list(costs) + [ZERO] * m
    obj = _priced(tableau, basis, full_costs)
    status, enter = _bland(tableau, rhs, basis, obj, ncols)

    point = [ZERO] * ncols
    for i, bi in enumerate(basis):
        if bi < ncols:
            point[bi] = rhs[i]
    if status == UNBOUNDED:
        ray = [ZERO] * ncols
        ray[enter] = ONE
        for i, bi in enumerate(basis):
            if bi < ncols:
                ray[bi] = -tableau[i][enter]
        return UNBOUNDED, point, None, None, ray
    value = sum((costs[j] * point[j] for j in range(ncols) if point[j]), ZERO)
    return OPTIMAL, point, value, None, None
