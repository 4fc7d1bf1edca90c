"""The revised simplex kernel against the Fraction reference oracle.

``_phase_one`` followed by ``_phase_two`` (composed here as
:func:`solve_standard`) must return exactly what the dense Fraction tableau of
``fraction_simplex`` returns: same status, point, value, phase-one duals and
ray.  The kernel carries only the basis inverse and prices columns on demand,
the reference carries every column through every pivot; both take Bland's
choices on the same rational values, so they must also make the same pivots,
one by one, which :func:`assert_matches_reference` checks too.

The kernel reads integer columns, so each matrix here has its columns scaled
to integers (:func:`integer_columns`) before either side sees it.  Scaling a
column by ``k > 0`` changes no pivot and no phase-one dual, which is what
lets ``lp``'s builders scale a column that holds a fractional bound;
:func:`test_scaling_columns_changes_no_pivot_and_no_dual` checks that against
the reference on the unscaled matrix.
"""

import inspect
import random
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex
from almterm import lp
from almterm.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, _phase_one, _phase_two
from fraction_simplex import _solve_standard as reference_solve

F = Fraction
BIG = 10**12

# zero twice: the callers' matrices are sparse
entries = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(BIG - 10**3, BIG + 10**3)),
)


@st.composite
def standard_lps(draw):
    """``min costs.w s.t. mat w = d, w >= 0`` with at most 6 rows; some rows
    are multiples of earlier ones (redundant equalities)."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 7))
    mat = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    d = draw(st.lists(entries, min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.integers(0, 3)) == 0:
            src = draw(st.integers(0, i - 1))
            k = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 3)]))
            mat[i] = [k * a for a in mat[src]]
            d[i] = k * d[src]
    costs = draw(st.lists(entries, min_size=n, max_size=n))
    return mat, d, costs


def solve_standard(mat, d, costs):
    """Two-phase simplex for ``min costs.w s.t. mat w = d, w >= 0``.

    Returns (status, point, value, duals, ray).  ``duals`` are the phase-one
    equality multipliers and are only returned on INFEASIBLE; ``ray`` only on
    UNBOUNDED.  The point and the ray are read off the basis that
    ``_phase_two`` leaves: the ray's column is the one Bland's rule stopped
    at, the first that the reduced-cost row it returns prices negative.
    """
    ncols = len(costs)
    cols = [[(i, int(row[j])) for i, row in enumerate(mat) if row[j]] for j in range(ncols)]
    state, duals = _phase_one(cols, d)
    if state is None:
        return INFEASIBLE, None, None, duals, None
    inv, basis = state
    status, value, obj = _phase_two(cols, inv, basis, costs)
    point = [F(0)] * ncols
    for row, b in zip(inv, basis):
        if b < ncols:
            point[b] = F(row[-2], row[-1])
    if status == OPTIMAL:
        return status, point, value, None, None
    enter = next(j for j in range(ncols) if costs[j] * obj[-1] + sum(obj[k] * v for k, v in cols[j]) < 0)
    ray = [F(0)] * ncols
    ray[enter] = F(1)
    for a, row, b in zip(lp._column(inv, cols[enter]), inv, basis):
        if b < ncols:
            ray[b] = F(-a, row[-1])
    return status, point, None, None, ray


def integer_columns(mat, ncols):
    """``mat`` (``ncols`` columns) with each column times the lcm of its
    entries' denominators, and those multipliers."""
    scales = [lcm(*[row[j].denominator for row in mat]) for j in range(ncols)]
    return [[a * k for a, k in zip(row, scales)] for row in mat], scales


@contextmanager
def recorded_pivots(module):
    """Record the (leaving basic column, entering column) of every call of
    ``module._pivot``; both kernels name its basis, row and column
    arguments ``basis``, ``r`` and ``c``."""
    seen = []
    inner = module._pivot

    def recording(*args, **kwargs):
        bound = inspect.signature(inner).bind(*args, **kwargs).arguments
        seen.append((bound["basis"][bound["r"]], bound["c"]))
        return inner(*args, **kwargs)

    module._pivot = recording
    try:
        yield seen
    finally:
        module._pivot = inner


def assert_matches_reference(mat, d, costs):
    """Same result and the same pivots, one by one, as the reference, both on
    ``mat`` with its columns scaled to integers."""
    mat, _ = integer_columns(mat, len(costs))
    with recorded_pivots(lp) as got_pivots, recorded_pivots(fraction_simplex) as want_pivots:
        got = solve_standard(mat, d, costs)
        want = reference_solve(mat, d, costs)
    assert got == want
    assert got_pivots == want_pivots
    return got


@settings(max_examples=400, deadline=None)
@given(standard_lps())
def test_kernel_matches_fraction_reference(lp):
    assert_matches_reference(*lp)


@settings(max_examples=300, deadline=None)
@given(standard_lps())
def test_scaling_columns_changes_no_pivot_and_no_dual(lp_):
    """The kernel on integer columns and costs, each scaled by ``k_j > 0``,
    pivots as the reference does on the unscaled ones, with the same status,
    value and phase-one duals, and the point scaled by ``1 / k_j``."""
    mat, d, costs = lp_
    scaled, scales = integer_columns(mat, len(costs))
    with recorded_pivots(lp) as got_pivots, recorded_pivots(fraction_simplex) as want_pivots:
        status, point, value, duals, _ = solve_standard(scaled, d, [c * k for c, k in zip(costs, scales)])
        want_status, want_point, want_value, want_duals, _ = reference_solve(mat, d, costs)
    assert (status, value, duals) == (want_status, want_value, want_duals)
    assert point is None or [a * k for a, k in zip(point, scales)] == want_point
    assert got_pivots == want_pivots


CASES = {
    # m = 0: phase one is empty, phase two sees only the costs
    "no-rows-optimal": ([], [], [F(1), F(0)], OPTIMAL),
    "no-rows-unbounded": ([], [], [F(0), F(-1)], UNBOUNDED),
    "no-rows-no-columns": ([], [], [], OPTIMAL),
    # a zero row with zero rhs is redundant; with nonzero rhs it is infeasible
    "zero-row-redundant": ([[F(0), F(0)], [F(1), F(1)]], [F(0), F(3)], [F(1), F(2)], OPTIMAL),
    "zero-row-infeasible": ([[F(0), F(0)], [F(1), F(1)]], [F(-2), F(3)], [F(1), F(2)], INFEASIBLE),
    # negative right-hand sides are flipped, and the duals flip back
    "negative-rhs": ([[F(-1), F(1)], [F(1), F(2)]], [F(-2), F(7)], [F(1), F(0)], OPTIMAL),
    "negative-rhs-infeasible": ([[F(1), F(1)], [F(1), F(1)]], [F(-1), F(2)], [F(0), F(0)], INFEASIBLE),
    # equal ratios in every pivot: ties go to the smallest basic index
    "degenerate-ties": (
        [[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(2), F(1), F(1)]],
        [F(1), F(1), F(2)],
        [F(-1), F(-1), F(-1)],
        OPTIMAL,
    ),
    # duplicated and scaled equalities leave artificials at zero on zero rows
    "duplicated-rows": (
        [[F(1), F(1), F(1)], [F(1), F(1), F(1)], [F(-2), F(-2), F(-2)]],
        [F(2), F(2), F(-4)],
        [F(1), F(-1), F(3)],
        OPTIMAL,
    ),
    # phase one is optimal at once; the artificial leaves on a -1 pivot
    "artificial-out-on-negative-pivot": ([[F(-1), F(-1)]], [F(0)], [F(-1), F(0)], OPTIMAL),
    "unbounded-ray": ([[F(1), F(-1), F(0)], [F(0), F(-1), F(1)]], [F(1), F(0)], [F(0), F(-1), F(0)], UNBOUNDED),
    "denominators-near-1e12": (
        [[F(BIG - 1, BIG + 1), F(-3, BIG - 7), F(1)], [F(5, BIG + 3), F(BIG + 9, BIG), F(-1)]],
        [F(7, BIG - 11), F(-2, BIG + 13)],
        [F(1, BIG + 17), F(-BIG, BIG + 19), F(3)],
        OPTIMAL,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_fraction_reference_on_edge_cases(name):
    mat, d, costs, status = CASES[name]
    assert assert_matches_reference(mat, d, costs)[0] == status


def _entry(rng: random.Random) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
    if kind == 1:
        return F(rng.randint(-BIG, BIG) or 1, rng.randint(BIG - 10**3, BIG + 10**3))
    return F(rng.choice((-3, -2, -1, 1, 1, 2, 3)))


def final_solve_lp(seed: int, kind: str):
    """A standard-form LP of the final solve's shape: at most 10 rows and 50
    to 300 columns with one to three nonzeros each, some entries and bounds
    with denominators near 1e12.  ``kind`` picks the outcome:

    - ``optimal``: a feasible point ``w0`` sets the rhs, and a last row with a
      positive entry in every column bounds the polyhedron;
    - ``unbounded``: a feasible point sets the rhs, and a column with its
      negation appended costs less than zero in sum: a ray;
    - ``infeasible``: a row scaled by a constant disagrees with its rhs;
    - ``alternative``: the row-multiplier alternative ``lp.feasible_point``
      builds, with a zero rhs but for a 1 in the bound row; it is infeasible
      at even seeds, where a point satisfies the system it stands for.

    Some rows are scaled copies of earlier rows, with the rhs scaled alike
    (redundant equalities).  ``w0`` is zero on the columns of the first row,
    so that its rhs is zero and phase one makes degenerate pivots.
    """
    rng = random.Random(f"{kind}:{seed}")
    m = rng.randint(2, 9)
    n = rng.randint(50, 300)
    mat = [[F(0)] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), rng.randint(1, min(3, m))):
            mat[i][j] = _entry(rng)
    if kind == "alternative":
        d = [F(0)] * (m - 1) + [F(1)]
    else:
        w0 = [abs(_entry(rng)) if rng.randrange(5) == 0 and not mat[0][j] else F(0) for j in range(n)]
        d = [sum(a * w for a, w in zip(row, w0)) for row in mat]
    for i in range(1, m - (kind == "alternative")):
        if rng.randrange(4) == 0:
            src = rng.randrange(i)
            k = rng.choice([F(1), F(-1), F(2), F(-1, 3), F(BIG + 1, BIG)])
            mat[i] = [k * a for a in mat[src]]
            d[i] = k * d[src]
    if kind == "alternative":
        # the columns are the rows of a system over m - 1 variables, and the
        # last row holds their bounds; at even seeds every system row holds
        # at the point x0, so that the alternative is infeasible
        x0 = [_entry(rng) for _ in range(m - 1)]
        for j in range(n):
            slack = rng.randint(0, 2) if seed % 2 == 0 else rng.randint(-9, 9)
            mat[-1][j] = sum(mat[i][j] * x for i, x in enumerate(x0)) - slack
    if kind == "optimal":
        mat.append([F(rng.randint(1, 5)) for _ in range(n)])
        d.append(sum(a * w for a, w in zip(mat[-1], w0)))
    elif kind == "infeasible":
        src = rng.randrange(m)
        mat.append([3 * a for a in mat[src]])
        d.append(3 * d[src] + F(1, BIG - 1))
    costs = [_entry(rng) for _ in range(n)]
    if kind == "unbounded":
        j = rng.randrange(n)
        for row in mat:
            row.append(-row[j])
        costs.append(-costs[j] - 1)
    return mat, d, costs


EXPECTED = {"optimal": OPTIMAL, "unbounded": UNBOUNDED, "infeasible": INFEASIBLE}


@pytest.mark.parametrize("kind", ["optimal", "unbounded", "infeasible", "alternative"])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_fraction_reference_at_the_final_solve_shape(kind, seed):
    status = assert_matches_reference(*final_solve_lp(seed, kind))[0]
    assert status == EXPECTED.get(kind, status)
