"""The integer-row simplex kernel against the Fraction reference oracle.

``_solve_standard`` must return exactly what the dense Fraction tableau of
``fraction_simplex`` returns: same status, point, value, phase-one duals and
ray, because both make Bland's pivot choices on the same tableau values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almterm.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, _solve_standard
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


def assert_matches_reference(mat, d, costs):
    got = _solve_standard(mat, d, costs)
    assert got == reference_solve(mat, d, costs)
    return got


@settings(max_examples=400, deadline=None)
@given(standard_lps())
def test_kernel_matches_fraction_reference(lp):
    assert_matches_reference(*lp)


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
