"""Reference row entailment by minimisation (test oracle).

``entails`` minimises the tested row's coefficients over the system with
:func:`almterm.lp.minimize` (the LP dual solved to its optimum, with a phase
two over the bound row's costs) and compares the optimum with the bound.
``drop_redundant`` is the same greedy loop as the library's, over this
``entails``.  ``almterm.lp`` decides entailment with one Farkas feasibility
test instead, phase one alone on other columns; the tests check that both
answer alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from almterm.lp import INFEASIBLE, OPTIMAL, LinearSystem, minimize


def entails(sys: LinearSystem, coeffs: Mapping[int, int | Fraction], bound: int | Fraction) -> bool:
    """Is the minimum of ``coeffs . x`` over ``sys`` at least ``bound``
    (an infeasible system entails every row)?"""
    (out,) = minimize(sys, coeffs)
    return out.status == INFEASIBLE or (out.status == OPTIMAL and out.value >= bound)


def drop_redundant(sys: LinearSystem) -> LinearSystem:
    """Greedy redundancy elimination in row order, one minimisation per test."""
    rows = sys.rows
    i = 0
    while i < len(rows):
        others = rows[:i] + rows[i + 1 :]
        if entails(LinearSystem(sys.variables, others), *rows[i]):
            rows = others
        else:
            i += 1
    return LinearSystem(sys.variables, rows)
