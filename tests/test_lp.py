import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almterm import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearExpr,
    LinearSystem,
    deduplicate,
    drop_redundant,
    entails,
    equivalent_systems,
    feasible,
    feasible_point,
    fm_project,
    maximize,
    minimize,
    normalize,
)
from almterm import lp
from almterm.model import equal, geq
import entailment_oracle

X, Y, Z = 0, 1, 2
var = LinearExpr.of_var
const = LinearExpr.of_const


# --- independent feasibility oracle: textbook variable elimination ----------
# (kept deliberately separate from the library's projection code)


def oracle_feasible(rows):
    """rows: list of (coeff tuple, bound) meaning coeffs . x >= bound."""
    rows = [(list(c), b) for c, b in rows]
    nvars = len(rows[0][0]) if rows else 0
    for v in range(nvars):
        pos = [r for r in rows if r[0][v] > 0]
        neg = [r for r in rows if r[0][v] < 0]
        rest = [r for r in rows if r[0][v] == 0]
        new = list(rest)
        for pc, pb in pos:
            for nc, nb in neg:
                a, b = pc[v], -nc[v]
                combo = [b * p + a * n for p, n in zip(pc, nc)]
                new.append((combo, b * pb + a * nb))
        rows = new
    return all(b <= 0 for _, b in rows)


def dense_system(variables, rows) -> LinearSystem:
    """A system from dense ``(coefficient tuple, bound)`` rows."""
    return LinearSystem(
        tuple(variables),
        tuple(({v: c for v, c in zip(variables, coeffs) if c}, b) for coeffs, b in rows),
    )


# --- normalize ---------------------------------------------------------------


def test_normalize_splits_equalities():
    sys = normalize([equal(var(X), 2)])
    assert sys.rows == (({X: 1}, 2), ({X: -1}, -2))


def test_normalize_golden_five_rows():
    x0 = 9
    sys = normalize(
        [geq(72, var(X)), equal(var(Y), var(X) + const(1)), equal(var(x0), 1)]
    )
    assert sys.variables == (X, Y, x0)
    expected = (
        ({X: -1}, -72),
        ({X: -1, Y: 1}, 1),
        ({X: 1, Y: -1}, -1),
        ({x0: 1}, 1),
        ({x0: -1}, -1),
    )
    assert sys.rows == expected


def test_normalize_nonneg_rows():
    sys = normalize([], extra_nonneg={X})
    assert sys.variables == (X,)
    assert sys.rows == (({X: 1}, 0),)


def test_normalize_order_hint():
    sys = normalize([geq(var(Y), var(X))], order_hint=(Z, X))
    assert sys.variables == (Z, X, Y)


# --- feasibility -------------------------------------------------------------


def test_feasible_examples():
    assert not feasible(normalize([equal(const(0), 1)]))
    assert feasible(normalize([equal(var(X), 2)]))
    assert not feasible(normalize([geq(72, var(X)), geq(var(X), 100)]))


def test_feasible_point_is_exact():
    point = feasible_point(normalize([equal(var(X), 2)]))
    assert point[X] == 2
    sys = normalize([geq(var(X) + var(Y), 7), geq(var(X) - var(Y), 3)])
    point = feasible_point(sys)
    assert sys.satisfied_by(point)


def test_empty_system_has_zero_point():
    sys = normalize([], order_hint=(X, Y))
    assert feasible_point(sys) == {X: Fraction(0), Y: Fraction(0)}


small_coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(small_coeff, small_coeff, small_coeff), small_coeff),
        min_size=0,
        max_size=5,
    )
)
def test_feasible_agrees_with_elimination_oracle(raw_rows):
    rows = [(coeffs, Fraction(b)) for coeffs, b in raw_rows]
    assert feasible(dense_system((X, Y, Z), rows)) == oracle_feasible(rows)


# --- optimisation ------------------------------------------------------------


def test_minimize_examples():
    (out,) = minimize(normalize([geq(var(X), 3)]), {X: 1})
    assert out.status == OPTIMAL and out.value == 3 and out.point[X] == 3

    (out,) = minimize(normalize([geq(var(X), 3)]), {X: -1})
    assert out.status == UNBOUNDED
    assert out.ray is not None

    (out,) = minimize(normalize([equal(const(0), 1)]), {X: 1})
    assert out.status == INFEASIBLE


def test_minimize_on_golden_rule_system():
    x0 = 9
    sys = normalize(
        [geq(72, var(X)), equal(var(Y), var(X) + const(1)), equal(var(x0), 1)]
    )
    (out,) = minimize(sys, {X: 1, Y: -1})
    assert out.status == OPTIMAL and out.value == -1


def test_minimize_objective_is_a_coefficient_dict():
    # int or Fraction coefficients, no constant term; the optimum is exact
    (out,) = minimize(normalize([geq(var(X), 3)]), {X: Fraction(1, 2)})
    assert out.value == Fraction(3, 2)
    (out,) = minimize(normalize([geq(var(X), 3)]), {X: 2})
    assert out.value == 6 and isinstance(out.value, Fraction)


def test_maximize_examples():
    out = maximize(normalize([geq(var(X), 0), geq(-var(X), -1)]), {X: 1})
    assert out.status == OPTIMAL and out.value == 1
    out = maximize(normalize([geq(var(X), 0)]), {X: 1})
    assert out.status == UNBOUNDED


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(small_coeff, small_coeff), small_coeff),
        min_size=1,
        max_size=4,
    ),
    st.tuples(small_coeff, small_coeff),
)
def test_optimal_points_satisfy_all_rows(raw_rows, obj):
    sys = dense_system((X, Y), [(coeffs, Fraction(b)) for coeffs, b in raw_rows])
    (out,) = minimize(sys, {X: Fraction(obj[0]), Y: Fraction(obj[1])})
    if out.status == OPTIMAL:
        assert sys.satisfied_by(out.point)
        assert (
            sum(Fraction(c) * out.point[v] for c, v in zip(obj, (X, Y))) == out.value
        )
    elif out.status == UNBOUNDED:
        assert sys.satisfied_by(out.point)


W, V = 3, 4  # variables no row of the systems below mentions


def assert_same_as_one_at_a_time(sys, objectives):
    together = minimize(sys, *objectives)
    alone = tuple(minimize(sys, objective)[0] for objective in objectives)
    assert together == alone
    # the points and rays list their variables in the same order too
    assert [(list(o.point or ()), list(o.ray or ())) for o in together] == [
        (list(o.point or ()), list(o.ray or ())) for o in alone
    ]
    return together


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(small_coeff, small_coeff, small_coeff), small_coeff),
        max_size=5,
    ),
    st.lists(
        st.dictionaries(st.sampled_from((X, Y, Z, W, V)), small_coeff, max_size=4),
        min_size=1,
        max_size=4,
    ),
)
def test_minimize_many_objectives_equals_one_at_a_time(raw_rows, objectives):
    """Phase one reads no costs, so one call with several objectives gives
    the outcomes of one call per objective, field for field: over random
    (also infeasible) systems, with unbounded objectives, and with objectives
    over variables outside the system."""
    sys = dense_system((X, Y, Z), raw_rows)
    assert_same_as_one_at_a_time(sys, objectives)


def test_minimize_many_objectives_named_cases():
    box = normalize([geq(var(X), 0), geq(3, var(X)), geq(var(Y), 1)])
    objectives = [{X: 1, Y: 1}, {Y: -1}, {W: 1, X: -1}, {V: 1}, {X: -1}]
    outs = assert_same_as_one_at_a_time(box, objectives)
    assert [o.status for o in outs] == [OPTIMAL, UNBOUNDED, UNBOUNDED, UNBOUNDED, OPTIMAL]
    assert [o.value for o in outs] == [1, None, None, None, -3]
    assert list(outs[2].point) == [X, Y, W] and list(outs[3].point) == [X, Y, V]
    # outside variables named in different orders: each objective's ray
    # follows its own order, as alone
    outs = assert_same_as_one_at_a_time(box, [{V: 1}, {W: 1, V: 1}])
    assert outs[1].ray == {X: 0, Y: 0, W: -1, V: 0}

    empty = normalize([geq(var(X), 1), geq(-var(X), 0)])
    outs = assert_same_as_one_at_a_time(empty, [{X: 1}, {W: 1}])
    assert [o.status for o in outs] == [INFEASIBLE, INFEASIBLE]

    assert minimize(box) == ()


# --- duality -----------------------------------------------------------------


def make_bounded_lp(rng: random.Random):
    """A primal min c.x s.t. A x >= b that is feasible and bounded by design:
    box rows plus extra rows anchored at an interior point."""
    n = rng.randint(1, 3)
    anchor = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    rows = []
    rhs = []
    for i in range(n):
        low = anchor[i] - rng.randint(0, 4)
        high = anchor[i] + rng.randint(0, 4)
        row = [0] * n
        row[i] = 1
        rows.append(tuple(row))
        rhs.append(low)
        row = [0] * n
        row[i] = -1
        rows.append(tuple(row))
        rhs.append(-high)
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        slackness = Fraction(rng.randint(0, 5))
        rows.append(tuple(coeffs))
        rhs.append(sum(c * a for c, a in zip(coeffs, anchor)) - slackness)
    cost = {i: Fraction(rng.randint(-4, 4)) for i in range(n)}
    sys = dense_system(range(n), zip(rows, rhs))
    return sys, cost


def explicit_dual(sys: LinearSystem, objective: dict):
    """max b.y  s.t.  A^T y = c, y >= 0, with fresh variables per row."""
    m = sys.num_rows
    ys = tuple(range(100, 100 + m))
    constraints = []
    for v in sys.variables:
        combo = LinearExpr({y: coeffs.get(v, 0) for y, (coeffs, _) in zip(ys, sys.rows)})
        constraints.append(equal(combo, objective.get(v, 0)))
    for y in ys:
        constraints.append(geq(var(y), 0))
    dual_obj = {y: b for y, (_, b) in zip(ys, sys.rows)}
    return normalize(constraints, order_hint=ys), dual_obj


def test_duality_random_suite_small():
    rng = random.Random(99)
    hits = 0
    while hits < 40:
        sys, cost = make_bounded_lp(rng)
        (primal,) = minimize(sys, cost)
        assert primal.status == OPTIMAL
        dual_sys, dual_obj = explicit_dual(sys, cost)
        dual = maximize(dual_sys, dual_obj)
        assert dual.status == OPTIMAL
        assert dual.value == primal.value
        hits += 1


# --- projection --------------------------------------------------------------


def test_fm_project_eliminates_variable():
    sys = normalize([geq(var(X), 0), geq(var(Y) - var(X), 1)])
    projected = fm_project(sys, {Y})
    assert projected.variables == (Y,)
    assert equivalent_systems(projected, normalize([geq(var(Y), 1)]))


def test_fm_project_identity():
    sys = normalize([geq(var(X), 1)])
    projected = fm_project(sys, {X})
    assert projected.rows == (({X: 1}, 1),)


def test_fm_project_infeasible_input():
    sys = normalize([geq(var(X), 1), geq(-var(X), 0)])
    projected = fm_project(sys, set())
    assert not feasible(projected)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(small_coeff, small_coeff, small_coeff), small_coeff),
        min_size=1,
        max_size=4,
    )
)
def test_fm_project_soundness_and_completeness(raw_rows):
    sys = dense_system((X, Y, Z), [(coeffs, Fraction(b)) for coeffs, b in raw_rows])
    projected = fm_project(sys, {X, Y})
    full = feasible_point(sys)
    if full is not None:
        # soundness: restriction of any solution satisfies the projection
        assert projected.satisfied_by(full)
    shadow = feasible_point(projected)
    if shadow is None:
        assert full is None
    else:
        # completeness: projection points extend to full solutions
        pins = [equal(var(v), shadow.get(v, 0)) for v in (X, Y)]
        pinned = normalize(list(sys.constraints()) + pins)
        assert feasible(pinned)


def test_drop_redundant_removes_implied_rows():
    sys = normalize([geq(var(X), 3), geq(var(X), 1), geq(var(X) + var(Y), 0), geq(var(Y), 5)])
    slim = drop_redundant(sys)
    assert slim.num_rows == 2
    assert equivalent_systems(slim, sys)


def test_deduplicate_keeps_strongest_bound():
    sys = normalize([geq(var(X), 1), geq(var(X), 3), geq(var(X).scale(2), 2)])
    slim = deduplicate(sys)
    assert slim.num_rows == 1
    assert equivalent_systems(slim, normalize([geq(var(X), 3)]))


def test_entails_basics():
    sys = normalize([geq(var(X), 2)])
    assert entails(sys, {X: Fraction(1)}, Fraction(1))
    assert not entails(sys, {X: Fraction(-1)}, Fraction(0))
    empty = normalize([equal(const(0), 1)])
    assert entails(empty, {X: Fraction(1)}, Fraction(10))


small_bound = st.one_of(
    small_coeff, st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(small_coeff, small_coeff, small_coeff), small_bound), max_size=6),
    st.dictionaries(st.sampled_from((X, Y, Z, W)), small_coeff, max_size=4),
    small_bound,
)
@example([], {}, 0)
@example([], {}, 1)
@example([], {X: 1}, -3)
@example([((0, 0, 0), 1)], {X: 1}, 10)
@example([((1, 0, 0), 2), ((-1, 0, 0), -1)], {W: 1}, 0)
@example([((1, 0, 0), 0)], {X: -1}, -5)
@example([((1, 1, 0), Fraction(1, 2))], {X: 2, Y: 2}, 1)
def test_entails_agrees_with_minimisation_oracle(raw_rows, coeffs, bound):
    """The Farkas test answers as the minimisation does: over empty,
    infeasible and unbounded systems, with Fraction bounds and with objective
    variables (``W``) outside the system."""
    sys = dense_system((X, Y, Z), raw_rows)
    assert entails(sys, coeffs, bound) == entailment_oracle.entails(sys, coeffs, bound)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(small_coeff, small_coeff, small_coeff), small_bound),
        max_size=7,
    )
)
@example([((0, 0, 0), 1), ((1, 0, 0), 0)])
@example([((1, 0, 0), 2), ((-1, 0, 0), -1), ((0, 1, 0), 0)])
def test_drop_redundant_agrees_with_greedy_oracle(raw_rows):
    """The same rows kept in the same order as the greedy loop over the
    minimisation oracle, infeasible systems included."""
    sys = dense_system((X, Y, Z), raw_rows)
    assert drop_redundant(sys) == entailment_oracle.drop_redundant(sys)


def test_drop_redundant_runs_no_minimisation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drop_redundant called minimize")

    monkeypatch.setattr(lp, "minimize", refuse)
    sys = normalize([geq(var(X), 3), geq(var(X), 1), geq(var(X) + var(Y), 0), geq(var(Y), 5)])
    assert drop_redundant(sys).rows == (({X: 1}, 3), ({Y: 1}, 5))
    # x >= 1 and -x >= 0 refute the system, so they entail y >= 0
    infeasible = normalize([geq(var(X), 1), geq(-var(X), 0), geq(var(Y), 0)])
    assert drop_redundant(infeasible).rows == (({X: 1}, 1), ({X: -1}, 0))


def test_feasibility_and_entailment_run_phase_one_only(monkeypatch):
    """Both yes/no questions are one phase one on the row-multiplier
    alternative; only ``minimize`` reaches phase two."""

    def refuse(*args, **kwargs):
        raise AssertionError("phase two ran")

    monkeypatch.setattr(lp, "_phase_two", refuse)
    feasible_sys = LinearSystem(
        (X, Y), (({X: 1}, 1), ({X: -1, Y: 1}, 0), ({Y: -1}, -5), ({X: 2, Y: 1}, 4))
    )
    assert feasible_point(feasible_sys) == {X: Fraction(4, 3), Y: Fraction(4, 3)}
    assert entails(feasible_sys, {Y: 1}, 1)
    assert not entails(feasible_sys, {X: 1}, 2)
    infeasible = LinearSystem((X,), (({X: 1}, 2), ({X: -1}, -1)))
    assert feasible_point(infeasible) is None
    assert entails(infeasible, {X: -1}, 10)
    no_rows = LinearSystem((X, Y), ())
    assert feasible_point(no_rows) == {X: 0, Y: 0}
    assert entails(no_rows, {}, 0)
    assert not entails(no_rows, {X: 1}, 0)
    canonical = LinearSystem((X, Y), (({}, 1),))
    assert feasible_point(canonical) is None
    assert entails(canonical, {X: 1, Y: -1}, 3)


# --- the system's surface ----------------------------------------------------


def test_system_rejects_a_row_over_an_unknown_variable():
    assert LinearSystem((X, Y), (({X: 1, Y: -1}, 0),)).num_rows == 1
    with pytest.raises(ValueError, match="outside"):
        LinearSystem((X,), (({X: 1, Y: -1}, 0),))


def test_fm_project_only_projects():
    sys = normalize([geq(var(X), 1), geq(var(X) + var(Y), 0), geq(var(Y), 0)])
    # x + y >= 0 follows from the other two rows, and fm_project keeps it
    assert fm_project(sys, {X, Y}).num_rows == 3
    assert drop_redundant(fm_project(sys, {X, Y})).num_rows == 2
    with pytest.raises(TypeError):
        fm_project(sys, {X, Y}, lp_minimize=False)
