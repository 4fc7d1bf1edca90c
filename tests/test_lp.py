import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almterm import (
    INFEASIBLE,
    OPTIMAL,
    QPLUS,
    UNBOUNDED,
    LinearSystem,
    decide,
    deduplicate,
    drop_redundant,
    entails,
    equivalent_systems,
    feasible_point,
    fm_project,
    minimize,
    parse_program,
)
from almterm import lp
from almterm.model import EQ, GEQ, AlmtermError
import entailment_oracle
from helpers import feasible, load
from linear import LinearExpr, const, equal, geq, normalize, var

X, Y, Z = 0, 1, 2


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


# --- systems from constraints: linear.normalize over lp.integer_system -------


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
        assert_ray(sys, {X: obj[0], Y: obj[1]}, out)


def assert_ray(sys, objective, out):
    """An unbounded outcome's point satisfies ``sys`` and its ray ``r`` is
    one by definition: ``A r >= 0`` and ``c.r < 0``."""
    assert out.status == UNBOUNDED and sys.satisfied_by(out.point)
    assert all(sum(c * out.ray[v] for v, c in coeffs.items()) >= 0 for coeffs, _ in sys.rows)
    assert sum(c * out.ray[v] for v, c in objective.items()) < 0


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
    """One call with several objectives gives the outcomes of one call per
    objective, field for field: over random (also infeasible) systems, with
    unbounded objectives, and with objectives over variables outside the
    system."""
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
    assert list(outs[1].ray) == [X, Y, W, V]
    assert_ray(box, {W: 1, V: 1}, outs[1])

    empty = normalize([geq(var(X), 1), geq(-var(X), 0)])
    outs = assert_same_as_one_at_a_time(empty, [{X: 1}, {W: 1}])
    assert [o.status for o in outs] == [INFEASIBLE, INFEASIBLE]

    assert minimize(box) == ()


def test_minimize_checks_the_optimum_before_returning_it(monkeypatch):
    """A phase two that reports a value one too high is caught before the
    value is returned: the point does not attain it, and the multipliers do
    not certify it."""
    real = lp._phase_two

    def one_too_high(*args):
        return tuple(v + 1 if isinstance(v, Fraction) else v for v in real(*args))

    sys = normalize([geq(var(X), 3), geq(var(Y) - var(X), 1)])
    assert minimize(sys, {X: 1, Y: 1})[0].value == 7
    monkeypatch.setattr(lp, "_phase_two", one_too_high)
    with pytest.raises(AlmtermError, match="^internal: "):
        minimize(sys, {X: 1, Y: 1})
    # an outcome without an optimum carries no value to check
    assert minimize(sys, {X: -1})[0].status == UNBOUNDED


def _random_bound(rng: random.Random):
    """An int, or now and then a Fraction (with denominator 1 too)."""
    b = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
    return b.numerator if b.denominator == 1 and rng.random() < 0.8 else b


def test_box_read_off_agrees_with_the_simplex(monkeypatch):
    """On random boxes (empty, half-open, free, several bounds on a side,
    coefficients up to 3 in size, int and Fraction bounds, variables no row
    mentions, no rows at all), ``minimize``'s read-off gives the simplex's
    statuses and minima, and its optimal points, key order included.  The
    simplex runs on the same box with a row ``0 >= 0`` added, whose column
    no pivot can enter.  An unbounded outcome's point lies in the box, and
    its ray stays in the box and lowers the objective."""
    read_offs = []
    box_minimize = lp._box_minimize

    def counted(sys, objectives):
        read_offs.append(sys)
        return box_minimize(sys, objectives)

    monkeypatch.setattr(lp, "_box_minimize", counted)
    rng = random.Random(1515)
    seen = {INFEASIBLE: 0, OPTIMAL: 0, UNBOUNDED: 0}
    for _ in range(800):
        variables = rng.sample(range(6), rng.randint(0, 4))
        rows = [
            ({v: rng.choice((1, 1, 1, 2, 3)) * rng.choice((1, -1))}, _random_bound(rng))
            for v in variables
            for _ in range(rng.choice((0, 1, 1, 2, 3)))
        ]
        rng.shuffle(rows)
        system = LinearSystem(tuple(variables), tuple(rows))
        padded = LinearSystem(system.variables, (*rows, ({}, 0)))
        objectives = [
            {
                v: rng.choice((-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2)))
                for v in rng.sample([*variables, 6, 7], rng.randint(0, len(variables) + 2))
            }
            for _ in range(rng.randint(0, 3))
        ]
        read_offs.clear()
        simplex = minimize(padded, *objectives)
        assert read_offs == []
        got = minimize(system, *objectives)
        assert read_offs == [system]
        assert len(got) == len(simplex) == len(objectives)
        for objective, g, w in zip(objectives, got, simplex):
            seen[g.status] += 1
            assert (g.status, g.value) == (w.status, w.value), (system, objective)
            if g.status == OPTIMAL:
                assert list(g.point.items()) == list(w.point.items()), (system, objective)
            elif g.status == UNBOUNDED:
                assert list(g.point) == list(w.point) and list(g.ray) == list(w.ray)
                assert_ray(system, objective, g)
                for t in (1, 10**6):
                    assert system.satisfied_by({v: x + t * g.ray[v] for v, x in g.point.items()})
    assert min(seen.values()) > 100


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
    """max b.y  s.t.  A^T y = c, y >= 0, with fresh variables per row, as the
    system and the objective ``-b`` to minimise."""
    m = sys.num_rows
    ys = tuple(range(100, 100 + m))
    constraints = []
    for v in sys.variables:
        combo = LinearExpr({y: coeffs.get(v, 0) for y, (coeffs, _) in zip(ys, sys.rows)})
        constraints.append(equal(combo, objective.get(v, 0)))
    for y in ys:
        constraints.append(geq(var(y), 0))
    dual_obj = {y: -b for y, (_, b) in zip(ys, sys.rows)}
    return normalize(constraints, order_hint=ys), dual_obj


def test_duality_random_suite_small():
    """Bounded LPs have the optimum of their explicit duals.  Over random
    systems, also infeasible and unbounded ones, the outcome agrees with the
    explicit dual's: equal optima, an unbounded objective with a ray by
    definition and an infeasible dual, and an infeasible system with a dual
    that has no optimum."""
    rng = random.Random(99)
    for _ in range(40):
        sys, cost = make_bounded_lp(rng)
        (primal,) = minimize(sys, cost)
        assert primal.status == OPTIMAL
        dual_sys, dual_obj = explicit_dual(sys, cost)
        (dual,) = minimize(dual_sys, dual_obj)
        assert dual.status == OPTIMAL
        assert -dual.value == primal.value
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 3)
        rows = [([rng.randint(-4, 4) for _ in range(n)], rng.randint(-4, 4)) for _ in range(rng.randint(0, 5))]
        sys = dense_system(range(n), rows)
        cost = {i: rng.randint(-4, 4) for i in range(n)}
        (primal,) = minimize(sys, cost)
        dual_sys, dual_obj = explicit_dual(sys, cost)
        (dual,) = minimize(dual_sys, dual_obj)
        if primal.status == OPTIMAL:
            assert dual.status == OPTIMAL and -dual.value == primal.value
        elif primal.status == UNBOUNDED:
            assert_ray(sys, cost, primal)
            assert dual.status == INFEASIBLE
        else:
            assert not feasible(sys) and dual.status != OPTIMAL
        seen.add(primal.status)
    assert seen == {OPTIMAL, UNBOUNDED, INFEASIBLE}


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
        pins = [({v: 1}, shadow.get(v, 0), EQ) for v in (X, Y)]
        pinned = lp.integer_system([(coeffs, bound, GEQ) for coeffs, bound in sys.rows] + pins)
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


@st.composite
def project_shaped(draw) -> LinearSystem:
    """Systems of the shape ``--project`` prunes: 2-4 variables and up to 11
    rows with Fraction bounds, among them one-variable rows, duplicated rows,
    rows followed by their negation (implicit equalities, or an empty system
    when the bound is moved) and rows without variables."""
    variables = (X, Y, Z, W)[: draw(st.integers(2, 4))]
    rows: list = []
    for _ in range(draw(st.integers(0, 11))):
        kind = draw(st.sampled_from(("row", "row", "one", "copy", "negation", "none")))
        if kind in ("copy", "negation") and rows:
            coeffs, bound = draw(st.sampled_from(rows))
            if kind == "negation":
                coeffs = {v: -c for v, c in coeffs.items()}
                bound = -bound - draw(st.sampled_from((0, 0, 0, Fraction(1, 2))))
        else:
            if kind == "one":
                coeffs = {draw(st.sampled_from(variables)): draw(small_coeff.filter(bool))}
            elif kind == "none":
                coeffs = {}
            else:
                coeffs = {v: c for v in variables if (c := draw(small_coeff))}
            bound = draw(small_bound)
        rows.append((coeffs, bound))
    return LinearSystem(variables, tuple(rows))


@settings(max_examples=200, deadline=None)
@given(project_shaped())
@example(dense_system((X, Y, Z), [((0, 0, 0), 1), ((1, 0, 0), 0)]))
@example(dense_system((X, Y, Z), [((1, 0, 0), 2), ((-1, 0, 0), -1), ((0, 1, 0), 0)]))
@example(LinearSystem((X, Y), ()))
@example(LinearSystem((X, Y), (({}, 0), ({X: 1}, 1), ({}, -1))))
@example(LinearSystem((X, Y), (({X: 1, Y: 2}, 1), ({X: -1, Y: -2}, -1), ({X: 1}, 0))))
@example(LinearSystem((X, Y), (({X: 1}, Fraction(1, 2)), ({X: 1}, Fraction(1, 2)), ({X: 2, Y: 1}, 1), ({Y: 1}, 0))))
@example(LinearSystem((X, Y, Z), (({X: 1}, 0), ({X: -1}, 0), ({X: 1, Y: 1}, 0), ({Y: 1}, 0), ({Y: -1}, 0))))
def test_drop_redundant_agrees_with_greedy_oracle(sys):
    """The same rows kept in the same order as the greedy loop over the
    minimisation oracle: on empty and infeasible systems, rows without
    variables, duplicated one-variable rows and implicit equalities, where
    the point the certificates are read at lies on several rows at once."""
    assert drop_redundant(sys) == entailment_oracle.drop_redundant(sys)


@settings(max_examples=200, deadline=None)
@given(project_shaped(), st.data())
def test_each_certificate_is_sound_on_its_own(sys, data):
    """Every row the ray test keeps is not entailed by the other rows it is
    tested against, and every row the bound test drops is, per the
    minimisation oracle; the rows are tested against all the others and
    against a drawn subset of them."""
    point = feasible_point(sys)
    if point is None:
        return
    rows = lp._rows_at(lp._alternative(sys, sys.variables), sys.num_vars, [point[v] for v in sys.variables])
    for i, row in enumerate(sys.rows):
        everyone = [j for j in range(sys.num_rows) if j != i]
        for others in (everyone, data.draw(st.lists(st.sampled_from(everyone), unique=True)) if everyone else []):
            rest = LinearSystem(sys.variables, tuple(sys.rows[j] for j in others))
            if lp._ray_keeps(rows, i, others):
                assert not entailment_oracle.entails(rest, *row)
            if lp._bound_drops(rows, i, others):
                assert entailment_oracle.entails(rest, *row)


def test_drop_redundant_decides_certified_rows_without_pivoting(monkeypatch):
    """On the coefficient system of ``example4.clp`` over ``q+`` a ray from
    :func:`feasible_point`'s point certifies each kept row, and the box of
    the one-variable rows each dropped row, so the call runs one phase one,
    ``feasible_point``'s, instead of one per row."""
    sys = decide(parse_program(load("example4.clp")), QPLUS).coefficients
    calls = []
    phase_one = lp._phase_one

    def counted(cols, d):
        calls.append(d)
        return phase_one(cols, d)

    monkeypatch.setattr(lp, "_phase_one", counted)
    kept = drop_redundant(sys)
    monkeypatch.undo()
    assert len(calls) == 1
    assert (sys.num_rows, kept.num_rows) == (4, 2)
    assert kept == entailment_oracle.drop_redundant(sys)


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


def test_the_kernel_reads_integer_columns_only(monkeypatch):
    """``_alternative`` scales each row's column by its bound's denominator,
    and ``entails`` scales the tested row's column by the lcm of its
    denominators, so no Fraction reaches ``_phase_one``'s columns, from
    ``minimize`` included."""
    sys = LinearSystem((X, Y), (({X: 2, Y: -1}, Fraction(1, 2)), ({Y: 3}, Fraction(-7, 3)), ({X: 1}, 4)))
    cols = lp._alternative(sys, (X, Y))
    assert cols == [[(0, 4), (1, -2), (2, 1)], [(1, 9), (2, -7)], [(0, 1), (2, 4)]]
    seen = []
    phase_one = lp._phase_one

    def recording(cols, d):
        seen.append(cols)
        return phase_one(cols, d)

    monkeypatch.setattr(lp, "_phase_one", recording)
    coeffs, bound = {X: Fraction(1, 2), Y: Fraction(2, 3)}, Fraction(5, 4)
    assert entails(sys, coeffs, bound) == entailment_oracle.entails(sys, coeffs, bound)
    assert seen[0][3] == [(0, -6), (1, -8), (2, -15), (3, 12)]
    assert feasible_point(sys) is not None
    minimize(sys, coeffs, {X: -1})
    assert all(type(v) is int for cols in seen for col in cols for _, v in col)


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
