from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from almterm import (
    GEQ,
    Atom,
    Domain,
    LevelMapping,
    ModelError,
    Program,
    Rule,
    VariablePool,
    parse_program,
    rat,
)
from linear import LinearExpr, constraint_row, equal

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=50
)


def test_rat_coercions():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(ModelError):
        rat(0.5)


@given(rationals, rationals)
def test_addition_roundtrip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda x: x != 0))
def test_multiplication_roundtrip(a, b):
    assert (a * b) / b == a


def test_canonical_form():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(-6, -4) == Fraction(3, 2)
    assert Fraction(10, 5).denominator == 1


def test_level_of_examples():
    lm = LevelMapping({"p": (73, -1)})
    assert lm.level_of("p", [72]) == 1
    assert LevelMapping({"p": (0, 0)}).level_of("p", [5]) == 0
    assert lm.level_of("p", [Fraction(1, 2)]) == Fraction(145, 2)


def test_level_of_errors():
    lm = LevelMapping({"p": (73, -1)})
    with pytest.raises(ModelError):
        lm.level_of("q", [1])
    with pytest.raises(ModelError):
        lm.level_of("p", [1, 2])


@given(
    st.lists(rationals, min_size=2, max_size=2),
    st.lists(rationals, min_size=2, max_size=2),
)
def test_level_of_is_affine(xs, ys):
    lm = LevelMapping({"p": (Fraction(3), Fraction(-2), Fraction(7, 3))})
    zero = lm.level_of("p", [0, 0])
    lhs = lm.level_of("p", xs) + lm.level_of("p", ys) - zero
    rhs = lm.level_of("p", [x + y for x, y in zip(xs, ys)])
    assert lhs == rhs


def test_linear_expr_drops_zero_coefficients():
    e = LinearExpr({1: Fraction(2), 2: Fraction(0)}, 5)
    assert e.coeffs == {1: Fraction(2)}
    assert (e - e).coeffs == {}
    assert (e - e).const == 0


def test_linear_expr_constructor_rejects_floats():
    with pytest.raises(ModelError):
        LinearExpr({0: 0.5})
    with pytest.raises(ModelError):
        LinearExpr({}, 0.5)
    # arithmetic keeps exact Fractions
    e = LinearExpr({0: 1, 1: Fraction(1, 2)}, 3) - LinearExpr({0: 1}).scale(2)
    assert e.coeffs == {0: -1, 1: Fraction(1, 2)} and e.const == 3
    assert all(type(c) is Fraction for c in [*e.coeffs.values(), e.const])
    assert (e + e.scale(-1)).coeffs == {}


def test_linear_expr_arithmetic():
    x = LinearExpr.of_var(0)
    y = LinearExpr.of_var(1)
    e = x.scale(2) + y - LinearExpr.of_const(3)
    assert e.coeffs == {0: Fraction(2), 1: Fraction(1)}
    assert e.const == -3
    assert e.evaluate({0: Fraction(1), 1: Fraction(4)}) == 3
    with pytest.raises(ModelError):
        e.evaluate({0: Fraction(1)})


def test_atom_distinct_args():
    """An atom stores what it is given; a repeated argument is a flatness
    violation of its rule, which ``Rule.check_flatness`` and so
    ``Program(rules, pool)`` reject, naming the rule and the predicate."""
    atom = Atom("p", (0, 0))
    assert atom.args == (0, 0) and atom.arity == 2
    rule = Rule("r7", atom, (), ())
    with pytest.raises(ModelError, match="rule r7: repeated variable in atom p"):
        rule.check_flatness()
    with pytest.raises(ModelError, match="rule r7: repeated variable in atom p"):
        Program([rule], VariablePool())
    Rule("r1", Atom("p", (0, 1)), (), ()).check_flatness()


def test_rule_flatness_checks():
    head = Atom("p", (0,))
    body = Atom("q", (1,))
    rule = Rule("r1", head, (), (body,))
    rule.check_flatness()
    shared = Rule("r2", head, (), (Atom("q", (0,)),))
    with pytest.raises(ModelError, match="rule r2: variable shared"):
        shared.check_flatness()
    stray = equal(LinearExpr.of_var(5), LinearExpr.of_const(1))
    loose = Rule("r3", head, (constraint_row(stray),), (body,))
    with pytest.raises(ModelError, match="rule r3: constraint mentions a variable outside"):
        loose.check_flatness()
    # a rule split from a multi-atom body keeps the dropped atoms' variables
    split = Rule("r3.1", head, (constraint_row(stray),), (body,), origin=("r3", 1))
    split.check_flatness()
    Program([split], VariablePool())
    # the parser rejects a repeated argument and one predicate at two
    # arities first; a library Program checks both too
    repeated = Rule("r5", head, (), (Atom("q", (1, 1)),))
    wide = Rule("r4", Atom("q", (2, 3)), (), ())
    for rules, message in (
        ([repeated], "rule r5: repeated variable in atom q"),
        ([shared], "rule r2: variable shared between atom tuples"),
        ([loose], "rule r3: constraint mentions a variable outside its atoms"),
        ([rule, wide], "predicate q used with arities 1 and 2"),
    ):
        with pytest.raises(ModelError, match=message):
            Program(rules, VariablePool())


def test_domain_rows_append_sorted_nonnegativity_rows():
    (rule,) = parse_program("p(x, y) :- z = x + y, y >= 1, q(z).\n").rules
    # the rule's variable order (row order first) is not id order
    assert list(rule.variables) != sorted(rule.variables)
    for tag in ("q", "r"):
        assert rule.domain_rows(Domain(tag)) == rule.rows
    nonneg = tuple(({v: 1}, 0, GEQ) for v in sorted(rule.variables))
    for tag in ("q+", "r+", "n"):
        assert rule.domain_rows(Domain(tag)) == rule.rows + nonneg


def test_domain_parsing():
    assert Domain.parse("Q+").nonneg
    assert Domain.parse("n").integral
    assert not Domain.parse("q").nonneg
    with pytest.raises(ModelError):
        Domain.parse("z")


def test_variable_pool_clone_is_independent():
    pool = VariablePool()
    x = pool.fresh("x")
    copy = pool.clone()
    y = copy.fresh("y")
    assert pool.name(x) == "x"
    assert copy.name(y) == "y"
    assert len(pool) == 1 and len(copy) == 2


def test_level_mapping_scale_and_bound():
    lm = LevelMapping({"p": (73, -1)})
    assert lm.scale(2).level_of("p", [72]) == 2
    assert lm.bound_for("p", [72]) == 2
    assert lm.bound_for("p", [100]) == 1
    assert lm.bound_for("p", [-100]) == 174


def test_rules_for_keeps_program_order():
    text = "p(x) :- x >= 1, y = x - 1, q(y).\nq(x) :- x >= 0.\np(x) :- x >= 5.\nq(x) :- y = x - 2, p(y).\n"
    program = parse_program(text)
    for pred in ("p", "q"):
        assert program.rules_for(pred) == tuple(r for r in program.rules if r.head.pred == pred)
    assert [r.head.pred for r in program.rules_for("p")] == ["p", "p"]
    assert program.rules_for("r") == ()
