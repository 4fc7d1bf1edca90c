import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almterm import (
    EQ,
    GEQ,
    AlmtermError,
    FlatnessError,
    ParseError,
    Program,
    binarize,
    parse_program,
    pretty_print,
)
from almterm import N, Q, QPLUS, VariablePool, decide
from almterm.model import render_row
from almterm.parser import MAX_NESTING
from helpers import (
    PROGRAMS,
    load,
    random_binary_program_text,
    random_flat_program_text,
    random_rational_program_text,
)
from linear import row_constraint


def test_parse_golden_program():
    program = parse_program(load("example72.clp"))
    assert dict(program.arities) == {"p": 1}
    assert len(program.rules) == 3
    r1, r2, r3 = program.rules
    assert r1.is_fact and r1.rows == (({r1.head.args[0]: 1}, 2, EQ),)
    assert r2.is_fact and r2.rows == (({}, 1, EQ),)
    assert [a.pred for a in r3.body] == ["p"]
    # 72 >= x and y = x + 1 with x the head variable, as rows lhs - rhs (rel)
    # rhs.const - lhs.const, lhs variables first
    x = r3.head.args[0]
    y = r3.body[0].args[0]
    guard, link = r3.rows
    assert guard == ({x: -1}, -72, GEQ)
    assert link == ({y: 1, x: -1}, 1, EQ) and list(link[0]) == [y, x]


def test_parse_single_fact():
    program = parse_program("p(x) :- x = 2.")
    assert len(program.rules) == 1
    assert program.rules[0].is_fact
    assert program.rules[0].rows[0][2] == EQ


def test_repeated_variable_in_atom_rejected():
    with pytest.raises(FlatnessError):
        parse_program("p(x,x) :- x = 2.")


def test_nonlinear_term_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(x) :- x*x = 2.")
    assert "non-linear" in str(err.value)


def test_shared_variable_between_atoms_rejected():
    with pytest.raises(FlatnessError):
        parse_program("p(x) :- q(x).")


def test_constraint_variable_outside_atoms_rejected():
    with pytest.raises(FlatnessError):
        parse_program("p(x) :- y >= 0.")


def test_arity_consistency():
    with pytest.raises(ParseError) as err:
        parse_program("p(x) :- x = 1.\np(x, y) :- x >= y.")
    assert "arity" in str(err.value)


def test_leq_sugar_and_negative_literals():
    program = parse_program("q(x) :- -20 <= x, x <= 20, y + 5 = x, q(y).")
    (x,) = program.rules[0].head.args
    # -20 <= x becomes x >= -20
    assert program.rules[0].rows[0] == ({x: 1}, -20, GEQ)


def test_rational_literals_and_comments():
    program = parse_program("% a comment\np(x) :- x = 1/3. % trailing\n")
    # x = 1/3 scaled to coprime integers
    (x,) = program.rules[0].head.args
    assert program.rules[0].rows == (({x: 3}, 1, EQ),)


def test_zero_arity_atoms():
    program = parse_program("loop :- loop.\nstart :- 1 >= 0, loop.")
    assert dict(program.arities) == {"loop": 0, "start": 0}
    assert program.rules[0].body[0].args == ()


def test_parse_rule_convenience():
    from almterm import parse_rule

    rule = parse_rule("p(x) :- 72 >= x, y = x + 1, p(y).", rule_id="golden")
    assert rule.rule_id == "golden"
    assert len(rule.rows) == 2 and len(rule.body) == 1
    with pytest.raises(AlmtermError, match="exactly one clause"):
        parse_rule("p(x). p(y) :- y >= 1.")


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_program("p(x) :- x = .")
    assert err.value.span.line == 1
    with pytest.raises(ParseError) as err:
        parse_program("p(x)\n  :- x ? 2.")
    assert err.value.span.line == 2
    # the scanner's edges: each error's exact span and message
    for text, span, message in (
        # a comment at the end with no newline, and ``%`` as the last character
        ("p(x) :- x >= 1 % no full stop", "1:30-30", "expected '.', found 'end of input'"),
        ("p(x) :- x >= 1.\nq(y) :- y >= 1%", "2:16-16", "expected '.', found 'end of input'"),
        ("p(x) :- x = 1 %\n", "2:1-1", "expected '.', found 'end of input'"),
        # a bad character right after a comment
        ("p(x) :- x >= 1. % a comment\n#q.", "2:1-2", "unexpected character '#'"),
        # CRLF line ends, for the scanner and for the parser
        ("p(x) :- x >= 1.\r\nq(y) :-\r\n  y ? 1.\r\n", "3:5-6", "unexpected character '?'"),
        ("p(x) :- x >= 1.\r\nq(y) :-\r\n  y = .\r\n", "3:7-8", "expected a term, found '.'"),
        # a non-ASCII digit is no digit
        ("p(x) :- x = \u0663.", "1:13-14", "unexpected character '\u0663'"),
        # an error on the final token, and at the end of the text
        ("p(x) :- x >= 1)", "1:15-16", "expected '.', found ')'"),
        ("p(x) :- x >= 1.\nq(y) :- y >= ", "2:14-14", "expected a term, found 'end of input'"),
        ("?- p(x).", "1:1-3", "expected 'ident', found '?-'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value.span) == f"<string>:{span}", text
        assert err.value.message == message, text
    assert len(parse_program("p(x) :- x >= 1.\n%").rules) == 1


def test_nesting_limit_covers_parentheses_and_minus_signs():
    def nested(opening: str, closing: str, depth: int) -> str:
        return f"p(x) :- x >= {opening * depth}1{closing * depth}."

    for opening, closing in (("(", ")"), ("-", ""), ("-(", ")")):
        depth = MAX_NESTING // len(opening)
        assert len(parse_program(nested(opening, closing, depth)).rules) == 1
        for too_deep in (depth + 1, 2000):
            with pytest.raises(ParseError, match="nested"):
                parse_program(nested(opening, closing, too_deep))
    assert MAX_NESTING >= 250  # what the recursive parser has always accepted


_CLP_PIECES = st.sampled_from(
    list("()=,.+-*/%\n ") + [":-", "?-", ">=", "<=", "p", "q", "x", "y", "1", "0", "72"]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(_CLP_PIECES, max_size=40).map("".join)))
def test_parse_program_returns_a_program_or_parse_error(text):
    try:
        result = parse_program(text)
    except ParseError:
        return
    assert isinstance(result, Program)


def test_atom_argument_must_be_variable():
    with pytest.raises(FlatnessError):
        parse_program("p(2) :- 0 = 0.")


def test_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse_program("p(x) :- x = 1/0.")


def test_roundtrip_corpus():
    for name in ("example72.clp", "example4.clp", "diverge.clp", "multibody.clp"):
        program = parse_program(load(name))
        again = parse_program(pretty_print(program))
        assert again == program


def test_roundtrip_random_programs():
    rng = random.Random(20240209)
    for kind in (random_binary_program_text, random_flat_program_text):
        for _ in range(40):
            text = kind(rng)
            program = parse_program(text)
            again = parse_program(pretty_print(program))
            assert again == program, text


def test_pretty_print_golden_program():
    assert pretty_print(parse_program(load("example72.clp"))) == (
        "p(x) :- x = 2.\n"
        "p(x) :- 0 = 1.\n"
        "p(x) :- -x >= -72, -x + y = 1, p(y).\n"
    )
    # a row whose variables all cancel has no terms and prints as 0
    assert pretty_print(parse_program("p(X) :- X - X >= -1, p(Y).")) == "p(X) :- 0 >= -1, p(Y).\n"


def test_render_row_matches_the_linear_constraint_reference():
    """``render_row`` prints a row as ``LinearConstraint.render`` does: every
    rule row of the corpus and of seeded random programs, and every row of
    their projections over q, q+ and n."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.clp"))]
    texts += [random_rational_program_text(random.Random(seed)) for seed in range(200)]
    fraction_bounds = 0
    for text in texts:
        program = parse_program(text)
        cases = [(row, program.pool) for rule in program.rules for row in rule.rows]
        for domain in (Q, QPLUS, N):
            verdict = decide(program, domain)
            if verdict.projection is not None:
                cases += [((c, b, GEQ), verdict.alm.pool) for c, b in verdict.projection.rows]
        for row, pool in cases:
            assert render_row(*row, pool) == row_constraint(*row).render(pool)
            fraction_bounds += isinstance(row[1], Fraction)
    assert fraction_bounds
    pool = VariablePool(["x", "y"])
    for row, text in (
        (({}, -1, GEQ), "0 >= -1"),
        (({1: 1, 0: -2}, Fraction(-1, 3), GEQ), "-2*x + y >= -1/3"),
        (({0: 1, 1: -3}, 0, EQ), "x - 3*y = 0"),
    ):
        assert render_row(*row, pool) == row_constraint(*row).render(pool) == text


def test_parser_builds_its_program_without_rechecking_it(monkeypatch):
    """The parser enforces flatness and the arity table as it reads, so its
    program is built without ``Rule.check_flatness``; ``Program(rules,
    pool)``, the constructor for other callers, still checks both."""
    from almterm.model import Atom, ModelError, Rule

    calls = []
    real = Rule.check_flatness

    def counting(rule):
        calls.append(rule.rule_id)
        return real(rule)

    monkeypatch.setattr(Rule, "check_flatness", counting)
    program = parse_program(
        "p(x) :- x >= 1, y = x - 1, p(y).\n"
        "q(a, b) :- a = b, p(c), r(d).\n"
        "r(z).\n"
    )
    assert calls == []
    # the same table, in the same order, as the checking constructor's
    checked = Program(program.rules, program.pool)
    assert calls == ["r1", "r2", "r3"]
    assert list(checked.arities.items()) == list(program.arities.items()) == [
        ("p", 1),
        ("q", 2),
        ("r", 1),
    ]
    pool = VariablePool(["x", "y"])
    shared = Rule("r1", Atom("p", (0,)), (), (Atom("p", (0,)),))
    with pytest.raises(ModelError, match="shared"):
        Program([shared], pool)
    clash = [Rule("r1", Atom("p", (0,)), (), ()), Rule("r2", Atom("p", (0, 1)), (), ())]
    with pytest.raises(ModelError, match="arities 1 and 2"):
        Program(clash, pool)


def test_parsed_programs_satisfy_model_invariants():
    """``Program(rules, pool)``, which checks every rule's flatness and the
    arities, accepts every program the parser and ``binarize`` build
    unchecked, and derives the parser's arity table in the same order."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.clp"))]
    for seed in range(200):
        rng = random.Random(seed)
        texts += [random_flat_program_text(rng), random_binary_program_text(rng)]
    for text in texts:
        parsed = parse_program(text)
        for program in (parsed, binarize(parsed)):
            checked = Program(program.rules, program.pool)
            assert checked == program
            assert list(checked.arities.items()) == list(program.arities.items())


def test_constraints_become_primitive_integer_rows():
    program = parse_program("p(x) :- x/2 >= 1/3, y = x - 1, p(y).")
    rule = program.rules[0]
    (x,), (y,) = rule.head.args, rule.body[0].args
    assert rule.rows == (({x: 3}, 2, GEQ), ({y: 1, x: -1}, -1, EQ))
    # lhs variables first; a variable that cancels leaves the row
    assert [list(coeffs) for coeffs, _, _ in rule.rows] == [[x], [y, x]]
    (rule,) = parse_program("p(x) :- w + x >= w + 1/2, q(w).").rules
    assert rule.rows == (({rule.head.args[0]: 2}, 1, GEQ),)
    # rows print in the concrete grammar
    assert [render_row(*row, program.pool) for row in program.rules[0].rows] == [
        "3*x >= 2",
        "-x + y = -1",
    ]


def _row_items(rows):
    """Rows with their coefficient dicts as item lists, so key order counts."""
    return [(list(coeffs.items()), bound, rel) for coeffs, bound, rel in rows]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x - x + y + x >= 0", ([("y", 1), ("x", 1)], 0, GEQ)),
        ("2*x/4 <= 1/3", ([("x", -3)], -2, GEQ)),
        ("x / -2 >= 1", ([("x", -1)], 2, GEQ)),
        ("(1-1)*x + y = 0", ([("y", 1)], 0, EQ)),
        ("0/5*y + x = y/(3-1)", ([("x", 2), ("y", -1)], 0, EQ)),
        ("-(-(-x)) >= -y", ([("x", -1), ("y", 1)], 0, GEQ)),
        ("0 = 0", ([], 0, EQ)),
        ("0 >= 6", ([], 1, GEQ)),
    ],
)
def test_named_constraints_give_pinned_rows(text, expected):
    rule = parse_program(f"p(x, y) :- {text}.").rules[0]
    names = dict(zip(rule.head.args, ("x", "y")))
    ((coeffs, bound, rel),) = _row_items(rule.rows)
    assert ([(names[v], k) for v, k in coeffs], bound, rel) == expected


_TERMS = ("x", "y", "z", "0", "1", "2", "3", "12", "2/3", "5/4", str(2**64 + 3))
_SNIPPETS = ("(2-2)*x", "0/5*y", "(1-1)", "x - x", "x / -2", "-(-(-y))", "(x - x + y + x)")
_BAD_SNIPPETS = ("1/(1-1)", "x/(2-2)", "x*y", "(y+1)*z", "x/y", "1/0")
_FACTORS = ("2", "3", "12", "2/3", "5/4", "-7", "(2-5)", str(2**64 + 3))


def _random_expr(rng: random.Random, depth: int = 0) -> str:
    parts = [_random_term(rng, depth)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        parts += [rng.choice((" + ", " - ")), _random_term(rng, depth)]
    return "".join(parts)


def _random_term(rng: random.Random, depth: int) -> str:
    pick = rng.random() * (0.5 if depth >= 3 else 1.0)
    if pick < 0.36:
        return rng.choice(_TERMS)
    if pick < 0.38:
        return rng.choice(_BAD_SNIPPETS)
    if pick < 0.5:
        return rng.choice(_SNIPPETS)
    if pick < 0.6:
        return "-" * rng.randint(1, 3) + _random_term(rng, depth + 1)
    if pick < 0.75:
        return f"({_random_expr(rng, depth + 1)})"
    # mostly a variable-free factor, so that most products stay linear
    factor = _random_term(rng, 3) if rng.random() < 0.2 else rng.choice(_FACTORS)
    left = _random_term(rng, depth + 1)
    op = rng.choice("*/")
    return f"{left} {op} {factor}" if rng.random() < 0.5 or op == "/" else f"{factor} {op} {left}"


def _random_constraint_text(rng: random.Random) -> str:
    op = rng.choice(("=", ">=", "<=") * 6 + (">",))
    text = f"{_random_expr(rng)} {op} {_random_expr(rng)}"
    roll = rng.random()
    if roll < 0.01:
        text = "-" * (MAX_NESTING + 1) + text
    elif roll < 0.02:
        text = "9" * 5000 + " * " + text
    return text


def _outcome(parse, text):
    try:
        result = parse(text, file="corpus")
    except ParseError as err:
        return type(err).__name__, err.span, str(err)
    return [_row_items(rule.rows) for rule in result.rules]


def test_parser_rows_and_errors_match_the_linear_expr_oracle():
    """The integer expression path writes the rows (key order included) and
    raises the errors (class, span, message) of the ``LinearExpr`` path."""
    from parser_oracle import oracle_parse_program

    rng = random.Random(1313)
    parsed = failed = 0
    for _ in range(2400):
        items = ", ".join(_random_constraint_text(rng) for _ in range(rng.randint(1, 2)))
        text = f"p(x, y, z) :- {items}."
        got = _outcome(parse_program, text)
        assert got == _outcome(oracle_parse_program, text), text
        if isinstance(got[0], str):
            failed += 1
        else:
            parsed += 1
    # both paths are exercised: rows written and errors raised
    assert parsed >= 1000 and failed >= 1000
