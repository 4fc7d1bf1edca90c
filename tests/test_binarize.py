import random

from almterm import Q, binarize, decide, parse_program, verify
from helpers import load, random_flat_program_text


def test_splits_two_atom_body():
    program = parse_program("a(x) :- x >= 0, b(y), d(z).")
    out = binarize(program)
    assert len(out.rules) == 2
    first, second = out.rules
    assert [a.pred for a in first.body] == ["b"]
    assert [a.pred for a in second.body] == ["d"]
    assert first.origin == ("r1", 1) and second.origin == ("r1", 2)
    # constraint copied verbatim into both children
    assert first.rows == program.rules[0].rows
    assert second.rows == program.rules[0].rows


def test_binary_program_unchanged():
    program = parse_program(load("example72.clp"))
    assert binarize(program) is program


def test_facts_only_unchanged():
    program = parse_program("p(x) :- x = 1.\nq :- 0 = 0.")
    assert binarize(program) is program


def test_idempotent_and_binary():
    """A binary program comes back itself; any other is rebuilt with one
    child per body atom of each multi-atom rule."""
    rng = random.Random(31)
    split = 0
    for _ in range(60):
        program = parse_program(random_flat_program_text(rng))
        once = binarize(program)
        assert all(len(r.body) <= 1 for r in once.rules)
        assert binarize(once) is once
        if program.is_binary():
            assert once is program
            continue
        split += 1
        children = [r for r in once.rules if r.origin]
        assert len(children) == sum(len(r.body) for r in program.rules if len(r.body) > 1)
    assert split >= 20


def test_child_rules_keep_dropped_atom_variables_in_constraint():
    program = parse_program(load("multibody.clp"))
    out = binarize(program)
    recursive = [r for r in out.rules if r.origin]
    assert len(recursive) == 2
    # the z = x - 2 constraint survives in the child that dropped f(z)
    child_y = recursive[0]
    assert len(child_y.rows) == 3
    assert not child_y.constraint_vars() <= {v for a in child_y.atoms() for v in a.args}


def test_certificate_transfers_both_ways():
    rng = random.Random(77)
    checked = 0
    for _ in range(120):
        program = parse_program(random_flat_program_text(rng))
        binary = binarize(program)
        verdict = decide(binary, Q)
        if verdict.witness is None:
            continue
        checked += 1
        assert verify(binary, verdict.witness, Q).passed
        assert verify(program, verdict.witness, Q).passed
    assert checked >= 10
