"""Tests of the benchmark's generators, checkers and span accounting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import planted as P
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

ALL_SHAPES = workloads.SMALL_SHAPES + workloads.PROJECT_SHAPES + workloads.LARGE_ROUND[:1]


def _programs(seed: int, answer: str = P.YES):
    rng = random.Random(seed)
    return [P.generate(rng, replace(s, answer=answer), f"t{k}") for k, s in enumerate(ALL_SHAPES)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    second = workloads.build(workload, 7, tmp_path / "b")
    assert len(first) == len(second)
    texts_a = sorted(p.read_bytes() for p in (tmp_path / "a").iterdir())
    texts_b = sorted(p.read_bytes() for p in (tmp_path / "b").iterdir())
    assert texts_a == texts_b
    other = workloads.build(workload, 8, tmp_path / "c")
    assert len(other) == len(first)
    assert sorted(p.read_bytes() for p in (tmp_path / "c").iterdir()) != texts_a


@pytest.mark.parametrize("seed", range(5))
def test_planted_mappings_pass_the_box_check(seed):
    for pl in _programs(seed):
        assert P.certifies(pl.mapping, pl)
    rng = random.Random(seed)
    for chain in (1, 2, 3):
        pl = P.countdown(rng, "c", chain, 50, 2)
        assert P.certifies(pl.mapping, pl)


def test_broken_mappings_are_rejected():
    rng = random.Random(3)
    for chain in (1, 2):
        pl = P.countdown(rng, "c", chain, 50, 2)
        broken = {p: (vec[0], Fraction(0)) if len(vec) == 2 else vec for p, vec in pl.mapping.items()}
        assert not P.certifies(broken, pl)
    for pl in _programs(11):
        # pushing every level below zero breaks body nonnegativity somewhere
        sunk = {p: (vec[0] - 1000,) + tuple(vec[1:]) for p, vec in pl.mapping.items()}
        assert not P.certifies(sunk, pl)
        for rule in pl.rules:
            self_loop = any(a.pred == rule.head for a in rule.body)
            if self_loop:
                vec = pl.mapping[rule.head]
                flat = dict(pl.mapping, **{rule.head: (vec[0],) + (Fraction(0),) * (len(vec) - 1)})
                assert not P.certifies_rule(flat, replace(rule, body=tuple(a for a in rule.body if a.pred == rule.head)))
        missing = dict(pl.mapping)
        missing.pop(next(iter(missing)))
        assert not P.certifies(missing, pl)


def test_box_min_is_the_minimum_over_the_vertices():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 3)
        lo = [rng.randint(0, 5) for _ in range(n)]
        hi = [a + rng.randint(0, 5) for a in lo]
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        const = Fraction(rng.randint(-9, 9))
        vertices = [[]]
        for a, b in zip(lo, hi):
            vertices = [v + [x] for v in vertices for x in (a, b)]
        expected = min(const + sum(c * x for c, x in zip(coeffs, v)) for v in vertices)
        assert P.box_min(const, coeffs, lo, hi) == expected


@pytest.mark.parametrize("seed", range(3))
def test_planted_no_programs_contain_their_diverging_rule(seed):
    for pl in _programs(seed, P.NO):
        assert pl.answer == P.NO and pl.mapping is None
        assert pl.diverging in pl.text.splitlines()
        assert "x1 >= 0, y1 = x1 + 1" in pl.diverging
        assert not P.certifies({p: (Fraction(0),) * (a + 1) for p, a in pl.arities.items()}, pl)


def test_workload_rounds_mix_answers(tmp_path):
    small = workloads.build("small-mixed", 2, tmp_path / "s")
    answers = [i.planted.answer for r in small for i in r.items]
    assert answers.count(P.NO) == len(answers) // 2
    for req in small:
        for item in req.items:
            if item.planted.answer == P.NO:
                assert item.planted.diverging in Path(item.path).read_text().splitlines()
    large = workloads.build("large", 2, tmp_path / "l")
    assert any(r.items[0].planted.answer == P.NO for r in large)
    assert all(r.items[0].planted.num_rules >= 120 for r in large)


def test_planted_answers_agree_with_almterm():
    sys.path.insert(0, str(SRC))
    import almterm as at

    for pl in _programs(1)[:6] + _programs(2, P.NO)[:6]:
        program = at.parse_program(pl.text)
        for dom in ("q", "n"):
            verdict = at.decide(program, at.Domain.parse(dom))
            assert verdict.kind == P.expected_verdict(pl.answer, dom)
        if pl.mapping is not None:
            assert at.verify(program, at.LevelMapping(pl.mapping), at.Q).passed


def _span(sid, parent, start, end, thread=1):
    return spans.Span(sid, f"s{sid}", 0, parent, thread, start, end)


def test_self_times_sum_to_the_request():
    # request 0..100; child 10..60 with grandchild 20..30; two overlapping
    # children on other threads 70..90 and 80..100
    group = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 60),
        _span(2, 1, 20, 30),
        _span(3, 0, 70, 90, thread=2),
        _span(4, 0, 80, 100, thread=3),
    ]
    own = spans.self_times(group)
    assert own[0] == pytest.approx((10 + 10) / 1e9)
    assert own[1] == pytest.approx(40 / 1e9)
    assert own[2] == pytest.approx(10 / 1e9)
    assert own[3] == pytest.approx((10 + 5) / 1e9)
    assert own[4] == pytest.approx((5 + 10) / 1e9)
    assert sum(own.values()) == pytest.approx(100 / 1e9)
