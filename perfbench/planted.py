"""Seeded flat programs with planted answers, and the exact box arithmetic
that checks them without calling into ``almterm``.

Every planted-yes rule has the shape

    p(x1..xa) :- lo1 <= x1, x1 <= hi1, ..., y1 = e1(x), ..., q(y1..yb).

with ``0 <= lo <= hi`` and every body argument ``e(x)`` affine in the head
arguments and nonnegative on the box.  The rule's solutions are therefore the
box itself on every domain (q, q+, r, r+ and n), and an affine level mapping
certifies the rule exactly when two affine functions have the right minimum
over that box.  The minimum of an affine function over a box is a sum of one
term per coordinate, so the check is a few exact rational operations.

A planted-yes program is built around a planted level mapping: candidate rules
are drawn at random and kept only when the box check confirms that the
mapping certifies them.  A planted-no program adds one diverging rule

    p(x1..xa) :- x1 >= 0, y1 = x1 + 1, y2 = x2, ..., p(y1..ya).

which admits no affine level mapping (see README.md for the proof).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

YES = "yes"
NO = "no"

PRED_NAMES = ("p", "q", "r", "s")

LevelVectors = Mapping[str, Sequence[Fraction]]  # predicate -> (c0, c1, ..., ca)


@dataclass(frozen=True)
class Affine:
    """``const + sum(coeffs[i] * x[i+1])`` over the head arguments."""

    const: int
    coeffs: tuple[int, ...]

    def render(self) -> str:
        parts: list[str] = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            if not parts:
                parts.append(f"{'-' if c < 0 else ''}{mag}x{i}")
            else:
                parts.append(f"{'-' if c < 0 else '+'} {mag}x{i}")
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                parts.append(f"{'-' if self.const < 0 else '+'} {abs(self.const)}")
        return " ".join(parts)


@dataclass(frozen=True)
class BodyAtom:
    pred: str
    args: tuple[Affine, ...]


@dataclass(frozen=True)
class BoxRule:
    """A rule whose solution set is the box ``lo <= x <= hi`` (a fact when
    ``body`` is empty)."""

    head: str
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    body: tuple[BodyAtom, ...]

    def render(self) -> str:
        arity = len(self.lo)
        head = f"{self.head}({', '.join(f'x{i}' for i in range(1, arity + 1))})" if arity else self.head
        items: list[str] = []
        for i in range(1, arity + 1):
            items.append(f"{self.lo[i - 1]} <= x{i}")
            items.append(f"x{i} <= {self.hi[i - 1]}")
        atoms: list[str] = []
        for k, atom in enumerate(self.body, start=1):
            names = [f"y{k}_{j}" for j in range(1, len(atom.args) + 1)]
            for name, arg in zip(names, atom.args):
                items.append(f"{name} = {arg.render()}")
            atoms.append(f"{atom.pred}({', '.join(names)})")
        return f"{head} :- {', '.join(items + atoms)}."


@dataclass(frozen=True)
class Planted:
    """A generated program with its planted answer.

    ``mapping`` is the planted level mapping of a planted-yes program and
    None for a planted-no one, whose ``diverging`` line is the rule that
    admits no affine level mapping."""

    name: str
    arities: dict[str, int]
    rules: tuple[BoxRule, ...]
    mapping: dict[str, tuple[Fraction, ...]] | None
    diverging: str | None
    text: str

    @property
    def answer(self) -> str:
        return YES if self.diverging is None else NO

    @property
    def num_rules(self) -> int:
        return len(self.rules) + (self.diverging is not None)


def expected_verdict(answer: str, domain: str) -> str:
    """Over the naturals the method is sound but incomplete."""
    if domain == "n":
        return "sound-yes" if answer == YES else "unknown"
    return "alm-recurrent" if answer == YES else "not-alm-recurrent"


# ---------------------------------------------------------------------------
# exact box arithmetic
# ---------------------------------------------------------------------------


def box_min(const: Fraction, coeffs: Sequence[Fraction], lo: Sequence[int], hi: Sequence[int]) -> Fraction:
    """Minimum of ``const + coeffs . x`` over ``lo <= x <= hi``."""
    total = Fraction(const)
    for c, a, b in zip(coeffs, lo, hi):
        total += c * a if c > 0 else c * b
    return total


def _body_level(mapping: LevelVectors, atom: BodyAtom, arity: int) -> tuple[Fraction, list[Fraction]]:
    """``|q(e(x))|`` as an affine function of the head arguments."""
    vec = [Fraction(c) for c in mapping[atom.pred]]
    const = vec[0]
    coeffs = [Fraction(0)] * arity
    for m, arg in zip(vec[1:], atom.args):
        const += m * arg.const
        for i, a in enumerate(arg.coeffs):
            coeffs[i] += m * a
    return const, coeffs


def rule_margins(mapping: LevelVectors, rule: BoxRule) -> list[tuple[Fraction, Fraction]]:
    """Per body atom: (min of head level minus body level, min of body level)
    over the rule's box."""
    arity = len(rule.lo)
    head = [Fraction(c) for c in mapping[rule.head]]
    out = []
    for atom in rule.body:
        bconst, bcoeffs = _body_level(mapping, atom, arity)
        decrease = box_min(
            head[0] - bconst, [h - b for h, b in zip(head[1:], bcoeffs)], rule.lo, rule.hi
        )
        out.append((decrease, box_min(bconst, bcoeffs, rule.lo, rule.hi)))
    return out


def certifies_rule(mapping: LevelVectors, rule: BoxRule) -> bool:
    """Does the mapping decrease by at least 1 from the head to every body
    atom, with every body atom's level nonnegative, on the whole box?"""
    return all(d >= 1 and b >= 0 for d, b in rule_margins(mapping, rule))


def certifies(mapping: LevelVectors, planted: Planted) -> bool:
    """Box check of a mapping against every box rule of a program; a
    planted-no program's diverging rule is certified by nothing."""
    for pred, arity in planted.arities.items():
        if pred not in mapping or len(mapping[pred]) != arity + 1:
            return False
    if planted.diverging is not None:
        return False
    return all(certifies_rule(mapping, r) for r in planted.rules)


def level(mapping: LevelVectors, pred: str, args: Sequence[Fraction]) -> Fraction:
    vec = mapping[pred]
    return Fraction(vec[0]) + sum((Fraction(c) * a for c, a in zip(vec[1:], args)), Fraction(0))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Structure of one generated program; the seed only picks constants."""

    arities: tuple[int, ...]
    bodies: tuple[int, ...]  # body atom count of each rule; 0 makes a fact
    # a fixed planted mapping, (c0, c1, ..., ca) per predicate; drawn from
    # the seed when None
    mapping: tuple[tuple[int, ...], ...] | None = None
    answer: str = YES


# boxes lo <= x <= hi have 0 <= lo <= LO_MAX and hi - lo <= WIDTH_MAX; body
# arguments have head-argument coefficients in [-COEFF_MAX, COEFF_MAX]
LO_MAX = 6
WIDTH_MAX = 8
COEFF_MAX = 1


def _planted_mapping(rng: random.Random, arities: dict[str, int]) -> dict[str, tuple[Fraction, ...]]:
    # a narrow family (constant 5..15, weights 1..2) keeps the cost of
    # deciding a program of a given shape nearly independent of the seed
    return {
        pred: (Fraction(rng.randint(5, 15)),) + tuple(Fraction(rng.randint(1, 2)) for _ in range(arity))
        for pred, arity in arities.items()
    }


def _box(rng: random.Random, arity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lo = tuple(rng.randint(0, LO_MAX) for _ in range(arity))
    hi = tuple(a + rng.randint(0, WIDTH_MAX) for a in lo)
    return lo, hi


def _atom(rng: random.Random, arities: dict[str, int], lo, hi) -> BodyAtom:
    arity = len(lo)
    pred = rng.choice(list(arities))
    args = []
    for _ in range(arities[pred]):
        coeffs = [rng.randint(-COEFF_MAX, COEFF_MAX) for _ in range(arity)]
        if not any(coeffs):
            coeffs[rng.randrange(arity)] = 1
        floor = box_min(Fraction(0), [Fraction(c) for c in coeffs], lo, hi)
        # shift so the argument is nonnegative on the box, with some slack
        const = int(-floor) + rng.randint(0, 3)
        args.append(Affine(const, tuple(coeffs)))
    return BodyAtom(pred, tuple(args))


ATOM_TRIES = 40


def _rule(rng: random.Random, arities: dict[str, int], mapping, head: str, nbody: int) -> BoxRule:
    """Draw body atoms one at a time, each redrawn until the mapping
    certifies it on the box; a box on which that keeps failing is redrawn."""
    while True:
        lo, hi = _box(rng, arities[head])
        body: list[BodyAtom] = []
        if nbody == 0:
            return BoxRule(head, lo, hi, ())
        for _ in range(ATOM_TRIES):
            atom = _atom(rng, arities, lo, hi)
            if certifies_rule(mapping, BoxRule(head, lo, hi, (atom,))):
                body.append(atom)
                if len(body) == nbody:
                    return BoxRule(head, lo, hi, tuple(body))


def diverging_rule(pred: str, arity: int) -> str:
    head = f"{pred}({', '.join(f'x{i}' for i in range(1, arity + 1))})"
    body = f"{pred}({', '.join(f'y{i}' for i in range(1, arity + 1))})"
    items = ["x1 >= 0", "y1 = x1 + 1"] + [f"y{i} = x{i}" for i in range(2, arity + 1)]
    return f"{head} :- {', '.join(items)}, {body}."


def generate(rng: random.Random, shape: Shape, name: str) -> Planted:
    """One program of the given shape around a planted mapping.  Candidate
    rules the mapping does not certify are redrawn, so the draw sequence (and
    the text) depends only on the seed."""
    arities = {PRED_NAMES[i]: a for i, a in enumerate(shape.arities)}
    if shape.mapping is None:
        mapping = _planted_mapping(rng, arities)
    else:
        mapping = {pred: tuple(Fraction(c) for c in vec) for pred, vec in zip(arities, shape.mapping)}
    preds = list(arities)
    rules: list[BoxRule] = []
    for k, nbody in enumerate(shape.bodies):
        head = preds[k % len(preds)]
        rule = _rule(rng, arities, mapping, head, nbody)
        # the whole rule passes the box check, not only each atom on its own
        if not certifies_rule(mapping, rule):
            raise RuntimeError(f"generated rule not certified by its planted mapping: {rule}")
        rules.append(rule)
    lines = [r.render() for r in rules]
    diverging = None
    if shape.answer == NO:
        # a fixed place: the rule's position orders the columns of the final
        # solve, whose pivots (Bland's rule) follow that order
        diverging = diverging_rule(preds[0], arities[preds[0]])
        lines.insert(len(lines) // 2, diverging)
        mapping = None
    text = f"% {name}\n" + "\n".join(lines) + "\n"
    return Planted(name, arities, tuple(rules), mapping, diverging, text)


def countdown(rng: random.Random, name: str, preds: int, length: int, entries: int) -> Planted:
    """A chain of ``preds`` predicates, each stepping its argument down by
    one to the next predicate (the last back to the first) while
    ``preds <= x <= top``, entered from ``entries`` argument-free predicates
    ``e1 :- y = top, p(y).``  Planted mapping:
    ``|p_k(x)| = preds*x + preds - 1 - k`` and ``|e_j| = 1 + |p(top)|``.

    Derivation samplers start from every rule's head; the entries come
    first and every derivation from one runs ``top - preds + 3`` rewrites."""
    names = PRED_NAMES[:preds]
    top = length + rng.randint(0, 3)
    mapping = {pred: (Fraction(preds - 1 - k), Fraction(preds)) for k, pred in enumerate(names)}
    rules = [
        BoxRule(f"e{j}", (), (), (BodyAtom(names[0], (Affine(top, ()),)),))
        for j in range(1, entries + 1)
    ]
    for k, pred in enumerate(names):
        nxt = names[(k + 1) % preds]
        rules.append(BoxRule(pred, (preds,), (top,), (BodyAtom(nxt, (Affine(-1, (1,)),)),)))
    for j in range(1, entries + 1):
        mapping[f"e{j}"] = (1 + level(mapping, names[0], (Fraction(top),)),)
    arities = {r.head: len(r.lo) for r in rules}
    text = f"% {name}\n" + "\n".join(r.render() for r in rules) + "\n"
    return Planted(name, arities, tuple(rules), mapping, None, text)
