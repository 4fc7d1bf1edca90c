"""Shared test utilities: corpus paths and seeded program generators."""

from __future__ import annotations

import random
from pathlib import Path

from almterm.lp import LinearSystem, feasible_point

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

PRED_NAMES = ("p", "q", "r")

# hand-written programs for the two paths of sampled runs: a halving whose
# values become rational over n, a body argument only an implicit equality
# fixes (the run switches to the store path midway), unsatisfiable rules
# beside others (one failed by its plan's guards, one without a plan, failed
# on the store path), and facts
SAMPLED_RUN_PROGRAMS = (
    ("p(x) :- x >= 1, 2*y = x, p(y).", ("n",)),
    (
        "p(x) :- x >= 1, y = x - 1, q(y).\n"
        "q(x) :- x >= 1, y >= x - 1, y <= x - 1, p(y).",
        ("q", "q+", "n"),
    ),
    (
        "p(x) :- x >= 1, y = x - 1, p(y).\n"
        "p(x) :- x >= 1, x <= 0, y = x, p(y).\n"
        "p(x) :- 0 = 1, y = x, p(y).\n"
        "p(x) :- x >= 0, x <= 3.",
        ("q", "q+", "n"),
    ),
    ("e :- y = 9, p(y).\np(x) :- x >= 2, y = x - 2, p(y).\np(x) :- x = 1.\nq.", ("q", "q+", "n")),
)


def load(name: str) -> str:
    return (PROGRAMS / name).read_text(encoding="utf-8")


def feasible(sys: LinearSystem) -> bool:
    """Exact satisfiability of the conjunction."""
    return feasible_point(sys) is not None


def _random_constraints(rng: random.Random, variables: list[str], min_count: int) -> list[str]:
    out: list[str] = []
    for _ in range(rng.randint(min_count, 2)):
        if not variables:
            out.append(rng.choice(["0 = 0", "1 >= 0", "0 = 1"]))
            continue
        terms = []
        for v in variables:
            c = rng.randint(-5, 5)
            if c:
                terms.append(f"{c}*{v}")
        lhs = " + ".join(terms) if terms else "0"
        op = rng.choice(["=", ">=", "<="])
        out.append(f"{lhs} {op} {rng.randint(-5, 5)}")
    return out


def _decreasing_link(rng: random.Random, hvar: str, bvar: str) -> list[str]:
    # a guarded decrement: the kind of rule a level mapping can certify
    return [
        f"{bvar} = {hvar} - {rng.randint(1, 3)}",
        f"{hvar} >= {rng.randint(0, 3)}",
        f"{rng.randint(4, 9)} >= {hvar}",
    ]


def random_binary_program_text(rng: random.Random) -> str:
    """Binary program: <= 3 predicates, <= 4 rules, <= 3 variables per rule,
    integer coefficients in [-5, 5]."""
    arities = {PRED_NAMES[i]: rng.randint(0, 2) for i in range(rng.randint(1, 3))}
    preds = list(arities)
    lines: list[str] = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(preds)
        fits = [q for q in preds if arities[head] + arities[q] <= 3]
        body = rng.choice(fits) if fits and rng.random() < 0.85 else None
        hvars = [f"x{i}" for i in range(1, arities[head] + 1)]
        bvars = [f"y{i}" for i in range(1, arities[body] + 1)] if body else []
        cons: list[str] = []
        if body and hvars and bvars and rng.random() < 0.6:
            cons += _decreasing_link(rng, hvars[0], bvars[0])
        cons += _random_constraints(rng, hvars + bvars, 0 if cons else 1)
        items = list(cons)
        if body is not None:
            items.append(f"{body}({', '.join(bvars)})" if bvars else body)
        head_txt = f"{head}({', '.join(hvars)})" if hvars else head
        lines.append(f"{head_txt} :- {', '.join(items)}." if items else f"{head_txt}.")
    return "\n".join(lines)


def random_flat_program_text(rng: random.Random, max_body: int = 3) -> str:
    """Like the binary generator but bodies may hold up to ``max_body`` atoms."""
    arities = {PRED_NAMES[i]: rng.randint(0, 2) for i in range(rng.randint(1, 3))}
    preds = list(arities)
    lines: list[str] = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(preds)
        hvars = [f"x{i}" for i in range(1, arities[head] + 1)]
        body: list[tuple[str, list[str]]] = []
        for b in range(rng.randint(0, max_body)):
            pred = rng.choice(preds)
            body.append(
                (pred, [f"z{b}_{i}" for i in range(1, arities[pred] + 1)])
            )
        allvars = hvars + [v for _, vs in body for v in vs]
        cons = _random_constraints(rng, allvars, 1)
        if body and hvars and body[0][1] and rng.random() < 0.5:
            cons = _decreasing_link(rng, hvars[0], body[0][1][0]) + cons
        items = cons + [f"{p}({', '.join(vs)})" if vs else p for p, vs in body]
        head_txt = f"{head}({', '.join(hvars)})" if hvars else head
        lines.append(f"{head_txt} :- {', '.join(items)}." if items else f"{head_txt}.")
    return "\n".join(lines)


def _fraction(rng: random.Random, low: int = -9, high: int = 9) -> str:
    num = rng.randint(low, high)
    den = rng.randint(1, 4)
    return f"{num}/{den}" if den > 1 else str(num)


def _rational_expr(rng: random.Random, variables: list[str]) -> str:
    """A linear expression written with ``a/b`` coefficients, a parenthesised
    group divided by a constant, and unary minus signs."""
    chosen = rng.sample(variables, rng.randint(0, len(variables)))
    terms = [f"{_fraction(rng, 1)}*{v}" for v in chosen]
    terms.append(_fraction(rng))
    rng.shuffle(terms)
    text = " + ".join(terms)
    shape = rng.randint(0, 3)
    if shape == 1:
        text = f"({text})/{rng.randint(2, 5)}"
    elif shape == 2:
        text = f"-({text})"
    elif shape == 3:
        text = f"{_fraction(rng, 1)}*({text})"
    return text


def _rational_constraint(rng: random.Random, variables: list[str]) -> str:
    lhs = _rational_expr(rng, variables)
    rhs = _rational_expr(rng, variables)
    if variables and rng.random() < 0.4:
        # a term on both sides that cancels out of the row
        w = rng.choice(variables)
        lhs, rhs = f"{w} + {lhs}", f"{rhs} + {w}"
    return f"{lhs} {rng.choice(['=', '>=', '<='])} {rhs}"


def random_rational_program_text(rng: random.Random, max_body: int = 2) -> str:
    """Flat programs over predicates of arity 1 or 2 whose constraints have
    rational coefficients and bounds, parentheses, unary minus, division by a
    constant, ``<=`` and terms that cancel; bodies hold up to ``max_body``
    atoms."""
    arities = {PRED_NAMES[i]: rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    preds = list(arities)
    lines: list[str] = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(preds)
        hvars = [f"x{i}" for i in range(1, arities[head] + 1)]
        body = [
            (pred, [f"z{b}_{i}" for i in range(1, arities[pred] + 1)])
            for b, pred in enumerate(rng.choices(preds, k=rng.randint(0, max_body)))
        ]
        allvars = hvars + [v for _, vs in body for v in vs]
        cons = [_rational_constraint(rng, allvars) for _ in range(rng.randint(1, 2))]
        if body and hvars and body[0][1] and rng.random() < 0.6:
            x, z = hvars[0], body[0][1][0]
            cons = [
                f"{z} = {x} - {_fraction(rng, 1, 3)}",
                f"{x} >= {_fraction(rng, 0, 3)}",
                f"{x} <= {_fraction(rng, 8, 20)}",
            ] + cons
        items = cons + [f"{p}({', '.join(vs)})" for p, vs in body]
        lines.append(f"{head}({', '.join(hvars)}) :- {', '.join(items)}.")
    return "\n".join(lines)


def synthetic_family_text(n: int) -> str:
    """n structurally identical guarded-decrement rules over one predicate."""
    return "\n".join(
        f"p(x) :- x >= 0, {k} >= x, y = x - 1, p(y)." for k in range(1, n + 1)
    )
