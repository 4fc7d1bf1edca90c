"""Rational linear expressions and constraints: the vocabulary the test
oracles and the hand-written reference systems are built on.

``almterm`` computes on primitive integer rows only
(:data:`almterm.model.ConstraintRow`, :data:`almterm.lp.Row`).  The tests
write systems as ``Fraction`` expressions instead: :func:`constraint_row`
and :func:`normalize` turn them into rows and systems, :func:`row_constraint`
turns a row back, and :meth:`LinearConstraint.render` is the reference that
:func:`almterm.model.render_row` must match character for character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from almterm.lp import LinearSystem, integer_system
from almterm.model import EQ, GEQ, ConstraintRow, ModelError, VariablePool, rat


@dataclass(frozen=True)
class LinearExpr:
    """``sum(coeffs[v] * v) + const`` over variable ids, with Fraction values;
    zero coefficients are never stored, so structural equality coincides with
    mathematical equality."""

    coeffs: Mapping[int, Fraction] = field(default_factory=dict)
    const: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", {v: rat(c) for v, c in self.coeffs.items() if c != 0})
        object.__setattr__(self, "const", rat(self.const))

    @staticmethod
    def of_var(vid: int, coeff: int | Fraction = 1) -> LinearExpr:
        return LinearExpr({vid: coeff})

    @staticmethod
    def of_const(value: int | str | Fraction) -> LinearExpr:
        return LinearExpr({}, value)

    def variables(self) -> set[int]:
        return set(self.coeffs)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other: LinearExpr) -> LinearExpr:
        # a variable that cancels leaves the dict, so one that comes back
        # later is ordered last (the parser's key order)
        merged = dict(self.coeffs)
        for v, c in other.coeffs.items():
            s = merged.get(v, 0) + c
            if s:
                merged[v] = s
            else:
                del merged[v]
        return LinearExpr(merged, self.const + other.const)

    def __sub__(self, other: LinearExpr) -> LinearExpr:
        return self + (-other)

    def __neg__(self) -> LinearExpr:
        return self.scale(-1)

    def scale(self, k: int | Fraction) -> LinearExpr:
        k = rat(k)
        return LinearExpr({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = self.const
        for v, c in self.coeffs.items():
            if v not in assignment:
                raise ModelError(f"no value for variable id {v}")
            total += c * assignment[v]
        return total

    def render(self, names: VariablePool) -> str:
        parts: list[str] = []
        for v in sorted(self.coeffs):
            c = self.coeffs[v]
            term = names.name(v) if abs(c) == 1 else f"{abs(c)}*{names.name(v)}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        if self.const != 0 or not parts:
            if not parts:
                parts.append(str(self.const))
            elif self.const > 0:
                parts.append(f"+ {self.const}")
            else:
                parts.append(f"- {-self.const}")
        return " ".join(parts)


var = LinearExpr.of_var
const = LinearExpr.of_const


@dataclass(frozen=True)
class LinearConstraint:
    """``lhs = rhs`` or ``lhs >= rhs`` between two linear expressions."""

    lhs: LinearExpr
    rel: str
    rhs: LinearExpr

    def gap(self) -> LinearExpr:
        """lhs - rhs, the expression constrained to be = 0 or >= 0."""
        return self.lhs - self.rhs

    def variables(self) -> set[int]:
        return self.lhs.variables() | self.rhs.variables()

    def render(self, names: VariablePool) -> str:
        return f"{self.lhs.render(names)} {self.rel} {self.rhs.render(names)}"


def _expr(value: LinearExpr | int | str | Fraction) -> LinearExpr:
    return value if isinstance(value, LinearExpr) else LinearExpr.of_const(value)


def geq(lhs, rhs) -> LinearConstraint:
    return LinearConstraint(_expr(lhs), GEQ, _expr(rhs))


def equal(lhs, rhs) -> LinearConstraint:
    return LinearConstraint(_expr(lhs), EQ, _expr(rhs))


def constraint_row(c: LinearConstraint) -> ConstraintRow:
    """``c`` as the primitive integer row the parser writes for it: the
    nonzero coefficients of ``lhs - rhs`` (lhs variables first) and the bound
    ``rhs.const - lhs.const``, scaled by a positive rational to coprime
    integers."""
    gap = c.gap()
    den = math.lcm(gap.const.denominator, *[k.denominator for k in gap.coeffs.values()])
    ints = {v: k.numerator * (den // k.denominator) for v, k in gap.coeffs.items()}
    bound = -gap.const.numerator * (den // gap.const.denominator)
    g = math.gcd(bound, *ints.values()) or 1
    return {v: k // g for v, k in ints.items()}, bound // g, c.rel


def row_constraint(coeffs: Mapping[int, int], bound: int | Fraction, rel: str) -> LinearConstraint:
    """The row ``coeffs . x (rel) bound`` as a constraint."""
    return LinearConstraint(LinearExpr(coeffs), rel, LinearExpr.of_const(bound))


def nonneg_rows(variables: Iterable[int]) -> tuple[ConstraintRow, ...]:
    """One ``x >= 0`` row per variable, in variable id order: the rows a
    domain with implicit nonnegativity adds, written here independently of
    :meth:`almterm.model.Rule.domain_rows`."""
    return tuple([({v: 1}, 0, GEQ) for v in sorted(variables)])


def normalize(
    constraints: Iterable[LinearConstraint],
    extra_nonneg: Iterable[int] = (),
    order_hint: Sequence[int] = (),
) -> LinearSystem:
    """:func:`almterm.lp.integer_system` of the constraints' rows, then the
    ``x >= 0`` rows of ``extra_nonneg``."""
    rows = [*map(constraint_row, constraints), *nonneg_rows(extra_nonneg)]
    return integer_system(rows, order_hint)
