"""Exact data model for flat constraint logic programs over linear arithmetic.

Everything here is immutable after construction and exact, so no rounding can
occur anywhere in an analysis.  A rule holds its constraint as primitive
integer rows (:data:`ConstraintRow`), which the parser writes directly;
:class:`LinearConstraint` is the rational form the library takes constraints
in and shows them in, and :func:`constraint_row` (for library input only)
and :func:`row_constraint` (for display) convert one way each.  Variables
are interned to dense integer ids; their source names live in a
:class:`VariablePool` side table used only for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Iterable, Mapping, Sequence

EQ = "="
GEQ = ">="


class AlmtermError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(AlmtermError):
    """Structural violation in programs, constraints, or level mappings."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``-3/4`` to an exact rational.

    Floats are rejected on purpose: admitting one would silently break the
    exactness guarantee of the whole pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ModelError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Domain:
    """Numeric domain a program is interpreted over.

    ``q+``, ``r+`` and ``n`` place an implicit ``x >= 0`` on every variable.
    ``n`` is special: the analysis is sound but not complete there, so
    affirmative answers become "sound-yes" and negative ones "unknown".
    """

    tag: str

    _TAGS: ClassVar[tuple[str, ...]] = ("q", "q+", "r", "r+", "n")

    def __post_init__(self) -> None:
        if self.tag not in self._TAGS:
            raise ModelError(f"unknown domain {self.tag!r}; expected one of {self._TAGS}")

    @property
    def nonneg(self) -> bool:
        return self.tag in ("q+", "r+", "n")

    @property
    def sound_only(self) -> bool:
        return self.tag == "n"

    @property
    def integral(self) -> bool:
        return self.tag == "n"

    @classmethod
    def parse(cls, text: str) -> "Domain":
        return cls(text.strip().lower())


Q = Domain("q")
QPLUS = Domain("q+")
R = Domain("r")
RPLUS = Domain("r+")
N = Domain("n")

DOMAINS = (Q, QPLUS, R, RPLUS, N)


class VariablePool:
    """Interns variables as dense integer ids and remembers display names.

    Ids are never reused.  Analyses that need scratch variables must work on
    a :meth:`clone` so that programs stay shareable across threads.
    """

    __slots__ = ("_names",)

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = list(names)

    def fresh(self, name: str) -> int:
        self._names.append(name)
        return len(self._names) - 1

    def name(self, vid: int) -> str:
        if 0 <= vid < len(self._names):
            return self._names[vid]
        return f"_v{vid}"

    def clone(self) -> "VariablePool":
        return VariablePool(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True)
class LinearExpr:
    """A linear expression ``sum(coeffs[v] * v) + const`` over variable ids.

    Zero coefficients are never stored, so structural equality coincides with
    mathematical equality.
    """

    coeffs: Mapping[int, Fraction] = field(default_factory=dict)
    const: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        cleaned = {v: rat(c) for v, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "const", rat(self.const))

    @classmethod
    def _made(cls, coeffs: dict[int, Fraction], const: Fraction) -> "LinearExpr":
        """An expression from parts that are already normalised (Fraction
        values, no zero coefficients): the results of arithmetic on
        expressions skip the coercion of the public constructor."""
        expr = object.__new__(cls)
        object.__setattr__(expr, "coeffs", coeffs)
        object.__setattr__(expr, "const", const)
        return expr

    @staticmethod
    def of_var(vid: int, coeff: int | Fraction = 1) -> "LinearExpr":
        return LinearExpr({vid: rat(coeff)})

    @staticmethod
    def of_const(value: int | str | Fraction) -> "LinearExpr":
        return LinearExpr._made({}, rat(value))

    def variables(self) -> set[int]:
        return set(self.coeffs)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinearExpr") -> "LinearExpr":
        merged = dict(self.coeffs)
        for v, c in other.coeffs.items():
            s = merged.get(v, 0) + c
            if s:
                merged[v] = s
            else:
                del merged[v]
        return LinearExpr._made(merged, self.const + other.const)

    def __sub__(self, other: "LinearExpr") -> "LinearExpr":
        return self + (-other)

    def __neg__(self) -> "LinearExpr":
        return self.scale(Fraction(-1))

    def scale(self, k: int | Fraction) -> "LinearExpr":
        k = rat(k)
        if not k:
            return LinearExpr._made({}, Fraction(0))
        return LinearExpr._made({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = self.const
        for v, c in self.coeffs.items():
            if v not in assignment:
                raise ModelError(f"no value for variable id {v}")
            total += c * assignment[v]
        return total

    def render(self, names: "VariablePool | None" = None) -> str:
        def vname(v: int) -> str:
            return names.name(v) if names is not None else f"_v{v}"

        parts: list[str] = []
        for v in sorted(self.coeffs):
            c = self.coeffs[v]
            term = vname(v) if abs(c) == 1 else f"{abs(c)}*{vname(v)}"
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


def as_expr(value: "LinearExpr | int | str | Fraction") -> LinearExpr:
    if isinstance(value, LinearExpr):
        return value
    return LinearExpr.of_const(rat(value))


@dataclass(frozen=True)
class LinearConstraint:
    """``lhs = rhs`` or ``lhs >= rhs`` between two linear expressions."""

    lhs: LinearExpr
    rel: str
    rhs: LinearExpr

    def __post_init__(self) -> None:
        if self.rel not in (EQ, GEQ):
            raise ModelError(f"unsupported relation {self.rel!r}")

    def gap(self) -> LinearExpr:
        """lhs - rhs, i.e. the expression constrained to be = 0 or >= 0."""
        return self.lhs - self.rhs

    def variables(self) -> set[int]:
        return self.lhs.variables() | self.rhs.variables()

    def render(self, names: "VariablePool | None" = None) -> str:
        return f"{self.lhs.render(names)} {self.rel} {self.rhs.render(names)}"


# ``coeffs . x = bound`` or ``coeffs . x >= bound`` (``rel`` is EQ or GEQ):
# nonzero int coefficients by variable id and an int bound, all coprime
ConstraintRow = tuple[dict[int, int], int, str]


def constraint_row(c: LinearConstraint) -> ConstraintRow:
    """``c`` as a primitive integer row: the nonzero coefficients of
    ``lhs - rhs`` (lhs variables first, a variable that cancels left out) and
    the bound ``rhs.const - lhs.const``, scaled by a positive rational to
    coprime integers.  This converts library input
    (:func:`almterm.lp.normalize`); the parser writes the same row for the
    same constraint text without it."""
    coeffs = dict(c.lhs.coeffs)
    for v, k in c.rhs.coeffs.items():
        s = coeffs.get(v, 0) - k
        if s:
            coeffs[v] = s
        else:
            del coeffs[v]
    bound = c.rhs.const - c.lhs.const
    den = math.lcm(bound.denominator, *[k.denominator for k in coeffs.values()])
    ints = {v: k.numerator * (den // k.denominator) for v, k in coeffs.items()}
    b = bound.numerator * (den // bound.denominator)
    g = math.gcd(b, *ints.values())
    if g > 1:
        return {v: k // g for v, k in ints.items()}, b // g, c.rel
    return ints, b, c.rel


def row_constraint(coeffs: Mapping[int, int], bound: int | Fraction, rel: str) -> LinearConstraint:
    """The row ``coeffs . x (rel) bound`` as a constraint, for display."""
    return LinearConstraint(LinearExpr(coeffs), rel, LinearExpr.of_const(bound))


def geq(lhs, rhs) -> LinearConstraint:
    return LinearConstraint(as_expr(lhs), GEQ, as_expr(rhs))


def equal(lhs, rhs) -> LinearConstraint:
    return LinearConstraint(as_expr(lhs), EQ, as_expr(rhs))


@dataclass(frozen=True)
class Atom:
    """A user-predicate applied to a tuple of distinct variables."""

    pred: str
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(set(self.args)) != len(self.args):
            raise ModelError(f"repeated variable in atom {self.pred}")

    @property
    def arity(self) -> int:
        return len(self.args)

    def render(self, names: "VariablePool | None" = None) -> str:
        if not self.args:
            return self.pred
        shown = ", ".join(names.name(v) if names else f"_v{v}" for v in self.args)
        return f"{self.pred}({shown})"


@dataclass(frozen=True)
class Rule:
    """``head :- rows, body.``  ``rows`` hold the constraint as
    :data:`ConstraintRow`s in source order; the body atoms are user
    predicates.  ``origin`` records, for rules produced by splitting a
    multi-atom body, the source rule id and the body position the kept atom
    came from.
    """

    rule_id: str
    head: Atom
    rows: tuple[ConstraintRow, ...]
    body: tuple[Atom, ...]
    origin: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "body", tuple(self.body))

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as constraints, for display (built on each access)."""
        return tuple([row_constraint(*row) for row in self.rows])

    @property
    def is_fact(self) -> bool:
        return not self.body

    def atoms(self) -> tuple[Atom, ...]:
        return (self.head,) + self.body

    def atom_vars(self) -> set[int]:
        out: set[int] = set()
        for a in self.atoms():
            out.update(a.args)
        return out

    def constraint_vars(self) -> set[int]:
        return {v for coeffs, _, _ in self.rows for v in coeffs}

    def all_vars(self) -> set[int]:
        return set(self.variables)

    def nonneg_vars(self, domain: Domain) -> tuple[int, ...]:
        """The variables ``domain`` keeps nonnegative, sorted: every variable
        of the rule on ``q+``, ``r+`` and ``n``, none on ``q`` and ``r``."""
        return tuple(sorted(self.variables)) if domain.nonneg else ()

    @cached_property
    def variables(self) -> tuple[int, ...]:
        """Every variable once: constraint variables in row order, then head
        arguments, then body arguments (computed once per rule)."""
        order: list[int] = []
        for coeffs, _, _ in self.rows:
            order += coeffs
        order += self.head.args
        for a in self.body:
            order += a.args
        return tuple(dict.fromkeys(order))

    def check_flatness(self, require_local_constraint_vars: bool = True) -> None:
        """Raise ModelError unless atom tuples are pairwise disjoint (and,
        optionally, every constraint variable occurs in some atom)."""
        seen: set[int] = set()
        for a in self.atoms():
            hit = seen.intersection(a.args)
            if hit:
                raise ModelError(
                    f"rule {self.rule_id}: variable shared between atom tuples"
                )
            seen.update(a.args)
        if require_local_constraint_vars and not self.constraint_vars() <= seen:
            raise ModelError(
                f"rule {self.rule_id}: constraint mentions a variable outside its atoms"
            )


class Program:
    """An immutable flat program with its predicate arity table."""

    def __init__(
        self,
        rules: Iterable[Rule],
        pool: VariablePool,
        arities: Mapping[str, int] | None = None,
        check_constraint_vars: bool = True,
    ):
        self._rules = tuple(rules)
        self._pool = pool
        table: dict[str, int] = dict(arities) if arities else {}
        by_pred: dict[str, list[Rule]] = {}
        for rule in self._rules:
            rule.check_flatness(require_local_constraint_vars=check_constraint_vars)
            by_pred.setdefault(rule.head.pred, []).append(rule)
            for atom in rule.atoms():
                known = table.setdefault(atom.pred, atom.arity)
                if known != atom.arity:
                    raise ModelError(
                        f"predicate {atom.pred} used with arities {known} and {atom.arity}"
                    )
        self._arities = table
        self._by_pred = {pred: tuple(rules) for pred, rules in by_pred.items()}

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    @property
    def arities(self) -> Mapping[str, int]:
        return self._arities

    @property
    def pool(self) -> VariablePool:
        return self._pool

    def predicates(self) -> tuple[str, ...]:
        return tuple(self._arities)

    def rules_for(self, pred: str) -> tuple[Rule, ...]:
        """The rules whose head is ``pred``, in program order."""
        return self._by_pred.get(pred, ())

    def is_binary(self) -> bool:
        return all(len(r.body) <= 1 for r in self._rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._rules == other._rules and self._arities == other._arities

    def __repr__(self) -> str:
        return f"Program({len(self._rules)} rules, predicates={list(self._arities)})"


@dataclass(frozen=True)
class LevelMapping:
    """Per-predicate affine measures: a constant plus one coefficient per
    argument position.  This is the termination certificate the decider
    produces and the verifier checks."""

    coeffs: Mapping[str, tuple[Fraction, ...]]

    def __post_init__(self) -> None:
        cleaned = {p: tuple(rat(c) for c in cs) for p, cs in self.coeffs.items()}
        object.__setattr__(self, "coeffs", cleaned)

    def vector(self, pred: str, arity: int | None = None) -> tuple[Fraction, ...]:
        """The constant and argument coefficients of ``pred``; ModelError
        unless the mapping covers ``pred`` (with ``arity`` arguments, if
        given)."""
        vec = self.coeffs.get(pred)
        if vec is None:
            raise ModelError(f"level mapping does not cover predicate {pred}")
        if arity is not None and arity != len(vec) - 1:
            raise ModelError(f"{pred} expects {len(vec) - 1} arguments, got {arity}")
        return vec

    def level_of(self, pred: str, args: Sequence[int | Fraction]) -> Fraction:
        """Exact measure of the ground atom ``pred(args)``."""
        vec = self.vector(pred, len(args))
        total = vec[0]
        for c, a in zip(vec[1:], args):
            total += c * rat(a)
        return total

    def bound_for(self, pred: str, args: Sequence[int | Fraction]) -> int:
        """Derivation-length budget from a ground start atom: the measure,
        floored and clamped at zero, plus one final step."""
        return max(0, math.floor(self.level_of(pred, args))) + 1

    def scale(self, k: int | Fraction) -> "LevelMapping":
        k = rat(k)
        return LevelMapping({p: tuple(c * k for c in cs) for p, cs in self.coeffs.items()})

    def render(self, pred: str) -> str:
        vec = self.vector(pred)
        args = [f"a{i}" for i in range(1, len(vec))]
        text = str(vec[0])
        for i, a in enumerate(args, start=1):
            c = vec[i]
            if c == 0:
                continue
            text += f" + {c}*{a}" if c > 0 else f" - {-c}*{a}"
        head = f"{pred}({', '.join(args)})" if args else pred
        return f"|{head}| = {text}"
