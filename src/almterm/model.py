"""Exact data model for flat constraint logic programs over linear arithmetic.

Everything here is immutable after construction and exact, so no rounding can
occur anywhere in an analysis.  A rule holds its constraint as primitive
integer rows (:data:`ConstraintRow`), which the parser writes directly, and
:func:`render_row` prints a row in the concrete grammar.  Variables are
interned to dense integer ids; their source names live in a
:class:`VariablePool` side table used only for reporting.  :class:`Atom` and
:class:`Rule` store what they are given: flatness is checked where programs
come in, by the parser and by ``Program(rules, pool)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ``n`` alone is ``integral``: the analysis is sound but not complete
    there, so affirmative answers become "sound-yes" and negative ones
    "unknown".
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
    a :meth:`clone`, so that the program's own pool never changes.
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


# ``coeffs . x = bound`` or ``coeffs . x >= bound`` (``rel`` is EQ or GEQ):
# nonzero int coefficients by variable id and an int bound, all coprime
ConstraintRow = tuple[dict[int, int], int, str]


def render_row(
    coeffs: Mapping[int, int], bound: int | Fraction, rel: str, pool: VariablePool
) -> str:
    """The row ``coeffs . x (rel) bound`` in the concrete grammar: terms in
    variable id order (a unit coefficient unwritten, a negative first term
    led by ``-``), ``0`` when there are none, and ``str(bound)``."""
    terms: list[str] = []
    for v in sorted(coeffs):
        c = coeffs[v]
        term = pool.name(v) if abs(c) == 1 else f"{abs(c)}*{pool.name(v)}"
        if terms:
            term = f"+ {term}" if c > 0 else f"- {term}"
        elif c < 0:
            term = f"-{term}"
        terms.append(term)
    return f"{' '.join(terms) or 0} {rel} {bound}"


@dataclass(frozen=True)
class Atom:
    """A user-predicate applied to a tuple of variables (distinct if flat)."""

    pred: str
    args: tuple[int, ...]

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

    @property
    def is_fact(self) -> bool:
        return not self.body

    def atoms(self) -> tuple[Atom, ...]:
        return (self.head,) + self.body

    def constraint_vars(self) -> set[int]:
        return {v for coeffs, _, _ in self.rows for v in coeffs}

    def domain_rows(self, domain: Domain) -> tuple[ConstraintRow, ...]:
        """The constraint over ``domain``: ``rows`` on ``q`` and ``r``; on
        ``q+``, ``r+`` and ``n`` also, after them, the ``x >= 0`` rows that
        ``rows`` leave open (:attr:`open_floors`).  Either way the rows have
        exactly the points of the rule's constraint over the domain."""
        if not domain.nonneg:
            return self.rows
        return self.rows + self.open_floors

    @cached_property
    def open_floors(self) -> tuple[ConstraintRow, ...]:
        """One ``x >= 0`` row per rule variable whose floor ``rows`` do not
        imply, in variable id order (computed once per rule): LP presolve's
        bound propagation (Andersen and Andersen, Math. Programming 1995),
        with bounds read off ``rows`` in one pass and never off a row it
        leaves out.

        A one-variable row ``k*x >= b`` bounds ``x`` by ``b/k``, from below
        if ``k > 0`` and from above if not, and ``k*x = b`` on both sides;
        ``x``'s floor is implied when a lower bound is at least 0.  So is
        that of ``x`` in an equality ``k*x + sum(c*u) = b`` (with ``k > 0``,
        after negating it if need be) whose other terms are each bounded
        from above by those bounds, with ``sum(max(c*u)) <= b``.  Bounds are
        ints where the division is exact."""
        lower: dict[int, int | Fraction] = {}
        upper: dict[int, int | Fraction] = {}
        for coeffs, bound, rel in self.rows:
            if len(coeffs) == 1:
                ((v, k),) = coeffs.items()
                q, r = divmod(bound, k)
                t = Fraction(bound, k) if r else q
                if k > 0 or rel == EQ:
                    lower[v] = max(lower.get(v, t), t)
                if k < 0 or rel == EQ:
                    upper[v] = min(upper.get(v, t), t)
        floored = {v for v, t in lower.items() if t >= 0}
        for coeffs, bound, rel in self.rows:
            if rel != EQ or len(coeffs) < 2:
                continue
            for v, k in coeffs.items():
                if v in floored:
                    continue
                sign = 1 if k > 0 else -1
                most = 0
                for u, c in coeffs.items():
                    if u != v:
                        c *= sign
                        t = (upper if c > 0 else lower).get(u)
                        if t is None:
                            break
                        most += c * t
                else:
                    if most <= sign * bound:
                        floored.add(v)
        return tuple([({v: 1}, 0, GEQ) for v in sorted(self.variables) if v not in floored])

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

    def check_flatness(self) -> None:
        """Raise ModelError unless each atom's arguments are distinct, atom
        tuples are pairwise disjoint and, unless the rule was split off a
        multi-atom body (``origin`` set), each constraint variable is in an atom."""
        seen: set[int] = set()
        for a in self.atoms():
            if len(set(a.args)) != a.arity:
                raise ModelError(f"rule {self.rule_id}: repeated variable in atom {a.pred}")
            if seen.intersection(a.args):
                raise ModelError(f"rule {self.rule_id}: variable shared between atom tuples")
            seen.update(a.args)
        if self.origin is None and not self.constraint_vars() <= seen:
            raise ModelError(
                f"rule {self.rule_id}: constraint mentions a variable outside its atoms"
            )


class Program:
    """An immutable flat program with its predicate arity table.
    ``Program(rules, pool)`` checks that each rule passes
    :meth:`Rule.check_flatness` and that each predicate has one arity;
    :meth:`trusted` builds a program whose rules are known to pass both."""

    def __init__(self, rules: Iterable[Rule], pool: VariablePool):
        rules = tuple(rules)
        table: dict[str, int] = {}
        for rule in rules:
            rule.check_flatness()
            for atom in rule.atoms():
                known = table.setdefault(atom.pred, atom.arity)
                if known != atom.arity:
                    raise ModelError(
                        f"predicate {atom.pred} used with arities {known} and {atom.arity}"
                    )
        self._rules = rules
        self._pool = pool
        self._arities = table

    @classmethod
    def trusted(
        cls, rules: tuple[Rule, ...], pool: VariablePool, arities: dict[str, int]
    ) -> "Program":
        """The program of ``rules`` and their arity table ``arities`` (each
        predicate where its first atom in ``rules`` puts it), checking
        nothing: for callers that have enforced flatness and the arities
        themselves, as the parser does while it reads."""
        program = cls.__new__(cls)
        program._rules = rules
        program._pool = pool
        program._arities = arities
        return program

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

    @cached_property
    def _by_pred(self) -> dict[str, tuple[Rule, ...]]:
        by_pred: dict[str, list[Rule]] = {}
        for rule in self._rules:
            by_pred.setdefault(rule.head.pred, []).append(rule)
        return {pred: tuple(rules) for pred, rules in by_pred.items()}

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
