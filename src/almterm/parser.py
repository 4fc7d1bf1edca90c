"""Parser for the textual flat-program format (``.clp`` files).

Grammar (a repo convention; Prolog-flavoured):

    program     :=  clause*
    clause      :=  atom [ ":-" items ] "."
    items       :=  item ("," item)*
    item        :=  atom | constraint
    atom        :=  ident [ "(" var ("," var)* ")" ]
    constraint  :=  expr ("=" | ">=" | "<=") expr
    expr        :=  mul (("+" | "-") mul)*
    mul         :=  unary (("*" | "/") unary)*
    unary       :=  "-" unary | INT | var | "(" expr ")"

``a <= b`` is sugar for ``b >= a``.  Numeric literals are integers or
``int/int`` rationals; there are no floats.  ``%`` starts a line comment.
Parentheses and unary minus signs may nest at most :data:`MAX_NESTING`
deep, and a literal may have at most as many digits as the interpreter
converts to an int; longer input is a :class:`ParseError`.
Flatness is enforced as the text is read, with spans: atom arguments are
distinct variables, atom tuples within a clause are pairwise disjoint, and
every constraint variable must occur in some atom of its clause (the rules
of :meth:`Rule.check_flatness`), so :meth:`Program.trusted` builds the program.

The text is scanned once, before parsing, by one ``findall`` of a regex
whose one group is the token: the whitespace and comments in front of it
are matched outside the group, so they make no token, and the end of the
text is the empty token ``""``.  The parser reads two parallel lists, the
token texts and their kinds (looked up in a dict), by index.  Only an error
needs a position: :meth:`_Parser.fail` runs the same regex again, with
``finditer``, up to the failing token, and works out the line (counting
``\n``) and the column (in characters, from 1) from its offset.

An expression is accumulated as integers only: ``(coeffs, const, den)``
stands for ``(coeffs . x + const) / den`` with ``den > 0``.  ``+`` and ``-``
bring both sides over one denominator and merge the coefficients, deleting
one that sums to 0; ``*`` and ``/`` by a constant scale the numerators and
``den``.  Each finished constraint is written straight as its primitive
integer row :data:`ConstraintRow`, and a :class:`Rule` holds those rows in
source order.  Later layers read the rows and never convert again.

Variables are interned as ids of a :class:`VariablePool`.
:func:`parse_program` gives each program a fresh pool.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import gcd, lcm
from string import ascii_letters, digits

from .model import (
    EQ,
    GEQ,
    AlmtermError,
    Atom,
    ConstraintRow,
    Program,
    Rule,
    VariablePool,
    render_row,
)


# the expression parser recurses about three frames per level, so this keeps
# it well inside the interpreter's default recursion limit
MAX_NESTING = 256


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}-{self.col_end}"


class ParseError(AlmtermError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class FlatnessError(ParseError):
    pass


# one match per token, the token its group: whitespace and comments before
# it are matched outside the group; ``.`` is any other character, which is
# ``bad`` (a newline is whitespace); ``\Z`` is the empty end token, and since
# it matches there, a comment at the end never gives a character back to a
# token; ``?-`` (a Prolog query) is in no clause, but as one token an error
# names it, not ``?``
_TOKEN_RE = re.compile(
    r"""
    \s* (?:%[^\n]*\s*)*
    ( :- | \?- | >= | <= | [a-zA-Z_][a-zA-Z0-9_]* | [0-9]+ | [(),.=+\-*/] | \Z | . )
    """,
    re.VERBOSE,
)

# the kind of a token by its text, else by its first character, else ``bad``;
# a symbol's kind is its text
_KINDS = {":-": "implies", "?-": "query", ">=": "geq", "<=": "leq", "": "eof"}
_KINDS.update((c, c) for c in "(),.=+-*/")
_LEADS = dict.fromkeys(ascii_letters + "_", "ident")
_LEADS.update(dict.fromkeys(digits, "int"))

# what may follow an identifier that starts an atom in a clause body
_ATOM_ENDS = ("(", ",", ".")

# an expression ``(coeffs . x + const) / den``: nonzero int coefficients by
# variable id, an int constant and an int ``den > 0``
_Expr = tuple[dict[int, int], int, int]


def _scaled(coeffs: dict[int, int], const: int, k: int) -> tuple[dict[int, int], int]:
    return {v: a * k for v, a in coeffs.items()}, const * k


def _sum(a: _Expr, b: _Expr, sign: int) -> _Expr:
    """``a + sign * b`` over the least common denominator, merging ``b``'s
    coefficients into ``a``'s dict (which the result owns) in ``b``'s order
    and deleting one that sums to 0."""
    coeffs, const, den = a
    bcoeffs, bconst, bden = b
    if bden != den:
        common = lcm(den, bden)
        if common != den:
            coeffs, const = _scaled(coeffs, const, common // den)
        sign *= common // bden
        den = common
    for v, k in bcoeffs.items():
        s = coeffs.get(v, 0) + sign * k
        if s:
            coeffs[v] = s
        else:
            del coeffs[v]
    return coeffs, const + sign * bconst, den


class _ClauseScope:
    """Per-clause variable table plus the bookkeeping for flatness checks;
    tokens are recorded by their index."""

    def __init__(self, pool: VariablePool):
        self.pool = pool
        self.ids: dict[str, int] = {}
        self.atom_names: set[str] = set()
        self.constraint_uses: list[int] = []
        self.atom_records: list[tuple[Atom, int]] = []

    def var(self, name: str) -> int:
        vid = self.ids.get(name)
        if vid is None:
            vid = self.ids[name] = self.pool.fresh(name)
        return vid


class _Parser:
    """Recursive descent over the token lists ``texts`` and ``kinds``; ``pos``
    is the index of the next token, and the empty end token is never passed
    except by a read that then fails."""

    def __init__(self, text: str, file: str, pool: VariablePool):
        self.text = text
        self.file = file
        self.pool = pool
        self.pos = 0
        self.depth = 0
        self.texts: list[str] = _TOKEN_RE.findall(text)
        kind_of = {t: _KINDS.get(t) or _LEADS.get(t[0], "bad") for t in set(self.texts)}
        self.kinds: list[str] = list(map(kind_of.__getitem__, self.texts))
        if "bad" in self.kinds:
            at = self.kinds.index("bad")
            self.fail(f"unexpected character {self.texts[at]!r}", at)

    def expect(self, kind: str) -> int:
        at = self.pos
        self.pos = at + 1
        if self.kinds[at] != kind:
            self.fail(f"expected {kind!r}, found {self.texts[at] or 'end of input'!r}", at)
        return at

    def fail(self, message: str, at: int, flatness: bool = False):
        """Raise at token ``at``; its offset, line and column are worked out
        here, by scanning again up to it, since only errors need them."""
        off = next(islice(_TOKEN_RE.finditer(self.text), at, None)).start(1)
        line = self.text.count("\n", 0, off) + 1
        col = off - self.text.rfind("\n", 0, off)
        err = FlatnessError if flatness else ParseError
        raise err(message, SourceSpan(self.file, line, col, col + len(self.texts[at])))

    # -- clauses ----------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        arities: dict[str, int] = {}
        while self.kinds[self.pos] != "eof":
            rules.append(self.clause(f"r{len(rules) + 1}", arities))
        return Program.trusted(tuple(rules), self.pool, arities)

    def clause(self, rule_id: str, arities: dict[str, int]) -> Rule:
        scope = _ClauseScope(self.pool)
        head = self.atom(scope)
        rows: list[ConstraintRow] = []
        body: list[Atom] = []
        kinds = self.kinds
        if kinds[self.pos] == "implies":
            self.pos += 1
            while True:
                if kinds[self.pos] == "ident" and kinds[self.pos + 1] in _ATOM_ENDS:
                    body.append(self.atom(scope))
                else:
                    rows.append(self.constraint(scope))
                if kinds[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(".")
        self._check_flat(scope)
        for atom, at in scope.atom_records:
            known = arities.setdefault(atom.pred, atom.arity)
            if known != atom.arity:
                self.fail(
                    f"predicate {atom.pred} used with arity {atom.arity}, previously {known}",
                    at,
                )
        return Rule(rule_id, head, tuple(rows), tuple(body))

    def atom(self, scope: _ClauseScope) -> Atom:
        name = self.expect("ident")
        kinds, texts = self.kinds, self.texts
        args: list[int] = []
        pos = self.pos
        if kinds[pos] == "(":
            arg_names: set[str] = set()
            while True:
                pos += 1
                text = texts[pos]
                if kinds[pos] != "ident":
                    self.fail("atom arguments must be variables", pos, flatness=True)
                if text in arg_names:
                    self.fail(
                        f"repeated variable {text!r} in atom {texts[name]}",
                        pos,
                        flatness=True,
                    )
                if text in scope.atom_names:
                    self.fail(
                        f"variable {text!r} already occurs in another atom",
                        pos,
                        flatness=True,
                    )
                arg_names.add(text)
                scope.atom_names.add(text)
                args.append(scope.var(text))
                pos += 1
                if kinds[pos] != ",":
                    break
            self.pos = pos
            self.expect(")")
        result = Atom(texts[name], tuple(args))
        scope.atom_records.append((result, name))
        return result

    # -- constraints and expressions ---------------------------------------

    def constraint(self, scope) -> ConstraintRow:
        """The primitive row of ``lhs - rhs``: lhs variables first, a
        variable that cancels left out, divided by the gcd."""
        lhs = self.expr(scope)
        op = self.pos
        self.pos = op + 1
        kind = self.kinds[op]
        if kind == "=" or kind == "geq":
            rhs = self.expr(scope)
        elif kind == "leq":
            lhs, rhs = self.expr(scope), lhs
        else:
            self.fail("expected '=', '>=' or '<=' in constraint", op)
        coeffs, const, _ = _sum(lhs, rhs, -1)
        rel = EQ if kind == "=" else GEQ
        g = gcd(const, *coeffs.values())
        if g > 1:
            return {v: a // g for v, a in coeffs.items()}, -const // g, rel
        return coeffs, -const, rel

    def expr(self, scope) -> _Expr:
        acc = self.mul(scope)
        kinds = self.kinds
        while (kind := kinds[self.pos]) == "+" or kind == "-":
            self.pos += 1
            acc = _sum(acc, self.mul(scope), 1 if kind == "+" else -1)
        return acc

    def mul(self, scope) -> _Expr:
        acc = self.unary(scope)
        kinds = self.kinds
        while (kind := kinds[self.pos]) == "*" or kind == "/":
            op = self.pos
            self.pos = op + 1
            rhs = self.unary(scope)
            if kind == "*":
                if not acc[0]:
                    acc, rhs = rhs, acc
                elif rhs[0]:
                    self.fail("non-linear term: product of two variables", op)
                _, num, den = rhs
            else:
                if rhs[0]:
                    self.fail("non-linear term: division by a variable", op)
                _, den, num = rhs
                if not den:
                    self.fail("division by zero", op)
                if den < 0:
                    num, den = -num, -den
            # acc times num/den (den > 0); a zero factor leaves the empty
            # expression
            if num:
                coeffs, const = _scaled(acc[0], acc[1], num)
                acc = coeffs, const, acc[2] * den
            else:
                acc = {}, 0, 1
        return acc

    def unary(self, scope) -> _Expr:
        at = self.pos
        self.pos = at + 1
        kind = self.kinds[at]
        text = self.texts[at]
        if kind == "ident":
            if self.kinds[at + 1] == "(":
                self.fail("predicates cannot appear inside constraints", at)
            scope.constraint_uses.append(at)
            return {scope.var(text): 1}, 0, 1
        if kind == "int":
            try:
                value = int(text)
            except ValueError:  # more digits than the interpreter converts
                self.fail(f"numeric literal of {len(text)} digits is too long", at)
            return {}, value, 1
        if kind == "-" or kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"expression nested more than {MAX_NESTING} deep", at)
            self.depth += 1
            if kind == "-":
                coeffs, const, den = self.unary(scope)
                coeffs, const = _scaled(coeffs, const, -1)
                inner = coeffs, const, den
            else:
                inner = self.expr(scope)
                self.expect(")")
            self.depth -= 1
            return inner
        self.fail(f"expected a term, found {text or 'end of input'!r}", at)

    # -- flatness ----------------------------------------------------------

    def _check_flat(self, scope: _ClauseScope) -> None:
        for at in scope.constraint_uses:
            if self.texts[at] not in scope.atom_names:
                self.fail(
                    f"constraint variable {self.texts[at]!r} does not occur in any atom",
                    at,
                    flatness=True,
                )


def parse_program(text: str, file: str = "<string>") -> Program:
    """Parse a flat program, enforcing all flatness rules at parse time."""
    return _Parser(text, file, VariablePool()).program()


def parse_rule(text: str, rule_id: str = "r1") -> Rule:
    """Convenience for tests and tools: parse a single clause."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise AlmtermError("expected exactly one clause")
    rule = program.rules[0]
    return Rule(rule_id, rule.head, rule.rows, rule.body)


def pretty_print(program: Program) -> str:
    """Render a program in the concrete grammar, each constraint as its row;
    reparsing the output yields the same rules, except that a variable that
    cancels out of the constraints may get another id."""
    pool = program.pool
    lines = []
    for rule in program.rules:
        head = rule.head.render(pool)
        items = [render_row(*row, pool) for row in rule.rows]
        items += [a.render(pool) for a in rule.body]
        lines.append(f"{head} :- {', '.join(items)}." if items else f"{head}.")
    return "\n".join(lines) + ("\n" if lines else "")
