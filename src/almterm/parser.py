"""Parser for the textual flat-program format (``.clp`` files).

Grammar (a repo convention; Prolog-flavoured):

    program     :=  clause*
    clause      :=  atom [ ":-" items ] "."
    query       :=  "?-" items "."
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
Flatness is enforced: atom arguments are distinct variables, atom tuples
within a clause are pairwise disjoint, and every constraint variable must
occur in some atom of its clause.

The text is scanned once, before parsing, into ``(kind, text, offset)``
tuples; whitespace and comments make no token.  Only an error needs a
position: :meth:`_Parser.fail` works out the line (counting ``\n``) and the
column (in characters, from 1) from the offset when it raises.

An expression is accumulated as integers only: ``(coeffs, const, den)``
stands for ``(coeffs . x + const) / den`` with ``den > 0``.  ``+`` and ``-``
bring both sides over one denominator and merge the coefficients, deleting
one that sums to 0; ``*`` and ``/`` by a constant scale the numerators and
``den``.  Each finished constraint is written straight as its primitive
integer row :data:`ConstraintRow`, and a :class:`Rule` holds those rows in
source order.  Later layers read the rows and never convert again.

Variables are interned as ids of a :class:`VariablePool`.
:func:`parse_program` gives each program a fresh pool.  :func:`parse_query`
takes the pool that the query's derivation draws its fresh ids from
(``program.pool.clone()``): a query parsed into a pool of its own would
number its variables from 0, and the first rewrite would hand the same ids
to the rule's renamed variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

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


# whitespace and comments are unnamed alternatives, so they make no token;
# ``bad`` catches any other character (a newline is whitespace)
_TOKEN_RE = re.compile(
    r"""
    \s+
  | %[^\n]*
  | (?P<implies>:-)
  | (?P<query>\?-)
  | (?P<geq>>=)
  | (?P<leq><=)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<sym>[(),.=+\-*/])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# a token is (kind, text, offset); a symbol's kind is its text
Token = tuple[str, str, int]

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
    """Per-clause variable table plus the bookkeeping for flatness checks."""

    def __init__(self, pool: VariablePool):
        self.pool = pool
        self.ids: dict[str, int] = {}
        self.atom_names: set[str] = set()
        self.constraint_uses: list[Token] = []
        self.atom_records: list[tuple[Atom, Token]] = []

    def var(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = self.pool.fresh(name)
        return self.ids[name]


class _Parser:
    def __init__(self, text: str, file: str, pool: VariablePool):
        self.text = text
        self.file = file
        self.pool = pool
        self.pos = 0
        self.depth = 0
        self.tokens: list[Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            chunk = m.group()
            if kind == "sym":
                kind = chunk
            elif kind == "bad":
                self.fail(f"unexpected character {chunk!r}", (kind, chunk, m.start()))
            self.tokens.append((kind, chunk, m.start()))
        self.tokens.append(("eof", "", len(text)))

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def fail(self, message: str, tok: Token, flatness: bool = False):
        """Raise at ``tok``; its line and column are worked out here, from
        the offset, since only errors need them."""
        _, chunk, off = tok
        line = self.text.count("\n", 0, off) + 1
        col = off - self.text.rfind("\n", 0, off)
        err = FlatnessError if flatness else ParseError
        raise err(message, SourceSpan(self.file, line, col, col + len(chunk)))

    # -- clauses ----------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        arities: dict[str, int] = {}
        while self.peek()[0] != "eof":
            rules.append(self.clause(f"r{len(rules) + 1}", arities))
        return Program(rules, self.pool)

    def clause(self, rule_id: str, arities: dict[str, int]) -> Rule:
        scope = _ClauseScope(self.pool)
        head = self.atom(scope)
        rows: list[ConstraintRow] = []
        body: list[Atom] = []
        if self.peek()[0] == "implies":
            self.next()
            self.items(scope, rows, body)
        self.expect(".")
        self._check_flat(scope)
        for atom, tok in scope.atom_records:
            known = arities.setdefault(atom.pred, atom.arity)
            if known != atom.arity:
                self.fail(
                    f"predicate {atom.pred} used with arity {atom.arity}, previously {known}",
                    tok,
                )
        return Rule(rule_id, head, tuple(rows), tuple(body))

    def query(self) -> tuple[list[ConstraintRow], list[Atom]]:
        self.expect("query")
        scope = _ClauseScope(self.pool)
        rows: list[ConstraintRow] = []
        atoms: list[Atom] = []
        self.items(scope, rows, atoms)
        self.expect(".")
        self.expect("eof")
        self._check_flat(scope)
        return rows, atoms

    def items(self, scope, rows: list, atoms: list) -> None:
        while True:
            self.item(scope, rows, atoms)
            if self.peek()[0] == ",":
                self.next()
            else:
                return

    def item(self, scope, rows: list, atoms: list) -> None:
        if self.peek()[0] == "ident" and self.peek(1)[0] in ("(", ",", "."):
            atoms.append(self.atom(scope))
        else:
            rows.append(self.constraint(scope))

    def atom(self, scope: _ClauseScope) -> Atom:
        name = self.expect("ident")
        args: list[int] = []
        arg_names: set[str] = set()
        if self.peek()[0] == "(":
            self.next()
            while True:
                arg = self.next()
                kind, text, _ = arg
                if kind != "ident":
                    self.fail("atom arguments must be variables", arg, flatness=True)
                if text in arg_names:
                    self.fail(
                        f"repeated variable {text!r} in atom {name[1]}",
                        arg,
                        flatness=True,
                    )
                if text in scope.atom_names:
                    self.fail(
                        f"variable {text!r} already occurs in another atom",
                        arg,
                        flatness=True,
                    )
                arg_names.add(text)
                scope.atom_names.add(text)
                args.append(scope.var(text))
                if self.peek()[0] == ",":
                    self.next()
                    continue
                self.expect(")")
                break
        result = Atom(name[1], tuple(args))
        scope.atom_records.append((result, name))
        return result

    # -- constraints and expressions ---------------------------------------

    def constraint(self, scope) -> ConstraintRow:
        """The primitive row of ``lhs - rhs``: lhs variables first, a
        variable that cancels left out, divided by the gcd."""
        lhs = self.expr(scope)
        op = self.next()
        if op[0] in ("=", "geq"):
            rhs = self.expr(scope)
        elif op[0] == "leq":
            lhs, rhs = self.expr(scope), lhs
        else:
            self.fail("expected '=', '>=' or '<=' in constraint", op)
        coeffs, const, _ = _sum(lhs, rhs, -1)
        rel = EQ if op[0] == "=" else GEQ
        g = gcd(const, *coeffs.values())
        if g > 1:
            return {v: a // g for v, a in coeffs.items()}, -const // g, rel
        return coeffs, -const, rel

    def expr(self, scope) -> _Expr:
        acc = self.mul(scope)
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            acc = _sum(acc, self.mul(scope), sign)
        return acc

    def mul(self, scope) -> _Expr:
        acc = self.unary(scope)
        while self.peek()[0] in ("*", "/"):
            op = self.next()
            rhs = self.unary(scope)
            if op[0] == "*":
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
        tok = self.next()
        kind, text, _ = tok
        if kind in ("-", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"expression nested more than {MAX_NESTING} deep", tok)
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
        if kind == "int":
            try:
                value = int(text)
            except ValueError:  # more digits than the interpreter converts
                self.fail(f"numeric literal of {len(text)} digits is too long", tok)
            return {}, value, 1
        if kind == "ident":
            if self.peek()[0] == "(":
                self.fail("predicates cannot appear inside constraints", tok)
            scope.constraint_uses.append(tok)
            return {scope.var(text): 1}, 0, 1
        self.fail(f"expected a term, found {text or 'end of input'!r}", tok)

    # -- flatness ----------------------------------------------------------

    def _check_flat(self, scope: _ClauseScope) -> None:
        for tok in scope.constraint_uses:
            if tok[1] not in scope.atom_names:
                self.fail(
                    f"constraint variable {tok[1]!r} does not occur in any atom",
                    tok,
                    flatness=True,
                )


def parse_program(text: str, file: str = "<string>") -> Program:
    """Parse a flat program, enforcing all flatness rules at parse time."""
    return _Parser(text, file, VariablePool()).program()


def parse_query(
    text: str, pool: VariablePool, file: str = "<string>"
) -> tuple[list[ConstraintRow], list[Atom]]:
    """Parse ``?- items.`` into (constraint rows, atoms) under the same
    checks, with ids drawn from ``pool``: the pool its derivation will draw
    from, such as ``program.pool.clone()``."""
    return _Parser(text, file, pool).query()


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
