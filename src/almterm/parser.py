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

Expressions are built with :class:`LinearExpr` arithmetic; each finished
constraint becomes one primitive integer row
(:func:`almterm.model.constraint_row`), and a :class:`Rule` holds those rows
in source order.  Later layers read the rows and never convert again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    EQ,
    GEQ,
    AlmtermError,
    Atom,
    ConstraintRow,
    LinearConstraint,
    LinearExpr,
    Program,
    Rule,
    VariablePool,
    constraint_row,
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<implies>:-)
  | (?P<query>\?-)
  | (?P<geq>>=)
  | (?P<leq><=)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>[(),.=+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col, self.col + len(self.text))


def _tokenize(text: str, file: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                SourceSpan(file, line, col, col + 1),
            )
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            if kind == "sym":
                kind = chunk
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _ClauseScope:
    """Per-clause variable table plus the bookkeeping for flatness checks."""

    def __init__(self, pool: VariablePool):
        self.pool = pool
        self.ids: dict[str, int] = {}
        self.atom_of: dict[str, _Token] = {}
        self.constraint_uses: list[tuple[str, _Token]] = []
        self.atom_records: list[tuple[Atom, _Token]] = []

    def var(self, tok: _Token) -> int:
        if tok.text not in self.ids:
            self.ids[tok.text] = self.pool.fresh(tok.text)
        return self.ids[tok.text]


class _Parser:
    def __init__(self, text: str, file: str, pool: VariablePool):
        self.tokens = _tokenize(text, file)
        self.file = file
        self.pool = pool
        self.pos = 0
        self.depth = 0

    # -- token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.span(self.file),
            )
        return tok

    def fail(self, message: str, tok: _Token, flatness: bool = False):
        err = FlatnessError if flatness else ParseError
        raise err(message, tok.span(self.file))

    # -- clauses ----------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        arities: dict[str, tuple[int, _Token]] = {}
        while self.peek().kind != "eof":
            rules.append(self.clause(f"r{len(rules) + 1}", arities))
        return Program(rules, self.pool)

    def clause(self, rule_id: str, arities: dict[str, int]) -> Rule:
        scope = _ClauseScope(self.pool)
        head = self.atom(scope)
        rows: list[ConstraintRow] = []
        body: list[Atom] = []
        if self.peek().kind == "implies":
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
            if self.peek().kind == ",":
                self.next()
            else:
                return

    def item(self, scope, rows: list, atoms: list) -> None:
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind in ("(", ",", "."):
            atoms.append(self.atom(scope))
        else:
            rows.append(constraint_row(self.constraint(scope)))

    def atom(self, scope: _ClauseScope) -> Atom:
        name = self.expect("ident")
        args: list[int] = []
        arg_names: set[str] = set()
        if self.peek().kind == "(":
            self.next()
            while True:
                arg = self.next()
                if arg.kind != "ident":
                    self.fail("atom arguments must be variables", arg, flatness=True)
                if arg.text in arg_names:
                    self.fail(
                        f"repeated variable {arg.text!r} in atom {name.text}",
                        arg,
                        flatness=True,
                    )
                if arg.text in scope.atom_of:
                    self.fail(
                        f"variable {arg.text!r} already occurs in another atom",
                        arg,
                        flatness=True,
                    )
                arg_names.add(arg.text)
                scope.atom_of[arg.text] = arg
                args.append(scope.var(arg))
                if self.peek().kind == ",":
                    self.next()
                    continue
                self.expect(")")
                break
        result = Atom(name.text, tuple(args))
        scope.atom_records.append((result, name))
        return result

    # -- constraints and expressions ---------------------------------------

    def constraint(self, scope) -> LinearConstraint:
        lhs = self.expr(scope)
        op = self.next()
        if op.kind == "=":
            return LinearConstraint(lhs, EQ, self.expr(scope))
        if op.kind == "geq":
            return LinearConstraint(lhs, GEQ, self.expr(scope))
        if op.kind == "leq":
            return LinearConstraint(self.expr(scope), GEQ, lhs)
        self.fail("expected '=', '>=' or '<=' in constraint", op)

    def expr(self, scope) -> LinearExpr:
        acc = self.mul(scope)
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.mul(scope)
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def mul(self, scope) -> LinearExpr:
        acc = self.unary(scope)
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.unary(scope)
            if op.kind == "*":
                if acc.is_const:
                    acc = rhs.scale(acc.const)
                elif rhs.is_const:
                    acc = acc.scale(rhs.const)
                else:
                    self.fail("non-linear term: product of two variables", op)
            else:
                if not rhs.is_const:
                    self.fail("non-linear term: division by a variable", op)
                if rhs.const == 0:
                    self.fail("division by zero", op)
                acc = acc.scale(Fraction(1) / rhs.const)
        return acc

    def unary(self, scope) -> LinearExpr:
        tok = self.next()
        if tok.kind in ("-", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"expression nested more than {MAX_NESTING} deep", tok)
            self.depth += 1
            if tok.kind == "-":
                inner = -self.unary(scope)
            else:
                inner = self.expr(scope)
                self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "int":
            try:
                value = int(tok.text)
            except ValueError:  # more digits than the interpreter converts
                self.fail(f"numeric literal of {len(tok.text)} digits is too long", tok)
            return LinearExpr.of_const(value)
        if tok.kind == "ident":
            if self.peek().kind == "(":
                self.fail("predicates cannot appear inside constraints", tok)
            scope.constraint_uses.append((tok.text, tok))
            return LinearExpr.of_var(scope.var(tok))
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}", tok)

    # -- flatness ----------------------------------------------------------

    def _check_flat(self, scope: _ClauseScope) -> None:
        for name, tok in scope.constraint_uses:
            if name not in scope.atom_of:
                self.fail(
                    f"constraint variable {name!r} does not occur in any atom",
                    tok,
                    flatness=True,
                )


def parse_program(text: str, file: str = "<string>", pool: VariablePool | None = None) -> Program:
    """Parse a flat program, enforcing all flatness rules at parse time."""
    return _Parser(text, file, pool or VariablePool()).program()


def parse_query(
    text: str, file: str = "<string>", pool: VariablePool | None = None
) -> tuple[list[ConstraintRow], list[Atom]]:
    """Parse ``?- items.`` into (constraint rows, atoms) under the same
    checks."""
    return _Parser(text, file, pool or VariablePool()).query()


def parse_rule(text: str, rule_id: str = "r1", pool: VariablePool | None = None) -> Rule:
    """Convenience for tests and tools: parse a single clause."""
    program = parse_program(text, pool=pool)
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
        items = [c.render(pool) for c in rule.constraints]
        items += [a.render(pool) for a in rule.body]
        lines.append(f"{head} :- {', '.join(items)}." if items else f"{head}.")
    return "\n".join(lines) + ("\n" if lines else "")
