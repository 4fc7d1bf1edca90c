"""The parser's earlier expression path, kept as a test oracle.

It builds every expression as a :class:`linear.LinearExpr` with
``Fraction`` arithmetic and converts each finished constraint with
:func:`linear.constraint_row`.  The parser proper now accumulates
integers and writes the primitive row directly; the two must agree on every
row (key order included) and on every error's class, span and message.
Only the expression methods differ: the scanner, the clause grammar and the
flatness checks are the parser's own.
"""

from __future__ import annotations

from fractions import Fraction

from almterm.model import EQ, GEQ, VariablePool
from almterm.parser import MAX_NESTING, _Parser
from linear import LinearConstraint, LinearExpr, constraint_row


class OracleParser(_Parser):
    def take(self) -> tuple[int, str, str]:
        """The next token's index, kind and text; the parser moves on."""
        at = self.pos
        self.pos = at + 1
        return at, self.kinds[at], self.texts[at]

    def constraint(self, scope):
        lhs = self.expr(scope)
        op, kind, _ = self.take()
        if kind == "=":
            return constraint_row(LinearConstraint(lhs, EQ, self.expr(scope)))
        if kind == "geq":
            return constraint_row(LinearConstraint(lhs, GEQ, self.expr(scope)))
        if kind == "leq":
            return constraint_row(LinearConstraint(self.expr(scope), GEQ, lhs))
        self.fail("expected '=', '>=' or '<=' in constraint", op)

    def expr(self, scope) -> LinearExpr:
        acc = self.mul(scope)
        while self.kinds[self.pos] in ("+", "-"):
            _, kind, _ = self.take()
            rhs = self.mul(scope)
            acc = acc + rhs if kind == "+" else acc - rhs
        return acc

    def mul(self, scope) -> LinearExpr:
        acc = self.unary(scope)
        while self.kinds[self.pos] in ("*", "/"):
            op, kind, _ = self.take()
            rhs = self.unary(scope)
            if kind == "*":
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
        at, kind, text = self.take()
        if kind in ("-", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"expression nested more than {MAX_NESTING} deep", at)
            self.depth += 1
            if kind == "-":
                inner = -self.unary(scope)
            else:
                inner = self.expr(scope)
                self.expect(")")
            self.depth -= 1
            return inner
        if kind == "int":
            try:
                value = int(text)
            except ValueError:  # more digits than the interpreter converts
                self.fail(f"numeric literal of {len(text)} digits is too long", at)
            return LinearExpr.of_const(value)
        if kind == "ident":
            if self.kinds[self.pos] == "(":
                self.fail("predicates cannot appear inside constraints", at)
            scope.constraint_uses.append(at)
            return LinearExpr.of_var(scope.var(text))
        self.fail(f"expected a term, found {text or 'end of input'!r}", at)


def oracle_parse_program(text: str, file: str = "<string>"):
    return OracleParser(text, file, VariablePool()).program()
