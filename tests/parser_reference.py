"""The parser as it was before tokens became plain tuples: a frozen
``_Token`` record per token, each carrying its line and column, and
token plumbing through the ``cur`` property.  ``test_parser.py``
compares ``clpslice.parser`` with it, result for result and error
message for error message.

One behaviour differs on purpose: a fraction literal with a zero
denominator, such as ``p(1/0).``, raises ``ZeroDivisionError`` here,
where the library raises a ``ClpSyntaxError`` at the denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from clpslice.linexpr import NonlinearityError, to_linear
from clpslice.parser import ClpSyntaxError
from clpslice.syntax import (
    Atom,
    Clause,
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Program,
    Term,
    Variable,
)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<op>:-|=<|<=|>=|[(){},.=<>+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # var | name | int | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ClpSyntaxError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        i = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self._anon = 0
        self._clause_vars: set[str] = set()

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.cur.kind == "op" and self.cur.text == text

    def take(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.advance()

    def fail(self, message: str) -> None:
        tok = self.cur
        what = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ClpSyntaxError(f"{message}, found {what}", tok.line, tok.col)

    # -- clauses -----------------------------------------------------------

    def parse_program(self) -> Program:
        clauses = []
        while self.cur.kind != "eof":
            clauses.append(self.clause())
        return Program(tuple(clauses))

    def clause(self) -> Clause:
        self._begin_clause()
        if self.cur.kind != "name":
            self.fail("expected a clause head")
        head = self.atom()
        body: tuple = ()
        if self.take(":-"):
            body = self.body()
        self.expect(".")
        return Clause(head, body)

    def parse_goal(self) -> Clause:
        self._begin_clause()
        self.take(":-")
        body = self.body()
        if self.at(":-"):
            self.fail("a goal has no head")
        self.expect(".")
        if self.cur.kind != "eof":
            self.fail("trailing input after goal")
        return Clause(None, body)

    def _begin_clause(self) -> None:
        # Names explicitly written in this clause, up to its closing "."
        # (the tokenizer emits "." only as a clause terminator); anonymous
        # "_" variables must not collide with them.
        self._anon = 0
        self._clause_vars = set()
        i = self.pos
        while self.tokens[i].text not in (".", ""):
            if self.tokens[i].kind == "var":
                self._clause_vars.add(self.tokens[i].text)
            i += 1

    def body(self) -> tuple:
        items: list = []
        while True:
            if self.take("{"):
                items.append(self.constraint())
                while self.take(","):
                    items.append(self.constraint())
                self.expect("}")
            elif self.cur.kind == "name":
                items.append(self.atom())
            else:
                self.fail("expected an atom or a '{' constraint")
            if not self.take(","):
                return tuple(items)

    # -- atoms and terms ---------------------------------------------------

    def atom(self) -> Atom:
        name = self.advance().text
        args: tuple[Term, ...] = ()
        if self.take("("):
            out = [self.term()]
            while self.take(","):
                out.append(self.term())
            self.expect(")")
            args = tuple(out)
        return Atom(name, args)

    def term(self) -> Term:
        # the compounds still open, innermost last, each with its
        # arguments parsed so far: no recursion per nesting level
        open_: list[tuple[str, list[Term]]] = []
        while True:
            tok = self.cur
            if tok.kind == "var":
                self.advance()
                t: Term = self._variable(tok.text)
            elif tok.kind == "int" or self.at("-"):
                t = self._number()
            elif tok.kind == "name":
                self.advance()
                if self.take("("):
                    open_.append((tok.text, []))
                    continue
                t = Compound(tok.text)
            else:
                self.fail("expected a term")
            while open_:
                functor, args = open_[-1]
                args.append(t)
                if self.take(","):
                    break
                self.expect(")")
                open_.pop()
                t = Compound(functor, tuple(args))
            else:
                return t

    def _variable(self, name: str) -> Variable:
        if name == "_":
            while f"_G{self._anon}" in self._clause_vars:
                self._anon += 1
            name = f"_G{self._anon}"
            self._anon += 1
        return Variable(name)

    def _number(self) -> NumberLiteral:
        negative = self.take("-")
        tok = self.cur
        if tok.kind != "int":
            self.fail("expected a number")
        self.advance()
        value = Fraction(int(tok.text))
        # "a/b" fraction literal: only when a slash directly follows.
        if self.at("/"):
            save = self.pos
            self.advance()
            if self.cur.kind == "int":
                value = value / int(self.advance().text)
            else:
                self.pos = save
        return NumberLiteral(-value if negative else value)

    # -- constraints ---------------------------------------------------------

    def constraint(self) -> ConstraintExpr:
        start = self.cur
        lhs = self.arith()
        if self.cur.kind != "op" or self.cur.text not in ("=", "<", "<=", "=<", ">", ">="):
            self.fail("expected a relation (=, <, <=, >, >=)")
        rel = self.advance().text
        if rel == "=<":
            rel = "<="
        rhs = self.arith()
        expr = ConstraintExpr(rel, lhs, rhs)
        try:
            to_linear(lhs)
            to_linear(rhs)
        except NonlinearityError as exc:
            raise NonlinearityError(
                f"{exc.args[0]} (line {start.line}, column {start.col})"
            ) from None
        return expr

    def arith(self) -> Term:
        t = self.arith_mul()
        while self.cur.kind == "op" and self.cur.text in ("+", "-"):
            op = self.advance().text
            t = Compound(op, (t, self.arith_mul()))
        return t

    def arith_mul(self) -> Term:
        t = self.arith_unary()
        while self.cur.kind == "op" and self.cur.text in ("*", "/"):
            op = self.advance().text
            rhs = self.arith_unary()
            if op == "/" and isinstance(t, NumberLiteral) and isinstance(rhs, NumberLiteral):
                if not rhs.value:
                    raise NonlinearityError(
                        f"division by zero (line {self.cur.line}, column {self.cur.col})")
                t = NumberLiteral(t.value / rhs.value)
            else:
                t = Compound(op, (t, rhs))
        return t

    def arith_unary(self) -> Term:
        if self.take("-"):
            inner = self.arith_unary()
            if isinstance(inner, NumberLiteral):
                return NumberLiteral(-inner.value)
            return Compound("-", (inner,))
        return self.arith_primary()

    def arith_primary(self) -> Term:
        tok = self.cur
        if tok.kind == "var":
            self.advance()
            return self._variable(tok.text)
        if tok.kind == "int":
            self.advance()
            return NumberLiteral(Fraction(int(tok.text)))
        if self.take("("):
            t = self.arith()
            self.expect(")")
            return t
        self.fail("expected a variable, number, or parenthesized expression")
        raise AssertionError  # unreachable


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_goal(text: str) -> Clause:
    return _Parser(text).parse_goal()
