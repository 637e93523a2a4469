"""Parser for CLP(Q) clause programs and goals.

Grammar (see docs/format.md):

    program    ::= clause*
    clause     ::= atom ( ":-" body )? "."
    goal       ::= ( ":-" )? body "."
    body       ::= item ("," item)*
    item       ::= "{" constraint ("," constraint)* "}" | atom
    constraint ::= arith rel arith          rel in = < <= =< > >=
    atom       ::= name ( "(" term ("," term)* ")" )?
    term       ::= variable | number | name ( "(" term ("," term)* ")" )?

Variables start with an uppercase letter or "_"; each bare "_" is a fresh
variable.  Numbers are integers or a/b fractions, optionally negated; a
zero denominator is a syntax error.  A brace group with several
comma-separated constraints yields one body item per constraint.
Comments run from "%" to end of line.

The text is tokenized in one regular-expression pass into plain
``(kind, text, offset)`` tuples, kind one of var, name, int, op and eof.
No token carries a line or column: an error computes them from its
token's offset (``_line_col``), so only a failing parse pays for them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import NoReturn

from .linexpr import NonlinearityError, to_linear
from .syntax import (
    Atom,
    Clause,
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Program,
    Term,
    Variable,
)

__all__ = ["parse_program", "parse_goal", "ClpSyntaxError", "NonlinearityError"]


class ClpSyntaxError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# The last alternative catches any character no other one accepts.  No
# var, name, int or eof token is spelled like an op, so the parser
# tests for an operator by its text alone.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<int>\d+)
    | (?P<op>:-|=<|<=|>=|[(){},.=<>+\-*/])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_RELATIONS = frozenset(("=", "<", "<=", "=<", ">", ">="))

Token = tuple[str, str, int]


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[Token]:
    tokens = [(m.lastgroup, m.group(), m.start())
              for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
    if "bad" in map(itemgetter(0), tokens):
        offset = next(tok[2] for tok in tokens if tok[0] == "bad")
        raise ClpSyntaxError(f"unexpected character {text[offset]!r}",
                             *_line_col(text, offset))
    tokens.append(("eof", "", len(text)))
    return tokens  # type: ignore[return-value]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self._anon = 0
        self._clause_start = 0
        self._clause_vars: set[str] | None = None
        # set when the constraint being parsed holds a "*" or "/" node
        self._mul_div = False

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def take(self, text: str) -> bool:
        if self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            self.fail(f"expected {text!r}")
        self.pos += 1
        return tok

    def fail(self, message: str) -> NoReturn:
        kind, text, offset = self.tokens[self.pos]
        what = "end of input" if kind == "eof" else repr(text)
        raise ClpSyntaxError(f"{message}, found {what}", *_line_col(self.text, offset))

    # -- clauses -----------------------------------------------------------

    def parse_program(self) -> Program:
        clauses = []
        while self.tokens[self.pos][0] != "eof":
            clauses.append(self.clause())
        return Program(tuple(clauses))

    def clause(self) -> Clause:
        self._begin_clause()
        if self.tokens[self.pos][0] != "name":
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
        if self.tokens[self.pos][0] != "eof":
            self.fail("trailing input after goal")
        return Clause(None, body)

    def _begin_clause(self) -> None:
        self._anon = 0
        self._clause_start = self.pos
        self._clause_vars = None

    def body(self) -> tuple:
        items: list = []
        while True:
            if self.take("{"):
                items.append(self.constraint())
                while self.take(","):
                    items.append(self.constraint())
                self.expect("}")
            elif self.tokens[self.pos][0] == "name":
                items.append(self.atom())
            else:
                self.fail("expected an atom or a '{' constraint")
            if not self.take(","):
                return tuple(items)

    # -- atoms and terms ---------------------------------------------------

    def atom(self) -> Atom:
        name = self.advance()[1]
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
        tokens = self.tokens
        open_: list[tuple[str, list[Term]]] = []
        while True:
            kind, text, _ = tokens[self.pos]
            if kind == "var":
                self.pos += 1
                t: Term = self._variable(text)
            elif kind == "int" or text == "-":
                t = self._number()
            elif kind == "name":
                self.pos += 1
                if tokens[self.pos][1] == "(":
                    self.pos += 1
                    open_.append((text, []))
                    continue
                t = Compound(text)
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
            if self._clause_vars is None:
                self._clause_vars = self._written_vars()
            while f"_G{self._anon}" in self._clause_vars:
                self._anon += 1
            name = f"_G{self._anon}"
            self._anon += 1
        return Variable(name)

    def _written_vars(self) -> set[str]:
        # Names explicitly written in this clause, up to its closing "."
        # (the tokenizer emits "." only as a clause terminator); anonymous
        # "_" variables must not collide with them.
        tokens = self.tokens
        out = set()
        i = self._clause_start
        while (text := tokens[i][1]) != "." and text:
            if tokens[i][0] == "var":
                out.add(text)
            i += 1
        return out

    def _number(self) -> NumberLiteral:
        negative = self.take("-")
        tokens = self.tokens
        kind, text, _ = tokens[self.pos]
        if kind != "int":
            self.fail("expected a number")
        self.pos += 1
        value: int | Fraction = int(text)
        # "a/b" fraction literal: only when an int directly follows the slash.
        if tokens[self.pos][1] == "/" and tokens[self.pos + 1][0] == "int":
            _, denominator, offset = tokens[self.pos + 1]
            if not int(denominator):
                raise ClpSyntaxError("division by zero", *_line_col(self.text, offset))
            value = Fraction(value, int(denominator))
            self.pos += 2
        return NumberLiteral(-value if negative else value)

    # -- constraints ---------------------------------------------------------

    def constraint(self) -> ConstraintExpr:
        start = self.tokens[self.pos][2]
        self._mul_div = False
        lhs = self.arith()
        if self.tokens[self.pos][1] not in _RELATIONS:
            self.fail("expected a relation (=, <, <=, >, >=)")
        rel = self.advance()[1]
        if rel == "=<":
            rel = "<="
        rhs = self.arith()
        if self._mul_div:
            # only a "*" or "/" node can make either side nonlinear
            try:
                to_linear(lhs)
                to_linear(rhs)
            except NonlinearityError as exc:
                line, col = _line_col(self.text, start)
                raise NonlinearityError(f"{exc.args[0]} (line {line}, column {col})") from None
        return ConstraintExpr(rel, lhs, rhs)

    def arith(self) -> Term:
        t = self.arith_mul()
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            t = Compound(op, (t, self.arith_mul()))
        return t

    def arith_mul(self) -> Term:
        t = self.arith_unary()
        while (op := self.tokens[self.pos][1]) in ("*", "/"):
            self.pos += 1
            rhs = self.arith_unary()
            if op == "/" and isinstance(t, NumberLiteral) and isinstance(rhs, NumberLiteral):
                if not rhs.value:
                    line, col = _line_col(self.text, self.tokens[self.pos][2])
                    raise NonlinearityError(f"division by zero (line {line}, column {col})")
                t = NumberLiteral(t.value / rhs.value)
            else:
                t = Compound(op, (t, rhs))
                self._mul_div = True
        return t

    def arith_unary(self) -> Term:
        if self.take("-"):
            inner = self.arith_unary()
            if isinstance(inner, NumberLiteral):
                return NumberLiteral(-inner.value)
            return Compound("-", (inner,))
        return self.arith_primary()

    def arith_primary(self) -> Term:
        kind, text, _ = self.tokens[self.pos]
        if kind == "var":
            self.pos += 1
            return self._variable(text)
        if kind == "int":
            self.pos += 1
            return NumberLiteral(int(text))
        if self.take("("):
            t = self.arith()
            self.expect(")")
            return t
        self.fail("expected a variable, number, or parenthesized expression")


def parse_program(text: str) -> Program:
    """Parse program source text.

    Raises ClpSyntaxError on malformed input and NonlinearityError for
    constraints that are not linear.  Predicate arity is not checked:
    the same name at different arities names distinct predicates.
    """
    return _Parser(text).parse_program()


def parse_goal(text: str) -> Clause:
    """Parse a goal: a body-only clause, with or without a leading ':-'."""
    return _Parser(text).parse_goal()
