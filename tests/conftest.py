from __future__ import annotations

import re
from fractions import Fraction

import pytest

from clpslice import ConstraintStore, NumericConstraint, TermEquation, parse_goal
from clpslice.syntax import (
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Term,
    Variable,
    parse_tree_address,
)


def store_of(text: str) -> ConstraintStore:
    """Build a standalone store from goal syntax, e.g. '{X=1, Y>X}.'."""
    goal = parse_goal(text)
    return ConstraintStore(
        NumericConstraint(item) for item in goal.body if isinstance(item, ConstraintExpr)
    )


def dot_arcs(dot: str) -> set:
    """The arcs drawn by ``directed_to_dot``: an ``a -> b`` line is one
    arc, a ``dir=both`` line both."""
    arcs = set()
    for line in dot.splitlines():
        m = re.fullmatch(r'  "([^"]+)" -> "([^"]+)"( \[dir=both\])?;', line)
        if m:
            a, b = parse_tree_address(m[1]), parse_tree_address(m[2])
            arcs.add((a, b))
            if m[3]:
                arcs.add((b, a))
    return arcs


def term(x) -> Term:
    if isinstance(x, (int, Fraction)):
        return NumberLiteral(Fraction(x))
    if isinstance(x, str):
        return Variable(x) if x[0].isupper() or x[0] == "_" else Compound(x)
    return x


def teq(lhs, rhs) -> TermEquation:
    """A term equation between shorthand terms (str/int/Term)."""
    return TermEquation(term(lhs), term(rhs))


@pytest.fixture
def chain_program_text() -> str:
    return "p(X,Y,Z):- {X-Y=1}, q(X,Y), r(Z).  q(U,V):- {U+V=3}.  r(42)."
