from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from clpslice import (
    ConstraintStore,
    NoSolution,
    NumericConstraint,
    TermEquation,
    corpus_path,
    derive,
    parse_goal,
    parse_program,
)
from clpslice.constraints import constraint_linear
from clpslice.syntax import (
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Term,
    Variable,
    parse_tree_address,
)
from derive_pins import CORPUS_PROGRAMS
from genutil import random_program


def store_of(text: str) -> ConstraintStore:
    """Build a standalone store from goal syntax, e.g. '{X=1, Y>X}.'."""
    goal = parse_goal(text)
    return ConstraintStore(
        NumericConstraint(item) for item in goal.body if isinstance(item, ConstraintExpr)
    )


def assert_witness(store: ConstraintStore, valuation: dict) -> None:
    """``valuation`` satisfies every numeric constraint of ``store``."""
    for c in store:
        if isinstance(c, NumericConstraint):
            form, rel = constraint_linear(c.expr)
            value = form.evaluate(valuation)
            assert value == 0 if rel == "=" else value < 0 if rel == "<" else value <= 0, c


def corpus_tree_stores():
    """The proof-tree store of each of the first three solutions of
    every corpus goal."""
    for name in CORPUS_PROGRAMS:
        program = parse_program(corpus_path(f"{name}.clp").read_text())
        for line in corpus_path(f"{name}.goals").read_text().splitlines():
            if line.strip() and not line.strip().startswith("%"):
                try:
                    solutions = derive(program, parse_goal(line), max_solutions=3)
                except NoSolution:
                    continue
                yield from (sol.tree.store for sol in solutions)


def random_program_stores(count: int):
    """The first proof-tree store of ``count`` seeded
    ``genutil.random_program`` goals that have one."""
    rng = random.Random(7)
    produced = 0
    while produced < count:
        program, goal = random_program(rng)
        try:
            yield derive(program, goal, depth_limit=8)[0].tree.store
        except NoSolution:
            continue
        produced += 1


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
