import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clpslice
from clpslice import (
    Compound,
    ConstraintStore,
    NumberLiteral,
    NumericConstraint,
    TermEquation,
    Variable,
    derive,
    is_slice,
    minimal_slices,
    parse_goal,
    parse_program,
    sol_finite,
)
from clpslice.oracle import OracleDomainError, has_solution
from clpslice.syntax import ConstraintExpr
from conftest import store_of
from derive_pins import CORPUS_PROGRAMS
from genutil import random_satisfiable_store, random_store
import oracle_reference


def test_sol_finite_examples():
    store = store_of("{X+1=0, Y>X}.")
    assert sol_finite(store, "X", (-10, 10)).values == frozenset({-1})
    assert sol_finite(ConstraintStore(), "X", (0, 2)).values == frozenset({0, 1, 2})
    assert sol_finite(store_of("{X=1, X=2}."), "X", (0, 3)).values == frozenset()


def test_sol_finite_y_side():
    store = store_of("{X+1=0, Y>X}.")
    assert sol_finite(store, "Y", (-3, 3)).values == frozenset({0, 1, 2, 3})


def test_sol_finite_term_equations():
    store = ConstraintStore(
        [
            TermEquation(Variable("X"), NumberLiteral(Fraction(2))),
            TermEquation(Variable("X"), Variable("Y")),
        ]
    )
    assert sol_finite(store, "Y", (-3, 3)).values == frozenset({2})
    # a variable equated to structure has no integer value
    broken = ConstraintStore([TermEquation(Variable("X"), Compound("f", (Variable("Y"),)))])
    assert sol_finite(broken, "X", (-3, 3)).values == frozenset()


def test_sol_finite_fractional_values():
    # numeric constraints evaluate exactly: X = 1/2 simply has no integer solution
    assert sol_finite(store_of("{X = 1/2}."), "X", (-3, 3)).values == frozenset()
    assert sol_finite(store_of("{2 * X = 3}."), "X", (-3, 3)).values == frozenset()
    # rational coefficients are fine when the solution is integral
    assert sol_finite(store_of("{X = 9/5 * Y + 32, Y = 5}."), "X", (0, 50)).values == frozenset({41})
    # a term equation against a fractional literal is outside integer semantics
    with pytest.raises(OracleDomainError):
        sol_finite(
            ConstraintStore([TermEquation(Variable("X"), NumberLiteral(Fraction(1, 2)))]),
            "X", (-3, 3),
        )


COEFFICIENTS = tuple(Fraction(n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (1, 2), (-3, 4),
                                                 (5, 3), (-7, 2)))


def random_fractional_store(rng: random.Random) -> ConstraintStore:
    """Rows with rational coefficients and right-hand sides, strict and
    non-strict, in both directions."""
    variables = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    constraints = []
    for _ in range(rng.randint(1, 5)):
        expr = None
        for v in rng.sample(variables, rng.randint(1, len(variables))):
            part = Compound("*", (NumberLiteral(rng.choice(COEFFICIENTS)), Variable(v)))
            expr = part if expr is None else Compound("+", (expr, part))
        rhs = NumberLiteral(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4))))
        relation = rng.choice(("=", "<", "<=", ">", ">="))
        constraints.append(NumericConstraint(ConstraintExpr(relation, expr, rhs)))
    return ConstraintStore(constraints)


ORACLE_CASES = [
    (store_of("{X+1=0, Y>X}."), (-10, 10)),
    (ConstraintStore(), (0, 2)),
    (store_of("{X=1, X=2}."), (0, 3)),
    (ConstraintStore([TermEquation(Variable("X"), NumberLiteral(Fraction(2))),
                      TermEquation(Variable("X"), Variable("Y"))]), (-3, 3)),
    (ConstraintStore([TermEquation(Variable("X"), Compound("f", (Variable("Y"),)))]), (-3, 3)),
    (store_of("{X = 1/2}."), (-3, 3)),
    (store_of("{2 * X = 3}."), (-3, 3)),
    (store_of("{X = 9/5 * Y + 32, Y = 5}."), (0, 50)),
    (store_of("{A=1, A=B, B<=C, C<=3, A>=D, D=2, C>=E}."), (-5, 5)),
]


def test_integer_search_matches_fraction_search():
    # the oracle scales each row to integers; the reference searches
    # the same rows with Fractions
    rng = random.Random(2024)
    stores = list(ORACLE_CASES)
    for i in range(90):
        gen = (random_store, random_fractional_store,
               lambda r: random_satisfiable_store(r, (-4, 4)))[i % 3]
        stores.append((gen(rng), (-4, 4)))
    for store, dom in stores:
        for x in sorted(store.vars | {"X"}):
            want = oracle_reference.sol_finite(store, x, dom)
            assert sol_finite(store, x, dom).values == want, (store, x)
            assert has_solution(store, dom) == bool(want), store


# Stores the random generators rarely make: a variable in no row, strict
# bounds, criteria that root propagation does not force, unsat stores.
EDGE_CASES = [
    # W = W leaves no row, so W ranges over the whole domain
    (ConstraintStore([TermEquation(Variable("W"), Variable("W"))]), (-2, 2)),
    (ConstraintStore([TermEquation(Variable("W"), Variable("W")),
                      *store_of("{X + Y = 1, X > 0}.")]), (-2, 2)),
    (store_of("{X < 3, X > -2, 2*X + Y < 1}."), (-4, 4)),
    (store_of("{3*X < 7, 2*Y > 5, Y <= X + 1}."), (-5, 5)),
    (store_of("{X + Y = 3, Y >= 0, X > -2}."), (-4, 4)),
    (store_of("{2*X + 3*Y = 7, X - Y < 2}."), (-6, 6)),
    (store_of("{X < Y, Y < X}."), (-3, 3)),
    (store_of("{X + Y = 1, X + Y = 2}."), (-3, 3)),
    (store_of("{X = 2, Y > 5, Y < 3}."), (-9, 9)),
    (store_of("{X = 9, Y = X}."), (0, 3)),
    (store_of("{1 < 0}."), (0, 2)),
    (store_of("{0 = 0, X > 1}."), (0, 2)),
]


def _reference_cases():
    rng = random.Random(1313)
    stores = list(ORACLE_CASES) + EDGE_CASES
    for i in range(330):
        gen = (random_store, random_fractional_store,
               lambda r: random_satisfiable_store(r, (-4, 4)))[i % 3]
        stores.append((gen(rng), (-4, 4)))
    return stores


def _check_against_references(store, dom, variables):
    sat = oracle_reference.integer_has_solution(store, dom)
    assert has_solution(store, dom) == sat, store
    for x in variables:
        want = oracle_reference.integer_sol_finite(store, x, dom)
        assert sol_finite(store, x, dom).values == want, (store, x)
        assert oracle_reference.sol_finite(store, x, dom) == want, (store, x)
        assert sat == bool(want), (store, x)


def test_propagating_search_matches_references():
    # every variable of each store, and one that no constraint mentions
    for store, dom in _reference_cases():
        _check_against_references(store, dom, sorted(store.vars | {"Q"}))


# A box that holds every solution of each program's corpus and small trees.
CORPUS_DOMAINS = {
    "chain": (-1, 50),
    "convert": (-1, 213),
    "fib": (-1, 12),
    "io_flow": (-5, 5),
    "mortgage": (-1, 101),
    "pinned": (-5, 5),
    "sum": (-1, 12),
}
SCALED_GOALS = [
    ("sum", "sum(5, S).", (-1, 15)),
    ("fib", "fib(4, F).", (-1, 5)),
    ("mortgage", "mortgage(0, 2, B).", (-22, 2)),
    ("mortgage", "mortgage(P, 1, 12).", (-1, 30)),
]


def _tree_stores():
    for name in CORPUS_PROGRAMS:
        if name not in CORPUS_DOMAINS:
            continue  # family.clp equates variables with atoms
        program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
        for line in clpslice.corpus_path(f"{name}.goals").read_text().splitlines():
            if line.strip() and not line.startswith("%"):
                yield derive(program, parse_goal(line))[0].tree.store, CORPUS_DOMAINS[name]
    for name, goal, dom in SCALED_GOALS:
        program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
        yield derive(program, parse_goal(goal))[0].tree.store, dom


def test_propagating_search_matches_references_on_trees():
    stores = list(_tree_stores())
    assert len(stores) == 13
    for store, dom in stores:
        assert has_solution(store, dom), store
        _check_against_references(store, dom, sorted(store.vars))


CHAIN_CHECK = """
import sys
from fractions import Fraction
from clpslice import ConstraintStore, NumericConstraint, sol_finite
from clpslice.oracle import has_solution
from clpslice.syntax import Compound, ConstraintExpr, NumberLiteral, Variable

sys.setrecursionlimit(150)
N = 1500

def num(k):
    return NumberLiteral(Fraction(k))

def row(rel, lhs, rhs):
    return NumericConstraint(ConstraintExpr(rel, lhs, rhs))

steps = [row("=", Variable(f"X{i + 1}"), Compound("+", (Variable(f"X{i}"), num(1))))
         for i in range(N - 1)]
chain = ConstraintStore([row("=", Variable("X0"), num(0)), *steps])
assert has_solution(chain, (0, N))
assert not has_solution(chain, (0, N - 2))
assert sol_finite(chain, f"X{N - 1}", (0, N)).values == {N - 1}
# no anchor and no equalities: every variable is a branch on the stack
rising = ConstraintStore([row("<=", Variable(f"X{i}"), Variable(f"X{i + 1}"))
                          for i in range(N - 1)])
assert has_solution(rising, (0, 1))
assert sol_finite(rising, f"X{N - 1}", (0, 1)).values == {0, 1}
print("chain ok")
"""


def test_chain_store_under_a_low_recursion_limit(tmp_path):
    # the search runs on an explicit stack, so a store's size is not
    # bounded by the interpreter's recursion limit
    src = os.path.dirname(os.path.dirname(clpslice.__file__))
    proc = subprocess.run([sys.executable, "-c", CHAIN_CHECK], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "chain ok\n"


def test_is_slice_examples():
    store = store_of("{X+1=0, Y>X}.")
    only_x = ConstraintStore([c for c in store if "Y" not in c.variables()])
    assert is_slice(store, only_x, "X", (-10, 10)) is True
    assert is_slice(store, store, "X", (-10, 10)) is True
    assert is_slice(store_of("{X=1}."), ConstraintStore(), "X", (0, 2)) is False
    with pytest.raises(ValueError):
        is_slice(only_x, store, "X", (-10, 10))


def test_minimal_slices():
    store = store_of("{X+1=0, Y>X}.")
    minimal = minimal_slices(store, "X", (-5, 5))
    rendered = {tuple(sorted(str(c) for c in s)) for s in minimal}
    assert rendered == {("X+1=0",)}
    big = store_of("{A=1, A=B, B<=C, C<=3, A>=D, D=2, C>=E}.")
    assert len(big) == 7
    with pytest.raises(ValueError):
        minimal_slices(big, "A", (-5, 5), max_constraints=6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_superset_of_slice_is_slice(seed, data):
    rng = random.Random(seed)
    store = random_store(rng, max_vars=3, max_constraints=4)
    x = sorted(store.vars)[0]
    dom = (-4, 4)
    subset_size = data.draw(st.integers(min_value=0, max_value=len(store)))
    subset = ConstraintStore(store.constraints[:subset_size])
    if is_slice(store, subset, x, dom):
        extra = data.draw(st.integers(min_value=subset_size, max_value=len(store)))
        superset = ConstraintStore(store.constraints[:extra])
        assert is_slice(store, superset, x, dom)
