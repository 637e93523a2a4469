import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpslice import (
    Compound,
    ConstraintStore,
    NumberLiteral,
    NumericConstraint,
    TermEquation,
    Variable,
    is_slice,
    minimal_slices,
    sol_finite,
)
from clpslice.oracle import OracleDomainError, has_solution
from clpslice.syntax import ConstraintExpr
from conftest import store_of
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
