from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpslice import (
    Compound,
    ConstraintStore,
    NumberLiteral,
    Satisfiability,
    TermEquation,
    Variable,
    class_slice,
    dep_classes,
    ground_vars,
    satisfiable,
)
import class_reference
from conftest import (
    assert_witness,
    corpus_tree_stores,
    random_program_stores,
    store_of,
    teq,
)
from genutil import random_store

import random


CHAIN_STORE_TEXT = "{X-Y=1, X=U, Y=V, U+V=3, Z=42}."


def test_satisfiable_example_store():
    solved = satisfiable(store_of(CHAIN_STORE_TEXT))
    assert solved.status is Satisfiability.SAT


def test_satisfiable_trivia():
    assert satisfiable(ConstraintStore()).status is Satisfiability.SAT
    assert satisfiable(store_of("{X=1, X=2}.")).status is Satisfiability.UNSAT


def test_functor_clash_unsat():
    store = ConstraintStore(
        [TermEquation(Compound("f", (Variable("X"),)), Compound("g", (Variable("X"),)))]
    )
    assert satisfiable(store).status is Satisfiability.UNSAT


def test_occurs_check_unsat():
    store = ConstraintStore(
        [TermEquation(Variable("X"), Compound("f", (Variable("X"),)))]
    )
    assert satisfiable(store).status is Satisfiability.UNSAT


def test_number_vs_structure_unsat():
    store = ConstraintStore(
        [TermEquation(NumberLiteral(Fraction(1)), Compound("f", (Variable("X"),)))]
    )
    assert satisfiable(store).status is Satisfiability.UNSAT


def test_numeric_variable_bound_to_structure_unsat():
    store = store_of("{X >= 1}.").union(
        [TermEquation(Variable("X"), Compound("f", (Variable("Y"),)))]
    )
    assert satisfiable(store).status is Satisfiability.UNSAT


def test_number_bindings_reach_the_numeric_store():
    # a term-equation binding to a literal acts like a numeric equality
    bound = store_of("{X > 40}.").union([TermEquation(Variable("X"), NumberLiteral(Fraction(42)))])
    assert satisfiable(bound).status is Satisfiability.SAT
    too_big = store_of("{X > 50}.").union([TermEquation(Variable("X"), NumberLiteral(Fraction(42)))])
    assert satisfiable(too_big).status is Satisfiability.UNSAT
    # and through variable aliasing
    aliased = store_of("{Y = 2}.").union([TermEquation(Variable("X"), Variable("Y"))])
    values = ground_vars(satisfiable(aliased))
    assert values["X"] == NumberLiteral(Fraction(2))


def test_ground_vars_example_store():
    # oracle: substituting the aliases leaves X-Y=1 and X+Y=3, so X=2, Y=1
    solved = satisfiable(store_of(CHAIN_STORE_TEXT))
    values = {name: term for name, term in ground_vars(solved).items()}
    expected = {
        "X": NumberLiteral(Fraction(2)),
        "Y": NumberLiteral(Fraction(1)),
        "U": NumberLiteral(Fraction(2)),
        "V": NumberLiteral(Fraction(1)),
        "Z": NumberLiteral(Fraction(42)),
    }
    assert values == expected


def test_ground_vars_inequalities_pin_nothing():
    assert ground_vars(satisfiable(store_of("{Y>X}."))) == {}
    # even opposing inequalities: the detector is equality-driven
    assert ground_vars(satisfiable(store_of("{X<=2, X>=2}."))) == {}


def test_ground_vars_single_equation():
    values = ground_vars(satisfiable(store_of("{X=3}.")))
    assert values == {"X": NumberLiteral(Fraction(3))}


def test_ground_vars_through_herbrand_structure():
    store = ConstraintStore(
        [
            TermEquation(Variable("X"), Compound("f", (Variable("Y"),))),
            TermEquation(Variable("Y"), NumberLiteral(Fraction(2))),
        ]
    )
    values = ground_vars(satisfiable(store))
    assert values["X"] == Compound("f", (NumberLiteral(Fraction(2)),))


def test_ground_vars_requires_sat():
    with pytest.raises(ValueError):
        ground_vars(satisfiable(store_of("{X=1, X=2}.")))


def test_solved_form_invariants():
    solved = satisfiable(store_of("{X = Y + 1, Y <= Z, Z < 4, X >= 0}."))
    assert solved.is_sat
    # herbrand substitution is idempotent by construction (numeric here: empty)
    for var, term in solved.herbrand_bindings.items():
        assert solved.resolve_term(term) == solved.resolve_term(solved.resolve_term(term))
    # no pivot appears in another pivot's form or in a residual inequality
    for var, form in solved.pivots.items():
        for other, other_form in solved.pivots.items():
            assert var not in other_form.coeffs
        for expr, _strict in solved.residual:
            assert var not in expr.coeffs


# beside a plain numeric store, stores whose witness needs more than the
# free and pivot variables of the linear system: variables a term
# equation binds, and one that a Fourier-Motzkin combination cancels
WITNESS_STORES = (
    [*store_of("{X = Y + 1, Y <= Z, Z < 4, X >= 0, Z > -10}.")],
    [teq("X", "Y"), *store_of("{X >= 1}.")],
    [teq("X", "Y"), *store_of("{X - Y = 0}.")],
    [teq("Z", 3)],
    [*store_of("{X + Y >= 1, X + Y <= 2}.")],
)


def test_sample_valuation_satisfies_store():
    for store in map(ConstraintStore, WITNESS_STORES):
        valuation = satisfiable(store).sample_valuation()
        assert set(valuation) == store.vars, store
        assert_witness(store, valuation)
    for store in WITNESS_STORES[1:3]:
        valuation = satisfiable(ConstraintStore(store)).sample_valuation()
        assert valuation["X"] == valuation["Y"]
    assert satisfiable(ConstraintStore(WITNESS_STORES[3])).sample_valuation() == {"Z": 3}
    stores = list(corpus_tree_stores())
    assert len(stores) > 10
    for store in stores:
        assert_witness(store, satisfiable(store).sample_valuation())


def test_dep_classes_example_store():
    classes = dep_classes(store_of(CHAIN_STORE_TEXT))
    assert classes == frozenset(
        [frozenset("XYUV"), frozenset("Z")]
    )


def test_dep_classes_trivia():
    assert dep_classes(ConstraintStore()) == frozenset()
    assert dep_classes(store_of("{X=Y, Y=Z}.")) == frozenset([frozenset("XYZ")])


def test_class_slice_example_store():
    store = store_of(CHAIN_STORE_TEXT)
    x_slice = class_slice(store, "X")
    assert x_slice == store_of("{X-Y=1, X=U, Y=V, U+V=3}.")
    z_slice = class_slice(store, "Z")
    assert z_slice == store_of("{Z=42}.")
    singleton = store_of("{X=1}.")
    assert class_slice(singleton, "X") == singleton
    with pytest.raises(ValueError):
        class_slice(store, "Nope")


def test_classes_of_term_equations_and_variable_free_constraints():
    store = ConstraintStore(
        [TermEquation(Variable("X"), Compound("f", (Variable("Y"), Variable("Z"))))]
    ).union(store_of("{1=1, W=2}."))
    assert dep_classes(store) == frozenset([frozenset("XYZ"), frozenset("W")])
    term_eq = store.constraints[0]
    assert class_slice(store, "Y").constraints == (term_eq,)
    assert class_slice(store, "W") == store_of("{W=2}.")
    one_is_one = next(iter(store_of("{1=1}.")))
    assert not any(one_is_one in class_slice(store, x) for x in store.vars)


def _agrees_with_union_find(store: ConstraintStore) -> int:
    """Check the classes and every class slice, set and order, against
    the union-find reference; the number of slices checked."""
    assert dep_classes(store) == class_reference.dep_classes(store)
    for x in sorted(store.vars):
        assert (class_slice(store, x).constraints
                == class_reference.class_slice(store, x).constraints), (store, x)
    return len(store.vars)


def test_classes_match_union_find_reference():
    stores = [random_store(random.Random(seed)) for seed in range(300)]
    stores += corpus_tree_stores()
    stores += random_program_stores(120)
    slices = sum(_agrees_with_union_find(store) for store in stores)
    assert len(stores) > 400 and slices > 1400


def test_store_merges_origins():
    from clpslice.syntax import TreePosition

    a = TermEquation(Variable("X"), NumberLiteral(Fraction(1)),
                     frozenset([TreePosition(0, 1, (1,))]))
    b = TermEquation(Variable("X"), NumberLiteral(Fraction(1)),
                     frozenset([TreePosition(2, 0, (1,))]))
    store = ConstraintStore([a, b])
    assert len(store) == 1
    assert next(iter(store)).origin == a.origin | b.origin


def test_membership_and_subset_ignore_origin():
    from clpslice.syntax import TreePosition

    here, there = frozenset([TreePosition(0, 1, (1,))]), frozenset([TreePosition(2, 0, (1,))])
    eq = TermEquation(Variable("X"), NumberLiteral(Fraction(1)), here)
    (num,) = store_of("{X + Y >= 2}.")
    store = ConstraintStore([eq, num])
    part = ConstraintStore([TermEquation(eq.lhs, eq.rhs, there)])
    assert TermEquation(eq.lhs, eq.rhs) in store
    assert TermEquation(eq.lhs, eq.rhs, there) in store
    assert type(num)(num.expr, there) in store
    assert TermEquation(eq.lhs, NumberLiteral(Fraction(2)), here) not in store
    assert part.issubset(store) and not store.issubset(part)
    assert ConstraintStore([type(num)(num.expr, there), eq]) == store
    assert part != store
    # a second test reads the same membership set
    assert eq in store and part.issubset(store)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dep_classes_partition_laws(seed):
    rng = random.Random(seed)
    store = random_store(rng)
    classes = dep_classes(store)
    union: frozenset[str] = frozenset()
    for cls in classes:
        assert cls, "empty class"
        assert not union & cls, "classes overlap"
        union |= cls
    assert union == store.vars
    # every constraint's variables live inside one class
    for c in store:
        if c.variables():
            assert any(c.variables() <= cls for cls in classes)
