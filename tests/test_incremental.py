"""Differential properties against the whole-store reference
``solver_reference.batch_satisfiable``: the incremental ``SolvedState``
on every prefix of random mixed stores (linear constraints from
``genutil.random_store`` plus term equations), and ``satisfiable`` on
proof-tree stores.  ``SolvedState.occ`` is checked against the
occurrence index recomputed from its pivots."""

from __future__ import annotations

import random
from fractions import Fraction

from clpslice import ConstraintStore, NumericConstraint, TermEquation, ground_vars, satisfiable
from clpslice.constraints import SolvedState
from clpslice.linexpr import LinExpr
from clpslice.syntax import Compound, NumberLiteral, Term, Variable
from conftest import (
    assert_witness,
    corpus_tree_stores,
    random_program_stores,
    store_of,
    teq,
)
from genutil import VAR_POOL, random_store
from solver_reference import batch_satisfiable

HERBRAND_ONLY = ("H", "K")
EQUATION_KINDS = ("var-var", "var-num", "var-compound", "compound-compound",
                  "num-compound", "num-num")


def _variable(rng: random.Random) -> Variable:
    return Variable(rng.choice(VAR_POOL[:4] + HERBRAND_ONLY))


def _number(rng: random.Random) -> NumberLiteral:
    return NumberLiteral(Fraction(rng.randint(-3, 3)))


def _compound(rng: random.Random, depth: int = 0) -> Compound:
    functor, arity = rng.choice((("f", 2), ("g", 1), ("a", 0)))
    args = []
    for _ in range(arity):
        pick = rng.random()
        if pick < 0.5:
            args.append(_variable(rng))
        elif pick < 0.75 or depth >= 1:
            args.append(_number(rng))
        else:
            args.append(_compound(rng, depth + 1))
    return Compound(functor, tuple(args))


def random_equation(rng: random.Random) -> tuple[str, TermEquation]:
    """A term equation of a random kind.  Variables come from the
    numeric pool as well, so a numeric variable bound to a compound
    (unsat) and one bound to a number (pinned) both occur."""
    kind = rng.choice(EQUATION_KINDS)
    make = {"var": _variable, "num": _number, "compound": _compound}
    lhs_kind, rhs_kind = kind.split("-")
    sides: list[Term] = [make[lhs_kind](rng), make[rhs_kind](rng)]
    rng.shuffle(sides)
    return kind, TermEquation(*sides)


def random_mixed_store(rng: random.Random) -> list[tuple[str, object]]:
    mixed: list[tuple[str, object]] = [
        ("numeric", c) for c in random_store(rng, max_vars=4, max_constraints=6)
    ]
    mixed.extend(random_equation(rng) for _ in range(rng.randint(1, 5)))
    rng.shuffle(mixed)
    return mixed


def _answers(state: SolvedState, names: list[str]) -> tuple:
    return (
        tuple(state.ground_value(Variable(v)) for v in names),
        dict(state.bindings), set(state.numeric), dict(state.pivots), dict(state.occ),
        dict(state.residual),
    )


def occurrence_index(pivots: dict) -> dict[str, frozenset[str]]:
    """Each variable -> the pivots whose forms mention it, recomputed
    from scratch: what ``SolvedState.occ`` must equal exactly."""
    occ: dict[str, set[str]] = {}
    for pivot, form in pivots.items():
        for v in form.coeffs:
            occ.setdefault(v, set()).add(pivot)
    return {v: frozenset(ps) for v, ps in occ.items()}


def test_incremental_state_matches_whole_store_solver():
    seen_unsat: set[str] = set()
    mixed_pinned = 0  # sat prefixes mixing both kinds that pin a variable
    for seed in range(500):
        rng = random.Random(seed)
        mixed = random_mixed_store(rng)
        store = [c for _, c in mixed]
        names = sorted(ConstraintStore(store).vars)
        linear: dict = {}
        state: SolvedState | None = SolvedState()
        for i, (kind, c) in enumerate(mixed, start=1):
            reference = batch_satisfiable(ConstraintStore(store[:i]))
            if state is not None:
                before = _answers(state, names)
                new = state.extend([c], linear)
                assert _answers(state, names) == before, (seed, i)
                if new is None:
                    seen_unsat.add(kind)
                else:
                    assert new.occ == occurrence_index(new.pivots), (seed, i)
                state = new
            assert (state is not None) == reference.is_sat, (seed, i)
            if state is None:
                continue
            kinds = {kind == "numeric" for kind, _ in mixed[:i]}
            pins = any(reference.is_ground(Variable(v)) for v in names)
            mixed_pinned += len(kinds) == 2 and pins
            for v in names:
                assert state.ground_value(Variable(v)) == reference.ground_value(Variable(v)), (
                    seed, i, v)
                assert state.is_ground(Variable(v)) == reference.is_ground(Variable(v))
        batch = SolvedState().extend(store)
        assert (batch is not None) == (state is not None), seed
    # every kind of step has refuted some store, and many mixed prefixes
    # pin variables
    assert seen_unsat >= {"numeric", "var-num", "var-compound", "num-compound", "num-num",
                          "compound-compound"}
    assert mixed_pinned > 100



# stores whose numeric constraint has two occurrences that cancel: in
# ``SolvedState._post`` once ``Y = Z`` binds Y to Z, and already in
# ``constraint_linear`` for ``Y - Y``
CANCELLING = (
    [teq("Y", "Z"), *store_of("{X + Y - Z = 3}.")],
    [teq("Y", "Z"), *store_of("{Y - Z = 1}.")],
    [teq("Y", "Z"), *store_of("{X + Y - Z > 0}.")],
    [*store_of("{X + Y - Y = 3}.")],
)


def test_cancelling_occurrences_match_whole_store_solver():
    for store in CANCELLING:
        state = SolvedState().extend(store, {})
        reference = batch_satisfiable(ConstraintStore(store))
        assert (state is not None) == reference.is_sat, store
        if state is None:
            continue
        for v in sorted(ConstraintStore(store).vars):
            assert state.ground_value(Variable(v)) == reference.ground_value(Variable(v)), (store, v)
    assert SolvedState().extend(CANCELLING[0], {}).ground_value(Variable("X")) == NumberLiteral(3)


def test_whole_store_solve_matches_batch_reference_on_tree_stores():
    stores = [*corpus_tree_stores(), *random_program_stores(400)]
    for i, store in enumerate(stores):
        solved, reference = satisfiable(store), batch_satisfiable(store)
        assert solved.is_sat == reference.is_sat, i
        if not solved.is_sat:
            continue
        assert ground_vars(solved) == ground_vars(reference), i
        for v in store.vars:
            assert solved.is_ground(Variable(v)) == reference.is_ground(Variable(v)), (i, v)
        assert_witness(store, solved.sample_valuation())


def test_occurrence_index_is_exact_on_tree_stores():
    for i, store in enumerate(corpus_tree_stores()):
        state = SolvedState().extend(sorted(store, key=lambda c: isinstance(c, NumericConstraint)))
        assert state is not None, i
        assert state.occ == occurrence_index(state.pivots), i
    # Y's new form cancels Z out of X's, so Z's entry loses X
    state = SolvedState().extend(store_of("{X = Y + Z, Y + Z = 1}."), {})
    assert state.pivots == {"X": LinExpr({}, Fraction(1)), "Y": LinExpr({"Z": Fraction(-1)}, Fraction(1))}
    assert state.occ == occurrence_index(state.pivots) == {"Z": frozenset({"Y"})}
    state = state.extend(store_of("{Z = 2*W}."), {})
    assert state.occ == occurrence_index(state.pivots) == {"Z": frozenset({"W", "Y"})}
