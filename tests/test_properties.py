"""Randomized cross-checks between the slicers, the rational solver, and
the finite-domain enumeration oracle."""

import random
import warnings

from clpslice import (
    NoSolution,
    Satisfiability,
    Variable,
    annotate,
    class_slice,
    derive,
    is_slice,
    positions_to_store,
    program_dep_graph,
    program_slice,
    satisfiable,
    sol_finite,
    tree_dep_graph,
    tree_slice,
)
from clpslice.constraints import NumericConstraint, constraint_linear
from clpslice.directional import directional_slice
from genutil import random_program, random_satisfiable_store, random_store

DOM = (-5, 5)


def variable_positions(tree):
    return [
        pos for pos, elem in tree.pos_table.items() if isinstance(elem, Variable)
    ]


def derived_cases(count: int, seed: int = 2024):
    """Deterministic stream of (tree, log) pairs from random programs."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        assert attempts < count * 30, "generator keeps failing to derive"
        program, goal = random_program(rng)
        try:
            solution = derive(program, goal, depth_limit=8)[0]
        except NoSolution:
            continue
        produced += 1
        yield program, goal, solution


def test_class_slice_always_valid():
    # Def-1 slices presume a satisfiable store; under the oracle's finite
    # semantics that means feasible over the integer box.
    rng = random.Random(11)
    checked = 0
    for _ in range(140):
        store = random_store(rng, max_vars=4, max_constraints=6)
        if not _int_feasible(store, DOM):
            continue
        for x in sorted(store.vars):
            assert is_slice(store, class_slice(store, x), x, DOM), (
                f"class slice failed for {x} in {store}"
            )
            checked += 1
    assert checked > 100


def test_tree_and_directional_slices_always_valid():
    rng = random.Random(5)
    checked = 0
    for program, goal, solution in derived_cases(60):
        tree, log = solution.tree, solution.log
        if not _int_feasible(tree.store, DOM):
            continue
        graph = tree_dep_graph(tree)
        annotation = annotate(tree, log)
        positions = sorted(variable_positions(tree))
        rng.shuffle(positions)
        for alpha in positions[:3]:
            x = tree.element_at(alpha).name
            undirected = tree_slice(tree, alpha, graph)
            assert is_slice(tree.store, positions_to_store(tree, undirected.positions), x, DOM)
            directional = directional_slice(tree, annotation, alpha, graph)
            assert directional.positions <= undirected.positions
            assert is_slice(tree.store, positions_to_store(tree, directional.positions), x, DOM)
            checked += 1
    assert checked >= 100


def test_phi_homomorphism_random_programs():
    for program, goal, solution in derived_cases(25, seed=7):
        tree = solution.tree
        pgraph = program_dep_graph(program, goal)
        pairs = {(e.a, e.b) for e in pgraph.edges}
        pairs = pairs | {(b, a) for a, b in pairs}
        for edge in tree_dep_graph(tree).edges:
            image = (tree.phi[edge.a], tree.phi[edge.b])
            assert image[0] == image[1] or image in pairs


def test_phi_image_of_tree_slice_in_program_slice():
    for program, goal, solution in derived_cases(25, seed=13):
        tree = solution.tree
        graph = tree_dep_graph(tree)
        pgraph = program_dep_graph(program, goal)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for alpha in variable_positions(tree)[:4]:
                tslice = tree_slice(tree, alpha, graph)
                pslice = program_slice(program, goal, tree.phi[alpha], pgraph)
                assert {tree.phi[p] for p in tslice.positions} <= pslice.positions


def test_derived_store_passes_oracle_satisfiability():
    for _program, _goal, solution in derived_cases(20, seed=99):
        store = solution.tree.store
        if len(store.vars) > 8:
            continue
        x = sorted(store.vars)[0]
        assert sol_finite(store, x, DOM) is not None  # enumeration terminates
        assert satisfiable(store).status is Satisfiability.SAT


def test_ground_vars_agree_with_singleton_solutions():
    from clpslice import NumberLiteral, ground_vars

    rng = random.Random(17)
    checked = 0
    for _ in range(80):
        store = random_satisfiable_store(rng, DOM, max_vars=4, max_constraints=5)
        solved = satisfiable(store)
        assert solved.status is Satisfiability.SAT
        if not _int_feasible(store, DOM):
            continue
        for name, value in ground_vars(solved).items():
            assert isinstance(value, NumberLiteral)
            if value.value.denominator != 1 or not DOM[0] <= value.value <= DOM[1]:
                continue
            assert sol_finite(store, name, DOM).values == frozenset({int(value.value)})
            checked += 1
    assert checked >= 20


def _int_feasible(store, dom):
    variables = sorted(store.vars)
    if not variables:
        return True
    return bool(sol_finite(store, variables[0], dom).values)


def test_solver_agrees_with_enumeration():
    """Solver Unsat may never contradict an integer witness, and solver
    Sat must come with a checkable rational witness."""
    rng = random.Random(123)
    dom = (-3, 3)
    box_text = []
    disagreements = 0
    for case in range(150):
        store = random_store(rng, max_vars=4, max_constraints=5)
        bounded = store.union(_box_constraints(store.vars, dom))
        verdict = satisfiable(bounded)
        int_sat = _int_feasible(bounded, dom)
        if int_sat and verdict.status is Satisfiability.UNSAT:
            disagreements += 1
        if verdict.status is Satisfiability.SAT:
            valuation = verdict.sample_valuation()
            for c in bounded:
                assert isinstance(c, NumericConstraint)
                form, rel = constraint_linear(c.expr)
                value = form.evaluate(valuation)
                ok = value == 0 if rel == "=" else (value < 0 if rel == "<" else value <= 0)
                assert ok, f"witness violates {c} in {bounded}"
    assert disagreements == 0
    del box_text


def test_solver_matches_enumeration_on_planted_instances():
    rng = random.Random(321)
    dom = (-3, 3)
    for _ in range(150):
        store = random_satisfiable_store(rng, dom, max_vars=4, max_constraints=5)
        bounded = store.union(_box_constraints(store.vars, dom))
        assert satisfiable(bounded).status is Satisfiability.SAT
        assert _int_feasible(bounded, dom)


def _box_constraints(variables, dom):
    from fractions import Fraction

    from clpslice.syntax import ConstraintExpr, NumberLiteral, Variable as V

    out = []
    for v in sorted(variables):
        out.append(NumericConstraint(ConstraintExpr(
            ">=", V(v), NumberLiteral(Fraction(dom[0])))))
        out.append(NumericConstraint(ConstraintExpr(
            "<=", V(v), NumberLiteral(Fraction(dom[1])))))
    return out
