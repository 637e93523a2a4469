"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdicts.
"""

import random
import time
import warnings
from fractions import Fraction

from clpslice import (
    NoSolution,
    ProgramPosition,
    Satisfiability,
    TreePosition,
    annotate,
    class_slice,
    corpus_path,
    dep_classes,
    derive,
    directional_slice,
    is_slice,
    origin_constraints,
    parse_goal,
    parse_program,
    positions_to_store,
    program_dep_graph,
    program_slice,
    satisfiable,
    sol_finite,
    strip_rename_tags,
    tree_dep_graph,
    tree_slice,
)
from clpslice.constraints import NumericConstraint, constraint_linear
from clpslice.directional import Annot, all_dual
from clpslice.cli import main as cli_main
from conftest import store_of, teq
from genutil import random_program, random_satisfiable_store, random_store

CHAIN_TEXT = "p(X,Y,Z):- {X-Y=1}, q(X,Y), r(Z).  q(U,V):- {U+V=3}.  r(42)."
IO_FLOW_TEXT = "p(X,Y) :- r(X), q(X,Y).  r(3).  q(U,V) :- {U+V=5}."


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_proof_tree_constraint_set():
    started = time.monotonic()
    program = parse_program(CHAIN_TEXT)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    expected = store_of("{X-Y=1, U+V=3}.").union(
        [teq("X", "U"), teq("Y", "V"), teq("Z", 42)]
    )
    assert strip_rename_tags(solution.tree.store) == expected
    assert satisfiable(solution.tree.store).status is Satisfiability.SAT
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"constraint set exact up to renaming, satisfiable, {elapsed:.3f}s")


def test_criterion_2_dependency_classes():
    store = store_of("{X-Y=1, X=U, Y=V, U+V=3, Z=42}.")
    assert dep_classes(store) == frozenset([frozenset("XYUV"), frozenset("Z")])
    assert class_slice(store, "X") == store_of("{X-Y=1, X=U, Y=V, U+V=3}.")
    _report(2, "classes {X,Y,U,V}/{Z} and class slice exact")


def test_criterion_3_program_slice():
    program = parse_program(CHAIN_TEXT)
    goal = parse_goal("p(X,Y,Z).")
    graph = program_dep_graph(program, goal)
    z_slice = program_slice(program, goal, ProgramPosition(0, 0, (3,)), graph)
    z_expected = {
        ProgramPosition(-1, 1, (3,)),  # Z in the goal
        ProgramPosition(0, 0, (3,)),   # Z in the head p(X,Y,Z)
        ProgramPosition(0, 3, (1,)),   # Z in r(Z)
        ProgramPosition(2, 0, (1,)),   # 42 in r(42)
    }
    assert z_slice.positions == frozenset(z_expected)
    x_slice = program_slice(program, goal, ProgramPosition(0, 0, (1,)), graph)
    x_expected = {
        ProgramPosition(-1, 1, (1,)), ProgramPosition(-1, 1, (2,)),
        ProgramPosition(0, 0, (1,)), ProgramPosition(0, 0, (2,)),
        ProgramPosition(0, 1, ()), ProgramPosition(0, 1, (1,)),
        ProgramPosition(0, 1, (2,)), ProgramPosition(0, 1, (3,)),
        ProgramPosition(0, 2, (1,)), ProgramPosition(0, 2, (2,)),
        ProgramPosition(1, 0, (1,)), ProgramPosition(1, 0, (2,)),
        ProgramPosition(1, 1, ()), ProgramPosition(1, 1, (1,)),
        ProgramPosition(1, 1, (2,)), ProgramPosition(1, 1, (3,)),
    }
    assert x_slice.positions == frozenset(x_expected)
    assert not z_slice.positions & x_slice.positions
    # the two slices are exactly the two non-singleton components
    bound = {graph.reach(e.a) for e in graph.edges}
    assert sorted(map(len, bound)) == [4, 16]
    _report(3, "slice wrt Z = Z occurrences + 42; wrt X = exact complement component")


def test_criterion_4_integer_example_directional_reduction():
    solution = derive(parse_program(""), parse_goal("{X+1=0, Y>X}."))[0]
    tree, log = solution.tree, solution.log
    annotation = annotate(tree, log)
    x_occ = TreePosition(0, 1, (1,))
    directional = directional_slice(tree, annotation, x_occ)
    mapped = origin_constraints(tree, directional.positions)
    assert mapped == store_of("{X+1=0}.")
    assert is_slice(tree.store, mapped, "X", (-10, 10))
    undirected = tree_slice(tree, x_occ)
    assert origin_constraints(tree, undirected.positions) == store_of("{X+1=0, Y>X}.")
    _report(4, "directional slice maps to {X+1=0}, oracle-accepted; undirected keeps both")


def test_criterion_5_annotation_of_io_flow_tree():
    program = parse_program(IO_FLOW_TEXT)
    solution = derive(program, parse_goal("p(X,Y)."))[0]
    annotation = annotate(solution.tree, solution.log)
    expected = {
        TreePosition(1, 0, (1,)): Annot.SYNTHESIZED,  # X in p's head
        TreePosition(1, 0, (2,)): Annot.SYNTHESIZED,  # Y in p's head
        TreePosition(2, 0, (1,)): Annot.SYNTHESIZED,  # argument of r(3)
        TreePosition(3, 0, (1,)): Annot.INHERITED,    # U in q(U,V)
        TreePosition(3, 0, (2,)): Annot.SYNTHESIZED,  # V in q(U,V)
    }
    for pos, want in expected.items():
        assert annotation.of(pos) is want, pos.address
    _report(5, "annotations match: X,Y,r-arg,V synthesized; U inherited")


def test_criterion_6_oracle_property_suite():
    started = time.monotonic()
    dom = (-5, 5)
    rng = random.Random(42)
    cases = 0
    failures = 0

    # stores: class slices
    while cases < 120:
        store = random_store(rng, max_vars=4, max_constraints=6)
        if not sol_finite(store, sorted(store.vars)[0], dom).values:
            continue
        for x in sorted(store.vars):
            if not is_slice(store, class_slice(store, x), x, dom):
                failures += 1
        cases += 1

    # programs: tree and directional slices
    from clpslice import Variable

    program_cases = 0
    attempts = 0
    while program_cases < 80 and attempts < 2000:
        attempts += 1
        program, goal = random_program(rng)
        try:
            solution = derive(program, goal, depth_limit=8)[0]
        except NoSolution:
            continue
        tree = solution.tree
        if not sol_finite(tree.store, sorted(tree.store.vars)[0], dom).values:
            continue
        program_cases += 1
        annotation = annotate(tree, solution.log)
        graph = tree_dep_graph(tree)
        var_positions = sorted(
            p for p, e in tree.pos_table.items() if isinstance(e, Variable)
        )
        for alpha in var_positions[:3]:
            x = tree.element_at(alpha).name
            und = tree_slice(tree, alpha, graph)
            if not is_slice(tree.store, positions_to_store(tree, und.positions), x, dom):
                failures += 1
            dslice = directional_slice(tree, annotation, alpha, graph)
            if not is_slice(tree.store, positions_to_store(tree, dslice.positions), x, dom):
                failures += 1

    elapsed = time.monotonic() - started
    total = cases + program_cases
    assert total >= 200, f"only {total} generated cases"
    assert failures == 0
    assert elapsed < 120
    _report(6, f"{total} random cases, 0 oracle failures, {elapsed:.1f}s")


CORPUS = ["chain.clp", "io_flow.clp", "pinned.clp", "sum.clp", "fib.clp",
          "mortgage.clp", "family.clp", "convert.clp"]


def _corpus_solutions():
    for name in CORPUS:
        program = parse_program(corpus_path(name).read_text())
        goals = [
            line.strip()
            for line in corpus_path(name).with_suffix(".goals").read_text().splitlines()
            if line.strip() and not line.startswith("%")
        ]
        for goal_text in goals:
            yield name, program, parse_goal(goal_text), derive(
                program, parse_goal(goal_text), depth_limit=32
            )[0]


def test_criterion_7_structural_properties_over_corpus():
    from clpslice import Variable

    assert len(CORPUS) >= 6
    recursion = {"sum.clp", "fib.clp", "mortgage.clp"}
    assert recursion <= set(CORPUS)
    failures = []
    rng = random.Random(3)
    for name, program, goal, solution in _corpus_solutions():
        tree = solution.tree
        graph = tree_dep_graph(tree)
        pgraph = program_dep_graph(program, goal)
        annotation = annotate(tree, solution.log)

        # phi homomorphism: tree edges map into program edges
        ppairs = {(e.a, e.b) for e in pgraph.edges}
        ppairs = ppairs | {(b, a) for a, b in ppairs}
        for edge in graph.edges:
            image = (tree.phi[edge.a], tree.phi[edge.b])
            if image[0] != image[1] and image not in ppairs:
                failures.append((name, "homomorphism", edge))

        var_positions = sorted(
            p for p, e in tree.pos_table.items() if isinstance(e, Variable)
        )
        rng.shuffle(var_positions)
        for alpha in var_positions[:4]:
            und = tree_slice(tree, alpha, graph)
            dsl = directional_slice(tree, annotation, alpha, graph)
            # directional within undirected
            if not dsl.positions <= und.positions:
                failures.append((name, "containment", alpha))
            # all-dual degeneration
            if directional_slice(tree, all_dual(tree), alpha, graph).positions != und.positions:
                failures.append((name, "degeneration", alpha))
            # phi image inside the static slice
            pslice = program_slice(program, goal, tree.phi[alpha], pgraph)
            if not {tree.phi[p] for p in und.positions} <= pslice.positions:
                failures.append((name, "static containment", alpha))
            # superset closure, oracle-checked on small feasible stores
            x = tree.element_at(alpha).name
            if len(tree.store.vars) <= 8 and sol_finite(tree.store, x, (-50, 50)).values:
                subset = positions_to_store(tree, und.positions)
                if not is_slice(tree.store, subset, x, (-50, 50)):
                    failures.append((name, "oracle", alpha))
                bigger = subset.union(tree.store.constraints[:2])
                if not is_slice(tree.store, bigger, x, (-50, 50)):
                    failures.append((name, "superset closure", alpha))
    assert not failures, failures
    _report(7, f"structural properties hold over {len(CORPUS)} corpus programs")


def test_criterion_8_stats_shape_and_reduction(capsys, tmp_path):
    import json

    percentages = []
    outputs = {}
    for name in CORPUS:
        program_file = str(corpus_path(name))
        goals_file = str(corpus_path(name).with_suffix(".goals"))
        json_file = tmp_path / f"{name}.json"
        code = cli_main(["stats", program_file, goals_file, "--json", str(json_file)])
        captured = capsys.readouterr()
        assert code == 0, name
        assert "TOTAL" in captured.out and "NODE%" in captured.out
        outputs[name] = captured.out
        data = json.loads(json_file.read_text())
        for row in data["rows"]:
            if row["status"] == "ok":
                percentages.append(row["avg_node_pct"])
                percentages.append(row["avg_argpos_pct"])
                assert 0 < row["avg_node_pct"] <= 100
                assert 0 < row["avg_argpos_pct"] <= 100
    assert percentages

    # determinism across runs
    for name in CORPUS[:2]:
        code = cli_main(["stats", str(corpus_path(name)),
                         str(corpus_path(name).with_suffix(".goals"))])
        captured = capsys.readouterr()
        assert captured.out == outputs[name]

    # at least one corpus program shows a strict directional reduction
    reduced = []
    for name, program, goal, solution in _corpus_solutions():
        tree = solution.tree
        graph = tree_dep_graph(tree)
        annotation = annotate(tree, solution.log)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for alpha in sorted(graph.universe):
                directional = directional_slice(tree, annotation, alpha, graph)
                undirected = tree_slice(tree, alpha, graph)
                if directional.positions < undirected.positions:
                    reduced.append(name)
                    break
        if reduced:
            break
    assert reduced, "no corpus program shows a directional reduction"
    _report(8, f"table shape ok, percentages in (0,100], reduction on {reduced[0]}")


def test_criterion_9_solver_cross_check():
    started = time.monotonic()
    rng = random.Random(2718)
    dom = (-3, 3)
    disagreements = 0
    witness_failures = 0

    def box(variables):
        from clpslice.syntax import ConstraintExpr, NumberLiteral, Variable

        out = []
        for v in sorted(variables):
            out.append(NumericConstraint(ConstraintExpr(">=", Variable(v), NumberLiteral(Fraction(dom[0])))))
            out.append(NumericConstraint(ConstraintExpr("<=", Variable(v), NumberLiteral(Fraction(dom[1])))))
        return out

    def int_feasible(store):
        variables = sorted(store.vars)
        return bool(sol_finite(store, variables[0], dom).values) if variables else True

    for case in range(200):
        if case % 2:
            store = random_store(rng, max_vars=4, max_constraints=5)
        else:
            store = random_satisfiable_store(rng, dom, max_vars=4, max_constraints=5)
        bounded = store.union(box(store.vars))
        verdict = satisfiable(bounded)
        feasible = int_feasible(bounded)
        if feasible and verdict.status is Satisfiability.UNSAT:
            disagreements += 1
        if case % 2 == 0:
            # planted integer point: both sides must say satisfiable
            if verdict.status is not Satisfiability.SAT or not feasible:
                disagreements += 1
        if verdict.status is Satisfiability.SAT:
            valuation = verdict.sample_valuation()
            for c in bounded:
                form, rel = constraint_linear(c.expr)
                value = form.evaluate(valuation)
                ok = value == 0 if rel == "=" else (value < 0 if rel == "<" else value <= 0)
                if not ok:
                    witness_failures += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert witness_failures == 0
    assert elapsed < 60
    _report(9, f"200 stores cross-checked, 0 disagreements, {elapsed:.1f}s")
