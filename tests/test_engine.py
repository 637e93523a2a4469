import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import clpslice
from clpslice import (
    ConstraintStore,
    NoSolution,
    NumberLiteral,
    ProgramPosition,
    Skeleton,
    TreePosition,
    constraints_of,
    derive,
    ground_vars,
    origin_constraints,
    parse_goal,
    parse_program,
    phi_inverse,
    positions_to_store,
    satisfiable,
    strip_rename_tags,
)
from clpslice.engine import SkelNode
from conftest import store_of, teq
from derive_pins import CORPUS_PROGRAMS
from genutil import random_program


def chain_skeleton(chain_program_text):
    """The complete skeleton for chain goal p(X,Y,Z), unrenamed labels."""
    program = parse_program(chain_program_text)
    goal = parse_goal("p(X,Y,Z).")
    return Skeleton(
        (
            SkelNode(0, -1, goal, None, None, (1,)),
            SkelNode(1, 0, program.clauses[0], 0, 1, (2, 3)),
            SkelNode(2, 1, program.clauses[1], 1, 2, ()),
            SkelNode(3, 2, program.clauses[2], 1, 3, ()),
        )
    )


CHAIN_STORE = store_of("{X-Y=1, U+V=3}.").union(
    [teq("X", "U"), teq("Y", "V"), teq("Z", 42)]
)


def test_constraints_of_chain_skeleton(chain_program_text):
    store = constraints_of(chain_skeleton(chain_program_text))
    assert store == CHAIN_STORE


def test_constraints_of_single_edge():
    goal = parse_goal("r(Z).")
    fact = parse_program("r(42).").clauses[0]
    skeleton = Skeleton(
        (SkelNode(0, -1, goal, None, None, (1,)), SkelNode(1, 0, fact, 0, 1, ()))
    )
    assert constraints_of(skeleton) == ConstraintStore([teq("Z", 42)])


def test_constraints_of_incomplete_child(chain_program_text):
    program = parse_program(chain_program_text)
    goal = parse_goal("p(X,Y,Z).")
    skeleton = Skeleton(
        (
            SkelNode(0, -1, goal, None, None, (1,)),
            SkelNode(1, 0, program.clauses[0], 0, 1, (None, 2)),
            SkelNode(2, 2, program.clauses[2], 1, 3, ()),
        )
    )
    assert constraints_of(skeleton) == store_of("{X-Y=1}.").union([teq("Z", 42)])


def test_constraints_of_arity_mismatch():
    goal = parse_goal("r(Z).")
    fact = parse_program("r(1, 2).").clauses[0]
    skeleton = Skeleton(
        (SkelNode(0, -1, goal, None, None, (1,)), SkelNode(1, 0, fact, 0, 1, ()))
    )
    with pytest.raises(ValueError):
        constraints_of(skeleton)


def test_constraint_origins(chain_program_text):
    store = constraints_of(chain_skeleton(chain_program_text))
    by_text = {str(c): c for c in store}
    assert by_text["X-Y=1"].origin == frozenset({TreePosition(1, 1, ())})
    assert by_text["X=U"].origin == frozenset(
        {TreePosition(1, 2, (1,)), TreePosition(2, 0, (1,))}
    )


def test_derive_example_chain(chain_program_text):
    program = parse_program(chain_program_text)
    solutions = derive(program, parse_goal("p(X,Y,Z)."))
    assert len(solutions) == 1
    tree = solutions[0].tree
    assert tree.is_proof_tree
    assert tree.node_count() == 4
    assert strip_rename_tags(tree.store) == CHAIN_STORE
    values = ground_vars(satisfiable(tree.store))
    assert values["X"] == NumberLiteral(Fraction(2))
    assert values["Y"] == NumberLiteral(Fraction(1))
    assert values["Z"] == NumberLiteral(Fraction(42))


def test_derive_goal_groundness_log():
    program = parse_program("p(X,Y) :- r(X), q(X,Y).  r(3).  q(U,V) :- {U+V=5}.")
    solution = derive(program, parse_goal("p(X,Y)."))[0]
    call = solution.log.call_ground()
    success = solution.log.success_ground()
    u_head = TreePosition(3, 0, (1,))
    v_head = TreePosition(3, 0, (2,))
    assert u_head in call, "U is ground when q is called"
    assert v_head not in call and v_head in success, "V is ground only at success"


def test_derive_depth_limit():
    program = parse_program("p :- p.")
    with pytest.raises(NoSolution) as err:
        derive(program, parse_goal("p."), depth_limit=10)
    assert err.value.deepest is not None
    assert err.value.deepest.node_count() == 11


def test_derive_failure_keeps_deepest_satisfiable():
    program = parse_program("p(X) :- {X = 1}, q(X).  q(2).")
    with pytest.raises(NoSolution) as err:
        derive(program, parse_goal("p(X)."))
    deepest = err.value.deepest
    assert deepest is not None
    assert satisfiable(deepest.store).is_sat


def test_skeleton_is_built_once_per_returned_tree(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return SkelNode(*args)

    monkeypatch.setattr(clpslice.engine, "SkelNode", counting)
    program = parse_program(clpslice.corpus_path("fib.clp").read_text())
    tree = derive(program, parse_goal("fib(10,F)."))[0].tree
    assert tree.node_count() == 178
    assert len(built) == 178
    built.clear()
    peano = parse_program("add(z, Y, Y). add(s(X), Y, s(Z)) :- add(X, Y, Z).")
    with pytest.raises(NoSolution) as err:
        derive(peano, parse_goal("add(X, X, s(s(s(s(s(z))))))."))
    assert err.value.deepest is not None
    assert len(built) == err.value.deepest.node_count()


def test_derive_backtracks_over_clause_order():
    program = parse_program("n(1).  n(2).  pick(X) :- n(X), {X >= 2}.")
    solution = derive(parse_program("n(1). n(2). pick(X) :- n(X), {X>=2}."),
                      parse_goal("pick(X)."))[0]
    values = ground_vars(satisfiable(solution.tree.store))
    assert values["X"] == NumberLiteral(Fraction(2))
    del program


def test_arities_name_distinct_predicates():
    program = parse_program("p(1).  p(1, 2).")
    assert derive(program, parse_goal("p(X)."))[0].tree.node_count() == 2
    assert derive(program, parse_goal("p(X, Y)."))[0].tree.node_count() == 2
    with pytest.raises(NoSolution):
        derive(program, parse_goal("p(X, Y, Z)."))


def test_derive_all_solutions():
    program = parse_program("n(1).  n(2).  n(3).")
    solutions = derive(program, parse_goal("n(X)."), max_solutions=None)
    assert len(solutions) == 3
    found = [ground_vars(satisfiable(s.tree.store))["X"] for s in solutions]
    assert found == [NumberLiteral(Fraction(i)) for i in (1, 2, 3)]
    capped = derive(program, parse_goal("n(X)."), max_solutions=2)
    assert len(capped) == 2


def test_derive_is_deterministic(chain_program_text):
    program = parse_program(chain_program_text)
    a = derive(program, parse_goal("p(X,Y,Z)."))[0]
    b = derive(program, parse_goal("p(X,Y,Z)."))[0]
    assert a.tree.skeleton == b.tree.skeleton
    assert a.tree.store == b.tree.store
    assert a.log == b.log


def test_phi_inverse(chain_program_text):
    program = parse_program(chain_program_text)
    tree = derive(program, parse_goal("p(X,Y,Z)."))[0].tree
    q_u = ProgramPosition(1, 0, (1,))
    assert phi_inverse(tree, q_u) == frozenset({TreePosition(2, 0, (1,))})
    # a clause used twice yields two instances
    rec = parse_program("n(0).  n(s(X)) :- n(X).")
    tree2 = derive(rec, parse_goal("n(s(s(0)))."))[0].tree
    twice = phi_inverse(tree2, ProgramPosition(1, 0, (1,)))
    assert len(twice) == 2
    # unused clause: empty set
    assert phi_inverse(tree, ProgramPosition(7, 0, (1,))) == frozenset()
    with pytest.raises(ValueError):
        phi_inverse(tree, ProgramPosition(1, 0, (9,)))


def test_positions_to_store(chain_program_text):
    program = parse_program(chain_program_text)
    tree = derive(program, parse_goal("p(X,Y,Z)."))[0].tree
    q_atom_positions = {
        TreePosition(1, 2, ()),
        TreePosition(1, 2, (1,)),
        TreePosition(1, 2, (2,)),
    }
    c_p = positions_to_store(tree, q_atom_positions)
    assert strip_rename_tags(c_p) == store_of("{X-Y=1}.").union([teq("X", "U"), teq("Y", "V")])
    from clpslice import ConstraintStore

    assert positions_to_store(tree, frozenset()) == ConstraintStore()
    assert positions_to_store(tree, frozenset(tree.pos_table)) == tree.store
    with pytest.raises(ValueError):
        positions_to_store(tree, {TreePosition(9, 0, (1,))})


def test_origin_constraints(chain_program_text):
    program = parse_program(chain_program_text)
    tree = derive(program, parse_goal("p(X,Y,Z)."))[0].tree
    picked = origin_constraints(tree, {TreePosition(1, 1, ())})
    assert strip_rename_tags(picked) == store_of("{X-Y=1}.")


def test_phi_naturality(chain_program_text):
    # the element at a tree position is a renamed copy of its phi image
    from clpslice.syntax import goal_positions, render_element, strip_tags_term
    from clpslice.syntax import Atom as AtomT, ConstraintExpr as ExprT

    program = parse_program(chain_program_text)
    goal = parse_goal("p(X,Y,Z).")
    tree = derive(program, goal)[0].tree
    goal_table = goal_positions(goal)

    def unrename(elem):
        if isinstance(elem, AtomT):
            return AtomT(elem.pred, tuple(strip_tags_term(a) for a in elem.args))
        if isinstance(elem, ExprT):
            return ExprT(elem.relation, strip_tags_term(elem.lhs), strip_tags_term(elem.rhs))
        return strip_tags_term(elem)

    for pos, elem in tree.pos_table.items():
        image = tree.phi[pos]
        source = goal_table[image] if image.clause == -1 else program.element_at(image)
        assert unrename(elem) == source, (pos.address, render_element(elem))


def test_node_equation_count_matches_arity(chain_program_text):
    # trivial equations are dropped, so count them from renamed labels
    program = parse_program(chain_program_text)
    tree = derive(program, parse_goal("p(X,Y,Z)."))[0].tree
    eq_count = sum(
        1 for c in tree.store if type(c).__name__ == "TermEquation"
    )
    assert eq_count == 3 + 2 + 1  # goal->p, p->q, p->r


DEEP_DERIVE = """
import sys
from clpslice import corpus_path, derive, parse_goal, parse_program
from clpslice.constraints import SolvedState
from clpslice.syntax import Variable
sys.setrecursionlimit(120)
for name, goal, depth, var in (("sum", "sum(400,S).", 1000, "S"), ("fib", "fib(12,F).", 64, "F")):
    program = parse_program(corpus_path(name + ".clp").read_text())
    tree = derive(program, parse_goal(goal), depth_limit=depth)[0].tree
    answer = SolvedState().extend(tree.store, {}).ground_value(Variable(var))
    print(goal, tree.node_count(), answer)
"""


def test_derive_depth_is_not_bounded_by_python_recursion():
    # a fresh process, so the recursion limit set there is the whole stack
    src = os.path.dirname(os.path.dirname(clpslice.__file__))
    proc = subprocess.run([sys.executable, "-c", DEEP_DERIVE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["sum(400,S). 402 80200", "fib(12,F). 466 233"]


def _eager_tables(tree):
    """The position tables as ``DerivationTree.__init__`` once built them
    for every tree: one loop over every node's clause positions."""
    pos_table, phi = {}, {}
    for node in tree.skeleton.nodes:
        for literal, path, elem in clpslice.syntax.clause_positions(node.label):
            tp = TreePosition(node.index, literal, path)
            pos_table[tp] = elem
            phi[tp] = ProgramPosition(node.clause, literal, path)
    return pos_table, phi


def _derived_trees():
    """The trees of every corpus goal (up to three solutions, or the
    NoSolution deepest tree) and of 200 random programs' first outcome."""
    for name in CORPUS_PROGRAMS:
        program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
        for line in clpslice.corpus_path(f"{name}.goals").read_text().splitlines():
            if line.strip() and not line.strip().startswith("%"):
                try:
                    yield from (s.tree for s in derive(program, parse_goal(line), max_solutions=3))
                except NoSolution as exc:
                    yield exc.deepest
    rng = random.Random(11)
    for _ in range(200):
        program, goal = random_program(rng)
        try:
            yield derive(program, goal, depth_limit=8)[0].tree
        except NoSolution as exc:
            yield exc.deepest


def test_tree_tables_are_built_on_first_read():
    deepest = 0
    for i, tree in enumerate(_derived_trees()):
        if tree is None:
            continue
        deepest += not tree.is_proof_tree
        assert "_tables" not in vars(tree), i
        # either table's first read builds both
        assert (tree.phi if i % 2 else tree.pos_table) and "_tables" in vars(tree), i
        pos_table, phi = _eager_tables(tree)
        assert list(tree.pos_table.items()) == list(pos_table.items()), i
        assert list(tree.phi.items()) == list(phi.items()), i
    assert deepest > 20
