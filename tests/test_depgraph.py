import pytest

from clpslice import (
    ProgramPosition,
    Skeleton,
    TreePosition,
    derive,
    parse_goal,
    parse_program,
    program_dep_graph,
    program_slice,
    tree_dep_graph,
    tree_slice,
)
from clpslice.depgraph import DepEdgeKind, Slice, SliceKind, graph_to_dot
from clpslice.engine import DerivationTree, SkelNode


@pytest.fixture
def chain(chain_program_text):
    program = parse_program(chain_program_text)
    goal = parse_goal("p(X,Y,Z).")
    solution = derive(program, goal)[0]
    return program, goal, solution.tree


def addresses(positions):
    return sorted(p.address for p in positions)


def test_tree_graph_has_two_bound_components(chain):
    _, _, tree = chain
    graph = tree_dep_graph(tree)
    components = {graph.reach(e.a) for e in graph.edges}
    assert len(components) == 2
    by_size = sorted(components, key=len)
    assert addresses(by_size[0]) == ["0/1/3", "1/0/3", "1/3/1", "3/0/1"]
    # everything else that carries an edge is one class
    assert len(by_size[1]) == 16
    # atom positions hang loose: they are neither terms nor variable occurrences
    atom_pos = TreePosition(0, 1, ())
    assert graph.reach(atom_pos) == frozenset({atom_pos})


def test_tree_graph_ground_fact():
    fact = parse_program("r(f(1), 2).").clauses[0]
    tree = DerivationTree(Skeleton((SkelNode(0, 0, fact, None, None, ()),)))
    graph = tree_dep_graph(tree)
    # f(1) and its subterm are functor-linked; 2 stands alone
    assert graph.reach(TreePosition(0, 0, (1,))) == {
        TreePosition(0, 0, (1,)),
        TreePosition(0, 0, (1, 1)),
    }
    assert graph.reach(TreePosition(0, 0, (2,))) == {TreePosition(0, 0, (2,))}


def test_tree_slice_z(chain):
    _, _, tree = chain
    graph = tree_dep_graph(tree)
    z_goal = TreePosition(0, 1, (3,))
    sl = tree_slice(tree, z_goal, graph)
    assert sl.kind is SliceKind.TREE and sl.criterion == z_goal
    assert addresses(sl.positions) == ["0/1/3", "1/0/3", "1/3/1", "3/0/1"]
    x_goal = TreePosition(0, 1, (1,))
    assert len(tree_slice(tree, x_goal, graph).positions) == 16


def test_tree_slice_warns_on_constant_criterion(chain):
    _, _, tree = chain
    with pytest.warns(UserWarning):
        sl = tree_slice(tree, TreePosition(3, 0, (1,)))
    assert TreePosition(3, 0, (1,)) in sl.positions


def test_tree_slice_foreign_position(chain):
    _, _, tree = chain
    with pytest.raises(ValueError):
        tree_slice(tree, TreePosition(9, 0, (1,)))


def test_program_graph_two_components(chain):
    program, goal, _ = chain
    graph = program_dep_graph(program, goal)
    components = {graph.reach(e.a) for e in graph.edges}
    assert len(components) == 2
    small = min(components, key=len)
    assert addresses(small) == ["0/0/3", "0/3/1", "2/0/1", "g/1/3"]


def test_program_slice_z_and_x(chain):
    program, goal, _ = chain
    graph = program_dep_graph(program, goal)
    z_head = ProgramPosition(0, 0, (3,))
    sl = program_slice(program, goal, z_head, graph)
    assert addresses(sl.positions) == ["0/0/3", "0/3/1", "2/0/1", "g/1/3"]
    x_head = ProgramPosition(0, 0, (1,))
    slx = program_slice(program, goal, x_head, graph)
    assert addresses(slx.positions) == [
        "0/0/1", "0/0/2", "0/1", "0/1/1", "0/1/2", "0/1/3",
        "0/2/1", "0/2/2", "1/0/1", "1/0/2", "1/1", "1/1/1",
        "1/1/2", "1/1/3", "g/1/1", "g/1/2",
    ]
    assert not sl.positions & slx.positions


def test_program_slice_errors(chain):
    program, goal, _ = chain
    with pytest.raises(ValueError):
        program_slice(program, goal, ProgramPosition(9, 0, (1,)))


def test_transition_edges_from_every_call_site():
    program = parse_program("a(X) :- q(X).  b(Y) :- q(Y).  q(7).")
    goal = parse_goal("a(Z).")
    graph = program_dep_graph(program, goal)
    pairs = {(e.a, e.b) for e in graph.edges}
    head_arg = ProgramPosition(2, 0, (1,))
    a_call = ProgramPosition(0, 1, (1,))
    b_call = ProgramPosition(1, 1, (1,))
    assert (min(a_call, head_arg), max(a_call, head_arg)) in pairs
    assert (min(b_call, head_arg), max(b_call, head_arg)) in pairs


def test_phi_homomorphism(chain):
    program, goal, tree = chain
    tgraph = tree_dep_graph(tree)
    pgraph = program_dep_graph(program, goal)
    program_pairs = {(e.a, e.b) for e in pgraph.edges} | {
        (e.b, e.a) for e in pgraph.edges
    }
    for edge in tgraph.edges:
        image = (tree.phi[edge.a], tree.phi[edge.b])
        assert image[0] == image[1] or image in program_pairs, (
            f"tree edge {edge.a}~{edge.b} ({edge.kind}) maps outside the program graph"
        )


def test_phi_tree_slice_inside_program_slice(chain):
    program, goal, tree = chain
    pgraph = program_dep_graph(program, goal)
    for criterion in [TreePosition(0, 1, (3,)), TreePosition(0, 1, (1,)),
                      TreePosition(2, 0, (1,))]:
        tslice = tree_slice(tree, criterion, tree_dep_graph(tree))
        pslice = program_slice(program, goal, tree.phi[criterion], pgraph)
        assert {tree.phi[p] for p in tslice.positions} <= pslice.positions


def test_slice_requires_criterion_membership():
    with pytest.raises(ValueError):
        Slice(SliceKind.TREE, frozenset(), TreePosition(0, 1, (1,)))


def test_components_partition_universe(chain):
    _, _, tree = chain
    graph = tree_dep_graph(tree)
    components = {graph.reach(p) for p in graph.universe}
    seen = set()
    for component in components:
        assert component
        assert not seen & component
        seen |= component
    assert seen == graph.universe
    # reach is idempotent with respect to membership
    for component in components:
        for pos in component:
            assert graph.reach(pos) == component


def test_dot_output(chain):
    _, _, tree = chain
    graph = tree_dep_graph(tree)
    sl = tree_slice(tree, TreePosition(0, 1, (3,)), graph)
    dot = graph_to_dot(graph, tree.pos_table, sl.positions, sl.criterion)
    assert dot.startswith("graph ")
    assert dot.count("{") == dot.count("}")
    assert 'label="constraint"' in dot and 'label="transition"' in dot
    assert "fillcolor=gold" in dot and "fillcolor=lightblue" in dot


def test_program_graph_dot(chain):
    from clpslice.syntax import goal_positions

    program, goal, _ = chain
    graph = program_dep_graph(program, goal)
    elements = {**program.position_table, **goal_positions(goal)}
    sl = program_slice(program, goal, ProgramPosition(0, 0, (3,)), graph)
    dot = graph_to_dot(graph, elements, sl.positions, sl.criterion)
    assert dot.startswith("graph ")
    assert '"g/1/3"' in dot


def test_edge_kinds_present(chain):
    _, _, tree = chain
    kinds = {e.kind for e in tree_dep_graph(tree).edges}
    assert kinds == {
        DepEdgeKind.CONSTRAINT,
        DepEdgeKind.TRANSITION,
        DepEdgeKind.LOCAL,
    }
    nested = parse_program("w(f(A)) :- {A = 1}.")
    tree2 = derive(nested, parse_goal("w(B)."))[0].tree
    kinds2 = {e.kind for e in tree_dep_graph(tree2).edges}
    assert DepEdgeKind.FUNCTOR in kinds2
