import pytest

from clpslice import (
    TreePosition,
    annotate,
    derive,
    directional_slice,
    origin_constraints,
    parse_goal,
    parse_program,
    positions_to_store,
    tree_dep_graph,
    tree_slice,
)
from clpslice.directional import Annot, IOKind, all_dual, directed_to_dot
from clpslice.oracle import is_slice
from conftest import dot_arcs, store_of


def oriented_arcs(solution, annotation):
    graph = tree_dep_graph(solution.tree)
    return dot_arcs(directed_to_dot(graph, solution.tree.pos_table, annotation))


@pytest.fixture
def io_flow():
    program = parse_program("p(X,Y) :- r(X), q(X,Y).  r(3).  q(U,V) :- {U+V=5}.")
    return derive(program, parse_goal("p(X,Y)."))[0]


@pytest.fixture
def pinned():
    # a pinned variable next to an inequality that only consumes it
    return derive(parse_program(""), parse_goal("{X+1=0, Y>X}."))[0]


def test_annotation_io_flow(io_flow):
    annotation = annotate(io_flow.tree, io_flow.log)
    assert annotation.of(TreePosition(1, 0, (1,))) is Annot.SYNTHESIZED  # X in p head
    assert annotation.of(TreePosition(1, 0, (2,))) is Annot.SYNTHESIZED  # Y in p head
    assert annotation.of(TreePosition(2, 0, (1,))) is Annot.SYNTHESIZED  # 3 in r(3)
    assert annotation.of(TreePosition(3, 0, (1,))) is Annot.INHERITED    # U in q head
    assert annotation.of(TreePosition(3, 0, (2,))) is Annot.SYNTHESIZED  # V in q head


def test_annotation_ground_call(io_flow):
    program = parse_program("p(1, 2).")
    solution = derive(program, parse_goal("p(1, 2)."))[0]
    annotation = annotate(solution.tree, solution.log)
    for pos in [TreePosition(0, 1, (1,)), TreePosition(0, 1, (2,)),
                TreePosition(1, 0, (1,)), TreePosition(1, 0, (2,))]:
        assert annotation.of(pos) is Annot.INHERITED


def test_annotation_free_output_stays_dual():
    program = parse_program("free(X, X).")
    solution = derive(program, parse_goal("free(A, B)."))[0]
    annotation = annotate(solution.tree, solution.log)
    for pos, annot in annotation.positions.items():
        assert annot is Annot.DUAL


def test_annotation_mismatch_rejected(io_flow):
    other = derive(parse_program("q(1)."), parse_goal("q(A)."))[0]
    with pytest.raises(ValueError):
        annotate(other.tree, io_flow.log)


def test_io_classes(io_flow):
    annotation = annotate(io_flow.tree, io_flow.log)
    io = annotation.io
    assert io[TreePosition(2, 0, (1,))] is IOKind.OUTPUT  # synthesized head
    assert io[TreePosition(3, 0, (1,))] is IOKind.INPUT   # inherited head
    assert io[TreePosition(1, 2, (1,))] is IOKind.OUTPUT  # inherited body (X at call of q)
    assert io[TreePosition(1, 1, (1,))] is IOKind.INPUT   # synthesized body (X at call of r)
    assert io[TreePosition(0, 1, ())] is IOKind.NEITHER   # atom position


def test_roles_built_once_per_annotation(io_flow):
    annotation = annotate(io_flow.tree, io_flow.log)
    assert "io" not in vars(annotation)
    graph = tree_dep_graph(io_flow.tree)
    directional_slice(io_flow.tree, annotation, TreePosition(0, 1, (1,)), graph)
    io = vars(annotation)["io"]
    directional_slice(io_flow.tree, annotation, TreePosition(0, 1, (2,)), graph)
    assert vars(annotation)["io"] is io


def test_orientation_one_directional_flow(io_flow):
    arcs = oriented_arcs(io_flow, annotate(io_flow.tree, io_flow.log))
    three = TreePosition(2, 0, (1,))   # 3 in r(3)
    x_at_r = TreePosition(1, 1, (1,))  # X in r(X)
    x_at_q = TreePosition(1, 2, (1,))  # X in q(X,Y)
    u_head = TreePosition(3, 0, (1,))  # U in q(U,V)
    assert (three, x_at_r) in arcs and (x_at_r, three) not in arcs
    assert (x_at_r, x_at_q) in arcs and (x_at_q, x_at_r) not in arcs
    assert (x_at_q, u_head) in arcs and (u_head, x_at_q) not in arcs


def test_orient_all_dual_is_symmetric(io_flow):
    arcs = oriented_arcs(io_flow, all_dual(io_flow.tree))
    assert arcs
    assert all((b, a) in arcs for a, b in arcs)


def test_orient_arcs_cover_edges(io_flow):
    arcs = oriented_arcs(io_flow, annotate(io_flow.tree, io_flow.log))
    pairs = {(e.a, e.b) for e in tree_dep_graph(io_flow.tree).edges}
    assert arcs
    for a, b in arcs:
        assert (a, b) in pairs or (b, a) in pairs


def test_directional_slice_drops_consumer(pinned):
    tree, log = pinned.tree, pinned.log
    annotation = annotate(tree, log)
    x_occurrence = TreePosition(0, 1, (1,))
    sl = directional_slice(tree, annotation, x_occurrence)
    assert sorted(p.address for p in sl.positions) == ["0/1", "0/1/1", "0/1/2", "0/1/3"]
    assert origin_constraints(tree, sl.positions) == store_of("{X+1=0}.")
    assert is_slice(tree.store, origin_constraints(tree, sl.positions), "X", (-10, 10))
    undirected = tree_slice(tree, x_occurrence)
    assert len(undirected.positions) == 7
    assert sl.positions < undirected.positions


def test_directional_slice_no_reduction_for_z(chain_program_text):
    program = parse_program(chain_program_text)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    annotation = annotate(solution.tree, solution.log)
    z_goal = TreePosition(0, 1, (3,))
    directional = directional_slice(solution.tree, annotation, z_goal)
    undirected = tree_slice(solution.tree, z_goal)
    assert directional.positions == undirected.positions


def test_directional_contained_in_undirected(chain_program_text):
    program = parse_program(chain_program_text)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    annotation = annotate(solution.tree, solution.log)
    graph = tree_dep_graph(solution.tree)
    for criterion in graph.universe:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            directional = directional_slice(solution.tree, annotation, criterion, graph)
            undirected = tree_slice(solution.tree, criterion, graph)
        assert directional.positions <= undirected.positions


def test_all_dual_degeneration(chain_program_text):
    program = parse_program(chain_program_text)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    graph = tree_dep_graph(solution.tree)
    trivial = all_dual(solution.tree)
    import warnings

    for criterion in graph.universe:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert (
                directional_slice(solution.tree, trivial, criterion, graph).positions
                == tree_slice(solution.tree, criterion, graph).positions
            )


def test_annotation_soundness_under_final_store(chain_program_text):
    from clpslice import satisfiable

    program = parse_program(chain_program_text)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    annotation = annotate(solution.tree, solution.log)
    solved = satisfiable(solution.tree.store)
    for pos, annot in annotation.positions.items():
        if annot is not Annot.DUAL:
            elem = solution.tree.element_at(pos)
            assert solved.is_ground(elem), f"{pos.address} marked {annot} but not ground"


def test_directional_slice_oracle_chain(chain_program_text):
    program = parse_program(chain_program_text)
    solution = derive(program, parse_goal("p(X,Y,Z)."))[0]
    annotation = annotate(solution.tree, solution.log)
    x_goal = TreePosition(0, 1, (1,))
    sl = directional_slice(solution.tree, annotation, x_goal)
    subset = positions_to_store(solution.tree, sl.positions)
    assert is_slice(solution.tree.store, subset, "X", (-50, 50))


def test_nested_terms_through_call_boundary():
    program = parse_program("wrap(f(A), B) :- {A = B + 1}, base(B).  base(3).")
    solution = derive(program, parse_goal("wrap(W, B0)."))[0]
    tree, log = solution.tree, solution.log
    annotation = annotate(tree, log)
    # W is bound to f(4): the head argument and its subterm are synthesized
    assert annotation.of(TreePosition(1, 0, (1,))) is Annot.SYNTHESIZED
    assert annotation.of(TreePosition(1, 0, (1, 1))) is Annot.SYNTHESIZED
    w_goal = TreePosition(0, 1, (1,))
    sl = directional_slice(tree, annotation, w_goal)
    # the slice reaches through f(A) into the defining constraint and base fact
    assert TreePosition(1, 0, (1, 1)) in sl.positions
    assert TreePosition(1, 1, ()) in sl.positions or TreePosition(1, 1, (1,)) in sl.positions
    assert TreePosition(2, 0, (1,)) in sl.positions  # the 3 in base(3)


def test_ground_structured_argument_inherited():
    program = parse_program("peel(f(A), A).")
    solution = derive(program, parse_goal("peel(f(7), Out)."))[0]
    annotation = annotate(solution.tree, solution.log)
    # caller passes ground f(7): both the argument and its subterm positions
    # on each side of the edge are ground at call
    assert annotation.of(TreePosition(0, 1, (1,))) is Annot.INHERITED
    assert annotation.of(TreePosition(0, 1, (1, 1))) is Annot.INHERITED
    assert annotation.of(TreePosition(1, 0, (1,))) is Annot.INHERITED
    assert annotation.of(TreePosition(1, 0, (1, 1))) is Annot.INHERITED
    # the output side becomes ground only at success
    assert annotation.of(TreePosition(0, 1, (2,))) is Annot.SYNTHESIZED


def test_directed_dot(io_flow):
    annotation = annotate(io_flow.tree, io_flow.log)
    graph = tree_dep_graph(io_flow.tree)
    dot = directed_to_dot(graph, io_flow.tree.pos_table, annotation)
    assert dot.startswith("digraph ")
    assert "dir=both" in dot
    assert "->" in dot
