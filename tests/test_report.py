import random

import pytest

from clpslice import (
    NoSolution,
    TreePosition,
    annotate,
    corpus_path,
    derive,
    directional_slice,
    parse_goal,
    parse_program,
    render_clause,
    tree_slice,
)
from clpslice.report import argument_positions, compute_stats, render_marked_clause
from genutil import random_program


@pytest.fixture
def chain():
    return derive(parse_program(corpus_path("chain.clp").read_text()),
                  parse_goal("p(X, Y, Z)."))[0]


def test_argument_positions_of_chain(chain):
    # the goal's p/3, p's own head and its q/2 and r/1 calls, q's and r's heads
    assert sorted(p.address for p in argument_positions(chain.tree)) == [
        "0/1/1", "0/1/2", "0/1/3",
        "1/0/1", "1/0/2", "1/0/3", "1/2/1", "1/2/2", "1/3/1",
        "2/0/1", "2/0/2",
        "3/0/1",
    ]


def test_compute_stats_of_z_slice(chain):
    tree = chain.tree
    sl = directional_slice(tree, annotate(tree, chain.log), TreePosition(0, 1, (3,)))
    stats = compute_stats(tree, sl.positions)
    assert (stats.tree_node_count, stats.tree_argpos_count) == (4, 12)
    assert f"{stats.slice_node_pct:.2f} {stats.slice_argpos_pct:.2f}" == "75.00 33.33"


def test_argument_positions_built_once(chain):
    tree = chain.tree
    assert "argument_positions" not in vars(tree), "derive does not build it"
    first = argument_positions(tree)
    assert argument_positions(tree) is first
    sl = tree_slice(tree, TreePosition(0, 1, (1,))).positions
    assert compute_stats(tree, sl) == compute_stats(tree, sl)
    assert vars(tree)["argument_positions"] is first


def test_stats_of_incomplete_deepest_tree():
    program = parse_program("p(X) :- q(X), r(X, 7).  q(1).  r(2, Z).")
    with pytest.raises(NoSolution) as info:
        derive(program, parse_goal("p(Y)."))
    tree = info.value.deepest
    assert not tree.is_proof_tree
    # r(X#1, 7) has no child, yet its arguments were reached and count
    assert sorted(p.address for p in argument_positions(tree)) == [
        "0/1/1", "1/0/1", "1/1/1", "1/2/1", "1/2/2", "2/0/1",
    ]
    stats = compute_stats(tree, tree_slice(tree, TreePosition(0, 1, (1,))).positions)
    assert (stats.tree_node_count, stats.tree_argpos_count) == (3, 6)
    assert stats.slice_node_pct == 100.0
    assert f"{stats.slice_argpos_pct:.2f}" == "83.33"


def test_unmarked_listing_is_the_plain_rendering():
    clauses = [
        clause
        for clp in sorted(corpus_path().glob("*.clp"))
        for clause in parse_program(clp.read_text()).clauses
    ]
    for s in range(200):
        clauses.extend(random_program(random.Random(s))[0].clauses)
    assert len(clauses) == 591
    for clause in clauses:
        assert render_marked_clause(clause, {}) == render_clause(clause)


def test_marked_constraint_occurrences_with_negative_leaves():
    clause = parse_program("p(X, Y) :- {-X = 2*(-1) - -Y}, {X/(-3) >= -2 - Y}.").clauses[0]
    assert render_clause(clause) == "p(X, Y) :- {-X=2*(-1)-(-Y)}, {X/(-3)>=-2-Y}."
    # occurrences count leaves only: the unary minus of -X is not one
    assert render_marked_clause(clause, {1: {(1,), (3,)}}) == (
        "p(X, Y) :- {-[X]=2*[(-1)]-(-Y)}, {X/(-3)>=-2-Y}."
    )
    # a marked leaf under a negation is still parenthesised as a negative operand
    assert render_marked_clause(clause, {1: {(2,), (4,)}}) == (
        "p(X, Y) :- {-X=[2]*(-1)-(-[Y])}, {X/(-3)>=-2-Y}."
    )
    assert render_marked_clause(clause, {1: {()}, 2: {(2,), (3,)}}) == (
        "p(X, Y) :- [{-X=2*(-1)-(-Y)}], {X/[(-3)]>=[-2]-Y}."
    )
