import random

from clpslice import corpus_path, parse_program, render_clause
from clpslice.report import render_marked_clause
from genutil import random_program


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
