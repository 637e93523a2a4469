from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpslice import (
    AddressError,
    Atom,
    Clause,
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Variable,
    parse_goal,
    parse_program,
    position_of,
    rename_clause,
    render_clause,
    render_program,
)
from clpslice.parser import ClpSyntaxError, NonlinearityError
from clpslice.syntax import (
    ProgramPosition,
    clause_positions,
    parse_program_address,
    parse_tree_address,
    render_element,
    vars_of,
)


def test_parse_example_program(chain_program_text):
    program = parse_program(chain_program_text)
    assert len(program.clauses) == 3
    kinds = [type(item).__name__ for item in program.clauses[0].body]
    assert kinds == ["ConstraintExpr", "Atom", "Atom"]
    assert program.clauses[0].body[1].indicator == ("q", 2)
    assert program.clauses[0].body[2].indicator == ("r", 1)


def test_parse_empty_program():
    assert parse_program("").clauses == ()


def test_nonlinear_constraint_rejected():
    with pytest.raises(NonlinearityError):
        parse_program("p(X) :- {X * X = 4}.")
    with pytest.raises(NonlinearityError):
        parse_program("p(X, Y) :- {1 / X = Y}.")


def test_parse_goal_forms():
    goal = parse_goal("p(X,Y,Z).")
    assert goal.head is None
    assert len(goal.body) == 1

    goal = parse_goal("{X=1}, p(X).")
    assert [type(i).__name__ for i in goal.body] == ["ConstraintExpr", "Atom"]

    assert parse_goal(":- p(X).").body == parse_goal("p(X).").body

    with pytest.raises(ClpSyntaxError):
        parse_goal("h :- p(X).")


def test_syntax_error_carries_location():
    with pytest.raises(ClpSyntaxError) as err:
        parse_program("p(X) :-\n  q(X,,Y).")
    assert err.value.line == 2


def test_program_clause_requires_head():
    with pytest.raises(ClpSyntaxError):
        parse_program(":- p(X).")
    with pytest.raises(ClpSyntaxError):
        parse_program("p(1). {X = 1}.")


def test_less_or_equal_spellings_parse_alike():
    (lhs,) = parse_goal("{X =< 3}.").body
    (rhs,) = parse_goal("{X <= 3}.").body
    assert lhs.relation == "<=" and lhs == rhs


def test_constraint_without_relation_is_a_syntax_error():
    with pytest.raises(ClpSyntaxError, match=r"^expected a relation \(=, <, <=, >, >=\), "
                                             r"found '\}' \(line 1, column 7\)$"):
        parse_goal("{X + 1}.")


def test_position_of(chain_program_text):
    program = parse_program(chain_program_text)
    # independent enumeration: find Z in the head of clause 0 by walking
    table = program.position_table
    z_positions = [
        pos for pos, elem in table.items()
        if pos.clause == 0 and pos.literal == 0 and elem == Variable("Z")
    ]
    assert position_of(program, "0/0/3") == z_positions[0]
    assert render_element(program.element_at(position_of(program, "2/0/1"))) == "42"
    with pytest.raises(AddressError):
        position_of(program, "9/0/1")
    with pytest.raises(AddressError):
        position_of(program, "0/9/1")
    with pytest.raises(AddressError):
        position_of(program, "bogus")


def test_position_table_is_total_and_renders(chain_program_text):
    program = parse_program(chain_program_text)
    # clause 0: atom(1)+args(3) + constraint(1)+occ(3) + q(1)+2 + r(1)+1 = 13
    # clause 1: atom(1)+2 + constraint(1)+3 = 7;  clause 2: atom(1)+1 = 2
    assert len(program.position_table) == 22
    frag = render_element(program.element_at(position_of(program, "0/1")))
    assert frag == "X-Y=1"
    assert render_element(program.element_at(position_of(program, "0/2"))) == "q(X, Y)"


def test_anonymous_variables_are_fresh():
    program = parse_program("p(_, _).")
    args = program.clauses[0].head.args
    assert args[0] != args[1]
    # freshness survives a user variable with a generated-looking name
    program = parse_program("p(_G0, _).")
    args = program.clauses[0].head.args
    assert args[0] != args[1]
    # only the clause's own names are avoided, not a later clause's
    program = parse_program("a(_). b(_G0, _).")
    assert [str(c) for c in program.clauses] == ["a(_G0).", "b(_G0, _G1)."]


def test_rename_clause(chain_program_text):
    program = parse_program(chain_program_text)
    q = program.clauses[1]
    renamed = rename_clause(q, 3)
    assert render_clause(renamed) == "q(U#3, V#3) :- {U#3+V#3=3}."
    # no variables: identical clause
    fact = program.clauses[2]
    assert rename_clause(fact, 7) == fact
    # injectivity across tags
    assert vars_of(rename_clause(q, 1)) & vars_of(rename_clause(q, 2)) == frozenset()
    # positions unchanged
    original = [(lit, path) for lit, path, _ in clause_positions(q)]
    after = [(lit, path) for lit, path, _ in clause_positions(renamed)]
    assert original == after


def test_round_trip(chain_program_text):
    program = parse_program(chain_program_text)
    assert parse_program(render_program(program)) == program


def test_round_trip_awkward_numbers():
    text = "p(X) :- {X - -2 = 1/2}, q(3/4, -5)."
    program = parse_program(text)
    again = parse_program(render_program(program))
    assert again == program
    lit = program.clauses[0].body[1].args[0]
    assert lit == NumberLiteral(Fraction(3, 4))


def test_address_parsing():
    assert parse_program_address("g/1/3") == ProgramPosition(-1, 1, (3,))
    assert parse_program_address("0/2") == ProgramPosition(0, 2, ())
    assert parse_tree_address("4/0/1.2").path == (1, 2)
    for bad in ("", "1", "x/y", "1/2/a"):
        with pytest.raises(AddressError):
            parse_program_address(bad)


# ---------------------------------------------------------------------------
# generated round-trips

_names = st.sampled_from(["f", "g", "h", "foo"])
_varnames = st.sampled_from(["X", "Y", "Z", "Long_name", "_V"])
_numbers = st.fractions(max_denominator=40).map(NumberLiteral)


def _terms():
    return st.recursive(
        st.one_of(_varnames.map(Variable), _numbers, _names.map(Compound)),
        lambda leaf: st.builds(
            Compound, _names, st.lists(leaf, min_size=1, max_size=3).map(tuple)
        ),
        max_leaves=6,
    )


def _linear_sides():
    coeff = st.integers(min_value=-9, max_value=9).filter(bool)

    def side(varset):
        parts = []
        for v, c in varset:
            term = Variable(v)
            if c != 1:
                term = Compound("*", (NumberLiteral(Fraction(c)), term))
            parts.append(term)
        expr = parts[0]
        for p in parts[1:]:
            expr = Compound("+", (expr, p))
        return expr

    return st.lists(
        st.tuples(_varnames, coeff), min_size=1, max_size=3, unique_by=lambda t: t[0]
    ).map(side)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.builds(Atom, _names, st.lists(_terms(), max_size=3).map(tuple)),
            st.builds(
                ConstraintExpr, st.sampled_from(["=", "<", "<=", ">", ">="]),
                _linear_sides(), _numbers,
            ),
        ),
        min_size=0,
        max_size=4,
    )
)
def test_generated_clause_round_trip(body):
    clause = Clause(Atom("head", (Variable("W"),)), tuple(body))
    from clpslice.syntax import Program

    program = Program((clause,))
    assert parse_program(render_program(program)) == program
