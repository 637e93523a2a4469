"""The iterative term walkers against their recursive references
(``term_reference.py``), on random terms and on terms far deeper than
Python's recursion limit."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

import term_reference as ref
from clpslice.constraints import SolvedState, _occurs, _resolve
from clpslice.linexpr import LinExpr, NonlinearityError, to_linear
from clpslice.parser import ClpSyntaxError, _Parser, parse_goal
from clpslice.syntax import (
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Term,
    Variable,
    _format_address,
    ground_paths,
    map_term,
    render_constraint,
    render_element,
    render_term,
    rename_term,
    term_subpositions,
    vars_of_term,
)

SEEDS = range(300)  # each random test runs once per seed
DEEP = 3000


def random_term(rng: random.Random, depth: int) -> Term:
    """Uninterpreted structure over a few functors, variables, atoms and
    numbers, sometimes with an arithmetic subterm."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Variable(rng.choice("XYZW"))
        if kind == 1:
            return NumberLiteral(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))))
        return Compound(rng.choice(("a", "b", "nil")))
    if roll < 0.36:
        return random_arith(rng, 2)
    return Compound(rng.choice(("f", "g", "s", "cons")),
                    tuple(random_term(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def random_arith(rng: random.Random, depth: int) -> Term:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Variable(rng.choice("XYZ"))
        return NumberLiteral(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3))))
    if roll < 0.4:
        return Compound("-", (random_arith(rng, depth - 1),))
    op = rng.choice("+-*/")
    left, right = random_arith(rng, depth - 1), random_arith(rng, depth - 1)
    if op == "*" and rng.random() < 0.7:
        left = NumberLiteral(Fraction(rng.randint(-3, 3)))
    if op == "/":
        right = NumberLiteral(Fraction(rng.choice((-2, 1, 3))))
    return Compound(op, (left, right))


def numeral(depth: int, bottom: Term = Compound("z")) -> Compound:
    t = bottom
    for _ in range(depth):
        t = Compound("s", (t,))
    return t  # type: ignore[return-value]


def recording_mark(log: list):
    def mark(literal, path, text):
        log.append((literal, path, text))
        return f"<{text}>"
    return mark


def test_walkers_match_recursive_references():
    for seed in SEEDS:
        rng = random.Random(seed)
        t = random_term(rng, rng.randint(0, 5))
        assert list(term_subpositions(t)) == list(ref.term_subpositions(t))
        assert list(term_subpositions(t, (3, 1))) == [
            ((3, 1, *path), sub) for path, sub in ref.term_subpositions(t)]
        assert vars_of_term(t) == ref.vars_of_term(t)
        assert render_term(t) == ref.render_term(t)
        assert render_term(t, texts={}) == ref.render_term(t)
        got, want = [], []
        assert (render_term(t, recording_mark(got), 2, (1,))
                == ref.render_term(t, recording_mark(want), 2, (1,)))
        assert got == want
        mapping = {"X": "X#1", "Y": "Q"}
        assert rename_term(t, mapping) == ref.rename_term(t, mapping)
        path = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        assert _format_address("7", 2, path) == ref.format_address("7", 2, path)


def test_resolution_matches_recursive_references():
    for seed in SEEDS:
        rng = random.Random(seed)
        # a triangular substitution: each variable bound to a term over the
        # variables after it, so walking it terminates
        names = ["X", "Y", "Z", "W"]
        subst: dict[str, Term] = {}
        for i, name in enumerate(names):
            if rng.random() < 0.6:
                later = names[i + 1:]
                t = random_term(rng, 3)
                subst[name] = map_term(
                    t, lambda s: Variable(rng.choice(later)) if isinstance(s, Variable) and later
                    else (Compound("a") if isinstance(s, Variable) else s))
        pivots = {"W": LinExpr({}, Fraction(4))} if "W" not in subst else {}
        t = random_term(rng, 4)
        assert _resolve(t, subst, {}) == ref.deep_resolve(t, subst)
        state = SolvedState()
        state.bindings, state.pivots = subst, pivots
        resolved = state.resolve_term(t)
        assert resolved == ref.resolve_term(t, subst, pivots)
        for name in names:
            assert _occurs(name, t, subst) == ref.occurs(name, t, subst)
        # the pattern may or may not share the value's structure
        for pattern in (t, random_term(rng, 3)):
            assert set(ground_paths(pattern, resolved)) == ref.ground_paths(pattern, resolved)
            assert (set(ground_paths(pattern, resolved, (2,)))
                    == {(2, *p) for p in ref.ground_paths(pattern, resolved)})


def test_arithmetic_walkers_match_recursive_references():
    for seed in SEEDS:
        rng = random.Random(seed)
        lhs, rhs = random_arith(rng, 4), random_arith(rng, 3)
        expr = ConstraintExpr(rng.choice(("=", "<=", "<")), lhs, rhs)
        assert expr.occurrences() == ref.occurrences(lhs, rhs)
        assert render_constraint(expr) == (
            f"{ref.render_arith(lhs, 0)}{expr.relation}{ref.render_arith(rhs, 0)}")
        got = render_constraint(expr, lambda k, s: f"[{k}:{s}]")
        count = iter(range(1, 100))
        leaf = lambda s: f"[{next(count)}:{s}]"  # noqa: E731
        assert got == f"{ref.render_arith(lhs, 0, leaf)}{expr.relation}{ref.render_arith(rhs, 0, leaf)}"
        for side in (lhs, rhs, Compound("f", (lhs,)), Compound("+", (lhs,))):
            try:
                want = ref.to_linear(side)
            except NonlinearityError as exc:
                with pytest.raises(NonlinearityError) as info:
                    to_linear(side)
                assert str(info.value) == str(exc)
            else:
                assert to_linear(side) == want


def parse_term_with(parser_cls, text: str) -> Term:
    parser = parser_cls(text)
    parser._begin_clause()
    t = parser.term()
    parser.expect(".")
    return t


def test_term_rule_matches_recursive_parser():
    for seed in SEEDS:
        rng = random.Random(seed)
        t = random_term(rng, 5)
        # arithmetic subterms render infix, which is no term syntax: then
        # both parsers must fail with the same message
        text = render_term(t) + "."
        try:
            want = parse_term_with(ref.RecursiveParser, text)
        except ClpSyntaxError as exc:
            with pytest.raises(ClpSyntaxError) as info:
                parse_term_with(_Parser, text)
            assert str(info.value) == str(exc)
        else:
            assert parse_term_with(_Parser, text) == want
        # truncated input fails at the same token either way
        cut = text[:rng.randrange(len(text))] + "."
        try:
            want = parse_term_with(ref.RecursiveParser, cut)
        except ClpSyntaxError as exc:
            with pytest.raises(ClpSyntaxError) as info:
                parse_term_with(_Parser, cut)
            assert str(info.value) == str(exc)
        else:
            assert parse_term_with(_Parser, cut) == want


def test_compound_hash_is_the_dataclass_hash():
    rng = random.Random(1)
    for _ in range(100):
        t = random_term(rng, 4)
        if isinstance(t, Compound):
            assert hash(t) == hash((t.functor, t.args))
            assert hash(ref.rename_term(t, {})) == hash(t)  # a fresh copy
            assert "_hash" not in pickle.loads(pickle.dumps(t)).__dict__


# -- far deeper than the recursion limit: counts and texts are compared
# -- against their closed forms, where a recursive reference would overflow


def test_deep_compounds_hash_and_compare():
    a, b = numeral(DEEP, Variable("X")), numeral(DEEP, Variable("X"))
    assert a is not b and hash(a) == hash(b) and a == b
    assert a != numeral(DEEP, Variable("Y")) and a != numeral(DEEP - 1, Variable("X"))
    assert len({a, b}) == 1

def test_deep_numeral_walkers():
    t = numeral(DEEP, Variable("X"))
    text = "s(" * DEEP + "X" + ")" * DEEP
    positions = list(term_subpositions(t))
    assert len(positions) == DEEP + 1
    assert positions[-1][0] == (1,) * DEEP and positions[-1][1] == Variable("X")
    assert vars_of_term(t) == frozenset({"X"})
    assert render_term(t) == text
    assert str(t) == text
    marked = render_term(t, lambda lit, path, s: s if path else f"[{s}]")
    assert marked == f"[{text}]"
    texts: dict[int, str] = {}
    assert [render_element(sub, texts) for _, sub in positions[::500]] == [
        "s(" * (DEEP - k) + "X" + ")" * (DEEP - k) for k in range(0, DEEP + 1, 500)]
    assert len(texts) == DEEP
    assert hash(t) == hash(numeral(DEEP, Variable("X")))
    assert render_term(rename_term(t, {"X": "X#9"})) == text.replace("X", "X#9")


def test_deep_numeral_resolution():
    deep = numeral(DEEP)
    state = SolvedState()
    state.bindings = {"X": deep, "Y": Compound("s", (Variable("X"),))}
    assert render_term(state.resolve_term(Variable("Y"))) == "s(" * (DEEP + 1) + "z" + ")" * (DEEP + 1)
    assert state.is_ground(Variable("Y"))
    assert _occurs("Q", Variable("Y"), state.bindings) is False
    assert render_term(_resolve(Variable("Y"), state.bindings, {})) == render_term(
        state.resolve_term(Variable("Y")))
    # every path of the pattern s(X) into the resolved numeral is ground
    assert sorted(ground_paths(Compound("s", (Variable("X"),)),
                               state.resolve_term(Variable("Y")))) == [(), (1,)]
    assert len(ground_paths(deep, deep)) == DEEP + 1


def test_deep_numeral_parses():
    text = "s(" * DEEP + "z" + ")" * DEEP
    goal = parse_goal(f"add(z, {text}, Z).")
    assert render_term(goal.body[0].args[1]) == text


def test_deep_arithmetic():
    # a left-nested sum DEEP levels deep: X + 1 + 1 + ... + 1
    t: Term = Variable("X")
    for _ in range(DEEP):
        t = Compound("+", (t, NumberLiteral(Fraction(1))))
    expr = ConstraintExpr("=", t, NumberLiteral(Fraction(0)))
    assert len(expr.occurrences()) == DEEP + 2
    assert to_linear(t) == LinExpr({"X": Fraction(1)}, Fraction(DEEP))
    assert render_constraint(expr) == "X" + "+1" * DEEP + "=0"
