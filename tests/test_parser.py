"""The tuple-token parser against the reference parser, zero
denominators, and the program position table built on first read."""

from __future__ import annotations

import random

import pytest

import parser_reference as ref
from genutil import random_program
from clpslice import corpus_path, derive, parse_goal, parse_program
from clpslice.parser import ClpSyntaxError, NonlinearityError
from clpslice.syntax import ProgramPosition, clause_positions, render_clause, render_program

CORPUS = sorted(p.stem for p in corpus_path().glob("*.clp"))
MUTATION_CHARS = "()[]{},.:;-=<>+*/%_ \n\t0123456789aqXZ!#'\"é"


def corpus_texts() -> list[str]:
    """The corpus programs, their goal lines, the programs and goals of
    ``random_program`` for seeds 0-299, rendered, and fraction literals,
    some with zero denominators."""
    texts = ["p(-6/4, 3/1, -0/5, 2/ 3).", "p(1/0).", "p(X) :- q(-7/0, X).", "p(0/3, 2/ 0)."]
    for name in CORPUS:
        texts.append(corpus_path(f"{name}.clp").read_text(encoding="utf-8"))
        for line in corpus_path(f"{name}.goals").read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("%"):
                texts.append(line)
    for seed in range(300):
        program, goal = random_program(random.Random(seed))
        texts += [render_program(program), render_clause(goal)]
    return texts


def mutations(text: str, rng: random.Random, count: int = 20) -> list[str]:
    """``count`` copies of ``text``, each with one character replaced,
    inserted or deleted."""
    out = []
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(MUTATION_CHARS)
        op = rng.randrange(3)
        if op == 0:
            out.append(text[:i] + c + text[i + 1:])
        elif op == 1:
            out.append(text[:i] + c + text[i:])
        else:
            out.append(text[:i] + text[i + 1:])
    return out


def outcome(parse, text: str) -> tuple:
    try:
        return ("ok", parse(text))
    except (ClpSyntaxError, NonlinearityError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


def test_parser_matches_reference():
    rng = random.Random(16)
    cases = 0
    for base in corpus_texts():
        for text in [base, *mutations(base, rng)]:
            for new, old in ((parse_program, ref.parse_program), (parse_goal, ref.parse_goal)):
                got, want = outcome(new, text), outcome(old, text)
                cases += 1
                if want[0] is ZeroDivisionError:
                    # the reference's traceback is now a syntax error
                    assert got[0] is ClpSyntaxError, text
                    assert got[1].startswith("division by zero (line "), text
                else:
                    assert got == want, text
    assert cases > 25_000


@pytest.mark.parametrize("parse, text, line, col", [
    (parse_goal, "p(1/0).", 1, 5),
    (parse_goal, "p(-1/0).", 1, 6),
    (parse_program, "p(1/0).", 1, 5),
    (parse_program, "p(X) :-\n  q(X, 3/0).", 2, 10),
])
def test_zero_denominator_is_a_syntax_error(parse, text, line, col):
    with pytest.raises(ClpSyntaxError) as info:
        parse(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"division by zero (line {line}, column {col})"


@pytest.mark.parametrize("name", CORPUS)
def test_position_table_is_built_on_first_read(name):
    program = parse_program(corpus_path(f"{name}.clp").read_text(encoding="utf-8"))
    for line in corpus_path(f"{name}.goals").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("%"):
            derive(program, parse_goal(line))
    assert "position_table" not in vars(program)
    assert program.position_table == {
        ProgramPosition(ci, literal, path): elem
        for ci, clause in enumerate(program.clauses)
        for literal, path, elem in clause_positions(clause)
    }
