"""The deepest tree that ``NoSolution`` carries, judged only when
backtracking drops a candidate, matches the eager rule of
``deepest_reference``: same message, and the same deepest skeleton
(clauses, parent links and children), or None for both."""

from __future__ import annotations

import json
import random

import pytest

import clpslice
from clpslice import NoSolution, derive, parse_goal, parse_program
from clpslice.engine import DEFAULT_DEPTH_LIMIT
from deepest_reference import eager_derive
from derive_pins import CORPUS_PROGRAMS, FIXTURE, cases
from genutil import random_program

PEANO_ADD = """
add(z, Y, Y).
add(s(X), Y, s(Z)) :- add(X, Y, Z).
"""


def _outcome(run, program, goal, depth_limit):
    """The NoSolution message and deepest skeleton, or None when a
    proof tree exists."""
    try:
        run(program, goal, depth_limit=depth_limit)
    except NoSolution as exc:
        deepest = exc.deepest
        return str(exc), None if deepest is None else [
            (n.clause, n.parent, n.children) for n in deepest.skeleton.nodes]
    return None


def _assert_same(program, goal, depth_limit, case) -> bool:
    """Compare derive with the eager rule; whether the goal failed."""
    got = _outcome(derive, program, goal, depth_limit)
    assert got == _outcome(eager_derive, program, goal, depth_limit), case
    return got is not None


def test_deepest_matches_eager_rule_on_pinned_failures():
    pins = json.loads(FIXTURE.read_text())
    failing = [(case_id, program, goal) for case_id, program, goal, _ in cases()
               if "no_solution" in pins[case_id]]
    assert len(failing) == 103
    for case_id, program, goal in failing:
        assert _assert_same(program, goal, DEFAULT_DEPTH_LIMIT, case_id)


def test_deepest_matches_eager_rule_on_random_programs():
    failed = 0
    for seed in range(400, 1400):
        program, goal = random_program(random.Random(seed))
        for depth_limit in (2, 4, 8):
            failed += _assert_same(program, goal, depth_limit, (seed, depth_limit))
    assert failed > 700


def test_deepest_matches_eager_rule_on_corpus_depth_limits():
    failed = 0
    for name in CORPUS_PROGRAMS:
        program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
        for line in clpslice.corpus_path(f"{name}.goals").read_text().splitlines():
            if line.strip() and not line.strip().startswith("%"):
                for depth_limit in range(1, 6):
                    failed += _assert_same(program, parse_goal(line), depth_limit,
                                           (name, line, depth_limit))
    assert failed > 10


@pytest.mark.parametrize("total", [2, 4, 5, 7, 8, 9, 11, 12])
def test_deepest_matches_eager_rule_on_non_triangular_sums(total):
    program = parse_program(clpslice.corpus_path("sum.clp").read_text())
    for depth_limit in (1, 3, 12):
        assert _assert_same(program, parse_goal(f"sum(N, {total})."), depth_limit,
                            (total, depth_limit))


@pytest.mark.parametrize("m", range(5))
def test_deepest_matches_eager_rule_on_odd_peano_doubles(m):
    program = parse_program(PEANO_ADD)
    numeral = "s(" * (2 * m + 1) + "z" + ")" * (2 * m + 1)
    goal = parse_goal(f"add(X, X, {numeral}).")
    for depth_limit in (1, m + 1, 64):
        assert _assert_same(program, goal, depth_limit, (m, depth_limit))
