"""Pinned ``derive`` output: every proof tree and groundness event of a
fixed case set, recorded to ``tests/data/derive_pins.json``.

The cases are every corpus goal at ``max_solutions`` 1 and 3, and 400
seeded ``genutil.random_program`` goals with ``max_solutions=None``.
For each solution the record holds the skeleton's ``(clause, parent,
children)`` triples and every groundness event's ``(kind, node,
literal, sorted ground addresses)``; a goal without a proof tree records
the ``NoSolution`` message and its deepest skeleton.

Regenerate (only when a change of derive output is intended) with::

    PYTHONPATH=src:tests python tests/derive_pins.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import clpslice
from clpslice import NoSolution, derive, parse_goal, parse_program
from genutil import random_program

FIXTURE = Path(__file__).with_name("data") / "derive_pins.json"
CORPUS_PROGRAMS = ("chain", "convert", "family", "fib", "io_flow", "mortgage", "pinned", "sum")
RANDOM_SEEDS = range(400)


def cases():
    """(case id, program, goal, max_solutions) in fixture order."""
    for name in CORPUS_PROGRAMS:
        program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
        goals = clpslice.corpus_path(f"{name}.goals").read_text().splitlines()
        for line in goals:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            for k in (1, 3):
                yield f"{name}:{line}:{k}", program, parse_goal(line), k
    for seed in RANDOM_SEEDS:
        program, goal = random_program(random.Random(seed))
        yield f"random:{seed}", program, goal, None


def _skeleton(skeleton) -> list:
    return [[n.clause, n.parent, list(n.children)] for n in skeleton.nodes]


def record(program, goal, max_solutions) -> dict:
    try:
        solutions = derive(program, goal, max_solutions=max_solutions)
    except NoSolution as exc:
        deepest = None if exc.deepest is None else _skeleton(exc.deepest.skeleton)
        return {"no_solution": {"message": str(exc), "deepest": deepest}}
    return {"solutions": [
        {
            "skeleton": _skeleton(sol.tree.skeleton),
            "events": [
                [e.kind, e.node, e.literal, sorted(p.address for p in e.ground)]
                for e in sol.log.events
            ],
        }
        for sol in solutions
    ]}


def main() -> None:
    pins = {case_id: record(program, goal, k) for case_id, program, goal, k in cases()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(pins, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {len(pins)} cases to {FIXTURE}")


if __name__ == "__main__":
    main()
