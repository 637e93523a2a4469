"""Pinned ``clpslice slice`` output for every corpus goal, recorded to
``tests/data/slice/<program>.json``.

For each goal the cases are:

* every goal-atom argument ``0/1/k`` in ``tree`` and ``dynamic`` mode,
  each plain and ``--undirected``;
* ``--mode position`` at every goal argument ``g/1/k``, plain and
  ``--undirected``;
* ``--all-solutions 3`` at every ``0/1/k`` in ``dynamic`` mode, at every
  ``g/1/k`` in ``position`` mode, and at every head argument ``c/0/k``
  of the program in ``position`` mode (some trees hold no instance of
  such a position, so it shows how they enter the means);
* ``--oracle-domain`` at every ``0/1/k`` in ``dynamic`` mode, over the
  domain of ``ORACLE_DOMAINS``, for the programs whose stores are
  integral.

A case records the exit code, stdout, stderr (the oracle line or the
error), the message of every warning (each one, not only the first per
location), and the ``--json`` report without its ``groundness_log``
(``derive_pins.json`` pins the log).  The report's ``meta.program`` is
normalised to ``corpus/<program>.clp``.

Regenerate (only when a change of slice output is intended) with::

    PYTHONPATH=src:tests python tests/slice_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import clpslice
from clpslice import parse_goal, parse_program
from clpslice.cli import main as cli_main
from derive_pins import CORPUS_PROGRAMS

FIXTURE_DIR = Path(__file__).with_name("data") / "slice"

# A domain that holds a solution of every tree's store, per program.
# family.clp equates variables with atoms, which no integer domain holds.
ORACLE_DOMAINS = {
    "chain": "-1..50",
    "convert": "-1..213",
    "fib": "-1..12",
    "io_flow": "-5..5",
    "mortgage": "-1..101",
    "pinned": "-5..5",
    "sum": "-1..12",
}


def _goals(name: str) -> list[str]:
    lines = clpslice.corpus_path(f"{name}.goals").read_text().splitlines()
    return [line.strip() for line in lines if line.strip() and not line.strip().startswith("%")]


def _flag_sets(name: str, goal: str) -> list[list[str]]:
    """The options after the goal of every case of one goal, in order."""
    arity = len(parse_goal(goal).body[0].args)
    program = parse_program(clpslice.corpus_path(f"{name}.clp").read_text())
    heads = [
        f"{ci}/0/{k}"
        for ci, clause in enumerate(program.clauses) if clause.head is not None
        for k in range(1, len(clause.head.args) + 1)
    ]
    tree_at = [f"0/1/{k}" for k in range(1, arity + 1)]
    goal_at = [f"g/1/{k}" for k in range(1, arity + 1)]
    flag_sets = []
    for at in tree_at:
        for mode in ("tree", "dynamic"):
            flag_sets.append(["--mode", mode, "--at", at])
            flag_sets.append(["--mode", mode, "--at", at, "--undirected"])
    for at in goal_at:
        flag_sets.append(["--mode", "position", "--at", at])
        flag_sets.append(["--mode", "position", "--at", at, "--undirected"])
    for at in tree_at:
        flag_sets.append(["--mode", "dynamic", "--at", at, "--all-solutions", "3"])
    for at in goal_at + heads:
        flag_sets.append(["--mode", "position", "--at", at, "--all-solutions", "3"])
    if name in ORACLE_DOMAINS:
        for at in tree_at:
            flag_sets.append(["--mode", "dynamic", "--at", at,
                              f"--oracle-domain={ORACLE_DOMAINS[name]}"])
    return flag_sets


def cases():
    """(program name, case id, goal, flags) in fixture order."""
    for name in CORPUS_PROGRAMS:
        for goal in _goals(name):
            for flags in _flag_sets(name, goal):
                yield name, " ".join([goal, *flags]), goal, flags


def record(name: str, goal: str, flags: list[str]) -> dict:
    """What one ``slice`` run shows, path-normalised."""
    program = str(clpslice.corpus_path(f"{name}.clp"))
    with tempfile.TemporaryDirectory() as tmp:
        report_file = Path(tmp) / "report.json"
        argv = ["slice", program, "--goal", goal, *flags, "--json", str(report_file)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli_main(argv)
        report = json.loads(report_file.read_text()) if report_file.exists() else None
    if report is not None:
        del report["groundness_log"]
        report["meta"]["program"] = f"corpus/{name}.clp"
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [str(w.message) for w in caught],
        "json": report,
    }


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    pins: dict[str, dict[str, dict]] = {}
    for name, case_id, goal, flags in cases():
        pins.setdefault(name, {})[case_id] = record(name, goal, flags)
    for name, records in pins.items():
        text = json.dumps(records, indent=1, sort_keys=True) + "\n"
        (FIXTURE_DIR / f"{name}.json").write_text(text)
    print(f"wrote {sum(map(len, pins.values()))} cases to {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
