"""Pinned ``clpslice stats`` output: the table and the ``--json`` rows of
every corpus goal file, with and without ``--undirected``, recorded to
``tests/data/stats/``.

Each case writes ``<program>.txt`` (the table on stdout) and
``<program>.json`` (the ``--json`` file), or ``<program>_undirected.*``
under ``--undirected``.  The program path, which the table's
``program:`` line and the JSON ``program`` key repeat, is normalised to
``corpus/<program>.clp``.

Regenerate (only when a change of stats output is intended) with::

    PYTHONPATH=src:tests python tests/stats_pins.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import clpslice
from clpslice.cli import main as cli_main
from derive_pins import CORPUS_PROGRAMS

FIXTURE_DIR = Path(__file__).with_name("data") / "stats"


def cases():
    """(case id, program name, undirected) in fixture order."""
    for name in CORPUS_PROGRAMS:
        for undirected in (False, True):
            yield name + ("_undirected" if undirected else ""), name, undirected


def record(name: str, undirected: bool) -> tuple[str, str]:
    """The stats table and the JSON text of one case, path-normalised."""
    program = str(clpslice.corpus_path(f"{name}.clp"))
    goals = str(clpslice.corpus_path(f"{name}.goals"))
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "stats.json"
        argv = ["stats", program, goals, "--json", str(out_file)]
        if undirected:
            argv.append("--undirected")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        assert code == 0, (name, undirected, code)
        data = out_file.read_text()
    shown = f"corpus/{name}.clp"
    table = stdout.getvalue().replace(f"program: {program} ", f"program: {shown} ", 1)
    return table, data.replace(f'"program": "{program}"', f'"program": "{shown}"', 1)


def main() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    count = 0
    for case_id, name, undirected in cases():
        table, data = record(name, undirected)
        (FIXTURE_DIR / f"{case_id}.txt").write_text(table)
        (FIXTURE_DIR / f"{case_id}.json").write_text(data)
        count += 1
    print(f"wrote {count} cases to {FIXTURE_DIR}")


if __name__ == "__main__":
    main()
