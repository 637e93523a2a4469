"""The cli-requests workload: each op is a fresh ``clpslice`` process.

Requests cover ``slice`` in tree, dynamic and position modes with
``--undirected``, ``--all-solutions``, ``--json``/``--dot`` and
``--oracle-domain``, and ``stats`` over goal files, on the bundled
corpus and small family goals.  An op succeeds when the exit code is
the expected one and the output is right: reports load, the oracle
prints "ok", and node and argument-position counts match the counts
computed in ``families``.

Traced, a request runs through ``cli_child.py``, which installs the
tracer in the child before it calls ``clpslice.cli.main``; the parent
merges the child's spans under the op's span.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import families as fam
from workloads import CheckFailure, Op

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120

# The slice of Z in the corpus chain program, as given in the paper's
# running example and in docs/report-schema.md.
CHAIN_Z_TREE = ["0/1/3", "1/0/3", "1/3/1", "3/0/1"]
CHAIN_Z_PROGRAM = ["0/0/3", "0/3/1", "2/0/1", "g/1/3"]

# The deepest Peano term a request may carry before the command line
# dies with a RecursionError today.
DEEP_TERM = 600

# The cheapest request runs twice, so that a cycle has 20 ops: 100 ops
# are five whole cycles, and the median falls between the add-all-solutions
# and chain-tree requests, which cost the same.
COPIES_PER_CYCLE = {"convert-position": 2}

_TREE_LINE = re.compile(r"^tree: (\d+) nodes, (\d+) argument positions$", re.M)


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    shape: tuple[int, int] | None = None  # (nodes, argument positions) printed
    tree_positions: tuple[str, ...] = ()  # must all be printed
    exact: bool = False  # and nothing else
    stdout_has: tuple[str, ...] = ()
    stderr_has: tuple[str, ...] = ()
    report: dict = field(default_factory=dict)  # expected fields of --json
    stats_rows: tuple = ()  # expected (status, nodes, argpos) of stats --json
    dot_prefix: str | None = None


@dataclass
class State:
    tmp: Path
    env: dict
    requests: list


def child_env(root: Path) -> dict:
    """The environment of every child: clpslice only from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _requests(root: Path, tmp: Path, rng: random.Random) -> list[Request]:
    corpus = root / "src" / "clpslice" / "corpus"
    chain, io_flow = str(corpus / "chain.clp"), str(corpus / "io_flow.clp")
    programs = {name: _write(tmp / f"{name}.clp", text) for name, text in fam.PROGRAMS.items()}
    sum_sizes = (3, 5, 7)
    sum_goals = _write(tmp / "sum.goals", "".join(f"sum({n}, S).\n" for n in sum_sizes))
    mortgage_terms = (3, 5)
    mortgage_goals = _write(tmp / "mortgage.goals", "".join(
        f"mortgage({fam.number(fam.random_principal(rng))}, {t}, B).\n"
        for t in mortgage_terms))
    principal = fam.number(fam.random_principal(rng))
    json_out, dot_out = str(tmp / "report.json"), str(tmp / "graph.dot")

    def slice_(program, goal, at, mode, *flags):
        return ("slice", program, "--goal", goal, "--at", at, "--mode", mode, *flags)

    return [
        Request("chain-tree", slice_(chain, "p(X,Y,Z).", "0/1/3", "tree"),
                shape=(4, 12), tree_positions=tuple(CHAIN_Z_TREE), exact=True),
        Request("chain-dynamic-json-oracle",
                slice_(chain, "p(X,Y,Z).", "0/1/3", "dynamic", "--json", json_out,
                       "--oracle-domain=-50..50"),
                shape=(4, 12), stderr_has=("oracle validation over -50..50: ok",),
                report={"mode": "dynamic", "criterion": "0/1/3", "annotation_used": True,
                        "tree_positions": CHAIN_Z_TREE, "program_positions": CHAIN_Z_PROGRAM,
                        "tree_node_count": 4}),
        Request("chain-undirected-dot",
                slice_(chain, "p(X,Y,Z).", "0/1/3", "dynamic", "--undirected", "--dot", dot_out),
                shape=(4, 12), tree_positions=("0/1/3",), stdout_has=("annotation: off",),
                dot_prefix="graph dependencies {"),
        Request("io-flow-dynamic-oracle",
                slice_(io_flow, "p(X, Y).", "0/1/2", "dynamic", "--oracle-domain=-10..10"),
                shape=(4, 10), tree_positions=("0/1/2",),
                stderr_has=("oracle validation over -10..10: ok",)),
        Request("convert-position",
                slice_(str(corpus / "convert.clp"), "c2f(100, F).", "0/0/2", "position"),
                shape=(2, 4), stdout_has=("program listing",)),
        Request("pinned-dynamic-oracle",
                slice_(str(corpus / "pinned.clp"), "main(X, Y).", "0/1/1", "dynamic",
                       "--oracle-domain=-5..5"),
                shape=(3, 6), tree_positions=("0/1/1",),
                stderr_has=("oracle validation over -5..5: ok",)),
        Request("family-tree", slice_(str(corpus / "family.clp"), "grand(ann, Z).", "0/1/2", "tree"),
                shape=(4, 12), tree_positions=("0/1/2",)),
        Request("mortgage-corpus-oracle",
                slice_(str(corpus / "mortgage.clp"), "mortgage(100, 3, B).", "0/1/3", "dynamic",
                       "--oracle-domain=-1..101"),
                shape=(5, 24), tree_positions=("0/1/3",),
                stderr_has=("oracle validation over -1..101: ok",)),
        Request("sum-tree-oracle",
                slice_(programs["sum"], "sum(6, S).", "0/1/2", "tree",
                       f"--oracle-domain=-1..{fam.triangular(6) + 1}"),
                shape=fam.shape("sum", 6), tree_positions=("0/1/2",),
                stderr_has=(f"oracle validation over -1..{fam.triangular(6) + 1}: ok",)),
        Request("fib-dynamic-json", slice_(programs["fib"], "fib(5, F).", "0/1/2", "dynamic",
                                           "--json", json_out),
                shape=fam.shape("fib", 5), tree_positions=("0/1/2",),
                report={"mode": "dynamic", "criterion": "0/1/2", "annotation_used": True,
                        "tree_node_count": fam.fib_nodes(5)}),
        Request("mortgage-position-json",
                slice_(programs["mortgage"], f"mortgage({principal}, 6, B).", "1/0/3", "position",
                       "--json", json_out),
                shape=fam.shape("mortgage", 6), stdout_has=("program listing",),
                report={"mode": "position", "criterion": "1/0/3",
                        "tree_node_count": fam.mortgage_nodes(6)}),
        Request("add-all-solutions",
                slice_(programs["add"], f"add(X, Y, {fam.peano(4)}).", "0/1/1", "tree",
                       "--all-solutions", "3"),
                shape=fam.shape("add", 0), tree_positions=("0/1/1",)),
        Request("add-no-proof", slice_(programs["add"], f"add(X, X, {fam.peano(5)}).", "0/1/1",
                                       "tree"),
                exit_code=2, stderr_has=(f"no solution: {fam.NO_PROOF}",)),
        Request("add-deep-300", slice_(programs["add"], f"add(z, {fam.peano(300)}, Z).", "0/1/3",
                                       "tree"),
                shape=fam.shape("add", 0), tree_positions=("0/1/3",)),
        Request("stats-fib-corpus-json",
                ("stats", str(corpus / "fib.clp"), str(corpus / "fib.goals"), "--json", json_out),
                stats_rows=(("ok", *fam.shape("fib", 5)),)),
        Request("stats-sum-json", ("stats", programs["sum"], sum_goals, "--json", json_out),
                stats_rows=tuple(("ok", *fam.shape("sum", n)) for n in sum_sizes)),
        Request("stats-mortgage-json",
                ("stats", programs["mortgage"], mortgage_goals, "--json", json_out),
                stats_rows=tuple(("ok", *fam.shape("mortgage", t)) for t in mortgage_terms)),
        Request("stats-convert-corpus-json",
                ("stats", str(corpus / "convert.clp"), str(corpus / "convert.goals"),
                 "--json", json_out),
                stats_rows=(("ok", 2, 4), ("ok", 2, 4))),
        Request("stats-family-undirected-json",
                ("stats", str(corpus / "family.clp"), str(corpus / "family.goals"), "--undirected",
                 "--json", json_out),
                stats_rows=(("ok", 4, 12), ("ok", 4, 12))),
    ]


def _check(request: Request, proc, tmp: Path) -> None:
    if proc.returncode != request.exit_code:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailure(f"exit {proc.returncode}, expected {request.exit_code}: {tail[0]}")
    if request.shape is not None:
        found = _TREE_LINE.search(proc.stdout)
        got = (int(found.group(1)), int(found.group(2))) if found else None
        if got != request.shape:
            raise CheckFailure(f"tree (nodes, argument positions) {got}, expected {request.shape}")
    if request.tree_positions:
        listed = re.findall(r"^  (\S+)  ", proc.stdout.split("tree positions:", 1)[-1], re.M)
        missing = [a for a in request.tree_positions if a not in listed]
        if missing:
            raise CheckFailure(f"slice lacks {', '.join(missing)}")
        if request.exact and sorted(listed) != sorted(request.tree_positions):
            raise CheckFailure(f"slice is {sorted(listed)}, expected {list(request.tree_positions)}")
    for text in request.stdout_has:
        if text not in proc.stdout:
            raise CheckFailure(f"stdout lacks {text!r}")
    for text in request.stderr_has:
        if text not in proc.stderr:
            raise CheckFailure(f"stderr lacks {text!r}")
    if request.report:
        report = json.loads((tmp / "report.json").read_text(encoding="utf-8"))
        for key, want in request.report.items():
            got = report["stats"][key] if key == "tree_node_count" else report[key]
            if got != want:
                raise CheckFailure(f"report {key} = {got!r}, expected {want!r}")
        key = "program_positions" if report["mode"] == "position" else "tree_positions"
        if report["criterion"] not in report[key]:
            raise CheckFailure("report slice lacks its criterion")
    if request.stats_rows:
        rows = json.loads((tmp / "report.json").read_text(encoding="utf-8"))["rows"]
        got = tuple((r["status"], r.get("tree_nodes"), r.get("tree_argpos")) for r in rows)
        if got != request.stats_rows:
            raise CheckFailure(f"stats rows {got}, expected {request.stats_rows}")
        if any(r["slices"] != r["tree_argpos"] for r in rows):
            raise CheckFailure("stats sliced a different number of criteria than positions")
    if request.dot_prefix is not None:
        dot = (tmp / "graph.dot").read_text(encoding="utf-8")
        if not dot.startswith(request.dot_prefix) or '"0/1/3"' not in dot:
            raise CheckFailure("DOT output malformed")


def run_request(argv, cwd: Path, env: dict, spans_path: Path | None = None):
    if spans_path is None:
        cmd = [sys.executable, "-m", "clpslice.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


class CliRequests:
    def __init__(self, root: Path):
        self.root = root
        # set for a traced pass: children then run through cli_child.py
        self.tracer = None
        self.import_s: list[float] = []
        self.startup_s: list[float] = []

    def setup(self, seed: int) -> State:
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        rng = random.Random(f"{seed}/inputs")
        requests = _requests(self.root, tmp, rng)
        return State(tmp, child_env(self.root), requests)

    def cycle(self, state: State, rng: random.Random) -> list[Op]:
        ops = [Op(r.name, None, (r,)) for r in state.requests
               for _ in range(COPIES_PER_CYCLE.get(r.name, 1))]
        return rng.sample(ops, len(ops))

    def run(self, state: State, op: Op):
        request = op.payload[0]
        if self.tracer is None:
            return run_request(request.argv, state.tmp, state.env)
        spans_path = state.tmp / "child-spans.json"
        start = perf_counter()
        proc = run_request(request.argv, state.tmp, state.env, spans_path)
        wall = perf_counter() - start
        with open(spans_path, encoding="utf-8") as handle:
            dump = json.load(handle)
        spans_path.unlink()
        main_s = sum(end - begin for _, _, n, begin, end, _, _ in dump["spans"]
                     if dump["names"][n] == "cli.main")
        self.tracer.merge(dump)
        self.import_s.append(dump["import_s"])
        self.startup_s.append(wall - main_s)
        return proc

    def check(self, state: State, op: Op, result) -> None:
        if isinstance(result, BaseException):
            raise CheckFailure(f"request failed to run: {type(result).__name__}: {result}")
        try:
            _check(op.payload[0], result, state.tmp)
        finally:
            for name in ("report.json", "graph.dot"):
                (state.tmp / name).unlink(missing_ok=True)

    def close(self, state: State) -> None:
        shutil.rmtree(state.tmp, ignore_errors=True)


def deep_term_exit(root: Path) -> int:
    """Exit code of ``add(z, s^600(z), Z)`` on the command line: the
    known failure at the seed (a RecursionError traceback, exit 1)."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        program = _write(tmp / "add.clp", fam.ADD)
        proc = run_request(("slice", program, "--goal", f"add(z, {fam.peano(DEEP_TERM)}, Z).",
                            "--at", "0/1/3"), tmp, child_env(root))
        return proc.returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
