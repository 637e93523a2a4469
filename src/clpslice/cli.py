"""Command line front end.

Two subcommands:

* ``slice``: compute one backward slice of a proof tree (``--mode
  tree``), map it onto the program (``--mode dynamic``), or slice every
  instance of a program position and union the results (``--mode
  position``).
* ``stats``: slice every executed argument position of each goal in a
  goal file and tabulate average slice sizes.

A slice follows the dependency edges that the tree's observed
groundness leaves open; ``--undirected`` follows every edge.
``--all-solutions K`` unions the slices of the first K proof trees and
needs K >= 1, as ``--depth N`` needs N >= 1.

Exit codes: 0 success, 1 usage or input error (including an oracle
domain that holds no solution of the store, and input that exhausts
Python's recursion limit, such as deeply nested parentheses in a
constraint; term depth alone does not), 2 no proof tree, 3 oracle
validation failure (with ``--oracle-domain``).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass
from functools import reduce

from .depgraph import DependencyGraph, graph_to_dot, tree_dep_graph, tree_slice
from .directional import Annotation, annotate, directed_to_dot, directional_slice
from .engine import (NoSolution, ProofTree, Solution, derive, origin_constraints,
                     phi_inverse, positions_to_store)
from .oracle import OracleDomainError, has_solution, is_slice
from .parser import ClpSyntaxError, NonlinearityError, parse_goal, parse_program
from .report import SliceReport, SliceStats, compute_stats, emit_report, highlight_listing
from .syntax import (GOAL_CLAUSE, AddressError, Program, ProgramPosition, TreePosition,
                     Variable, goal_positions, parse_program_address, parse_tree_address,
                     render_element)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_ORACLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clpslice", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sl = sub.add_parser("slice", help="compute a backward slice")
    sl.add_argument("program", help="program file (.clp)")
    sl.add_argument("--goal", required=True, help="goal text, e.g. 'p(X,Y,Z).'")
    sl.add_argument("--mode", choices=("tree", "dynamic", "position"), default="tree")
    sl.add_argument("--at", required=True, metavar="ADDRESS",
                    help="criterion: tree address node/literal/path for tree and "
                         "dynamic mode, program address clause/literal/path "
                         "(clause may be 'g') for position mode")
    sl.add_argument("--undirected", action="store_true",
                    help="use plain dependency components, ignoring groundness")
    sl.add_argument("--depth", type=int, default=64, help="derivation depth limit")
    sl.add_argument("--all-solutions", type=int, default=1, metavar="K",
                    help="derive up to K proof trees and union their slices")
    sl.add_argument("--dot", metavar="PATH", help="write the dependency graph as DOT")
    sl.add_argument("--json", metavar="PATH", help="write the slice report as JSON")
    sl.add_argument("--oracle-domain", metavar="LO..HI",
                    help="validate each slice with the finite-domain oracle")

    st = sub.add_parser("stats", help="slice-size statistics over a goal file")
    st.add_argument("program", help="program file (.clp)")
    st.add_argument("goals", help="file with one goal per line")
    st.add_argument("--depth", type=int, default=64)
    st.add_argument("--undirected", action="store_true")
    st.add_argument("--json", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"clpslice: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "slice":
            return _cmd_slice(args)
        return _cmd_stats(args)
    except (_UsageError, ClpSyntaxError, NonlinearityError, AddressError, OSError,
            ValueError) as exc:
        print(f"clpslice: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoSolution as exc:
        detail = ""
        if exc.deepest is not None:
            detail = f" (deepest derivation tree: {exc.deepest.node_count()} nodes)"
        print(f"clpslice: no solution: {exc}{detail}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except RecursionError:
        print("clpslice: recursion limit exceeded", file=sys.stderr)
        return EXIT_USAGE


def _read_program(path: str) -> Program:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


def _parse_domain(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        dom = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --oracle-domain {text!r}; expected LO..HI") from None
    if dom[0] > dom[1]:
        raise _UsageError(f"bad --oracle-domain {text!r}; LO is greater than HI")
    return dom


def _write_atomic(path: str, content: str) -> None:
    """Replace ``path`` by ``content`` in one rename.  The file gets the
    mode that a plain ``open`` gives a new file, and an error names
    ``path``, not the temporary file."""
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".clpslice-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(content)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _mean(values: list[float]) -> float:
    """The mean, summed left to right.  ``sum`` compensates float rounding
    from Python 3.12 on, so its last bit depends on the interpreter."""
    return reduce(operator.add, values, 0.0) / len(values) if values else 0.0


def _slices(solution: Solution, criteria: list[TreePosition], undirected: bool
            ) -> tuple[DependencyGraph, Annotation | None, list[frozenset[TreePosition]]]:
    """The tree's dependency graph, its groundness annotation (none under
    ``--undirected``) and the slice of each criterion: directional, or
    the plain dependency component under ``--undirected``.  Every slice
    that ``slice`` and ``stats`` compute is computed here."""
    tree = solution.tree
    graph = tree_dep_graph(tree)
    if undirected:
        return graph, None, [tree_slice(tree, alpha, graph).positions for alpha in criteria]
    annotation = annotate(tree, solution.log)
    return graph, annotation, [
        directional_slice(tree, annotation, alpha, graph).positions for alpha in criteria]


@dataclass
class _SolutionSlice:
    """The union of one tree's slices, attributed to its first criterion."""

    tree: ProofTree
    union: frozenset[TreePosition]
    criterion: TreePosition
    graph: DependencyGraph
    annotation: Annotation | None


def _cmd_slice(args: argparse.Namespace) -> int:
    dom = _parse_domain(args.oracle_domain) if args.oracle_domain else None
    program = _read_program(args.program)
    goal = parse_goal(args.goal)
    solutions = derive(program, goal, depth_limit=args.depth,
                       max_solutions=args.all_solutions)

    if args.mode == "position":
        q = parse_program_address(args.at)
        _validate_program_address(program, goal, q)
    else:
        alpha = parse_tree_address(args.at)
    entries = []
    for sol in solutions:
        criteria = sorted(phi_inverse(sol.tree, q)) if args.mode == "position" else [alpha]
        if not criteria:
            warnings.warn(f"program position {q.address} has no instance in the proof tree")
            continue
        graph, annotation, slices = _slices(sol, criteria, args.undirected)
        entries.append(_SolutionSlice(sol.tree, frozenset().union(*slices), criteria[0],
                                      graph, annotation))

    stats = [compute_stats(e.tree, e.union) for e in entries]
    first = entries[0].tree if entries else solutions[0].tree
    report = SliceReport(
        mode=args.mode,
        criterion=args.at,
        tree_positions=frozenset(p.address for e in entries for p in e.union),
        program_positions=frozenset() if args.mode == "tree" else frozenset(
            e.tree.phi[p].address for e in entries for p in e.union),
        stats=SliceStats(first.node_count(), len(first.argument_positions),
                         _mean([s.slice_node_pct for s in stats]),
                         _mean([s.slice_argpos_pct for s in stats])),
        annotation_used=not args.undirected,
    )

    _print_slice(program, goal, entries, report)

    if args.json:
        _write_atomic(args.json, emit_report(
            report, goal=args.goal, program=args.program,
            log=solutions[0].log,
        ))
    if args.dot and entries:
        _write_atomic(args.dot, _render_dot(entries[0]))

    if dom is not None:
        verdict = _validate_slices(entries, dom)
        if verdict is False:
            print("clpslice: oracle validation FAILED", file=sys.stderr)
            return EXIT_ORACLE
        if verdict:
            outcome = "ok"
        elif entries:
            outcome = "skipped (criterion is not a variable position)"
        else:
            outcome = "skipped (no proof tree holds an instance of the position)"
        print(f"oracle validation over {dom[0]}..{dom[1]}: {outcome}", file=sys.stderr)
    return EXIT_OK


def _validate_program_address(program: Program, goal, q: ProgramPosition) -> None:
    if q.clause == GOAL_CLAUSE:
        if q not in goal_positions(goal):
            raise AddressError(f"no such goal position: {q.address}")
    else:
        program.element_at(q)


def _render_dot(entry: _SolutionSlice) -> str:
    elements = entry.tree.pos_table
    if entry.annotation is None:
        return graph_to_dot(entry.graph, elements, entry.union, entry.criterion)
    return directed_to_dot(entry.graph, elements, entry.annotation, entry.union,
                           entry.criterion)


def _validate_slices(entries: list[_SolutionSlice], dom: tuple[int, int]) -> bool | None:
    """Whether every slice keeps its criterion's solutions over the
    domain, or None when no slice was checked: there is no entry, or no
    criterion is a variable.  A domain without any solution of a store can certify
    nothing, so it is an input error rather than a failed check."""
    ok = None
    for entry in entries:
        tree = entry.tree
        elem = tree.element_at(entry.criterion)
        if not isinstance(elem, Variable):
            warnings.warn("criterion is not a variable position; oracle check skipped")
            continue
        if not has_solution(tree.store, dom):
            raise OracleDomainError(
                f"oracle domain {dom[0]}..{dom[1]} holds no solution of the store")
        subset = positions_to_store(tree, entry.union)
        if not is_slice(tree.store, subset, elem.name, dom):
            ok = False
        elif ok is None:
            ok = True
    return ok


def _print_slice(program: Program, goal, entries: list[_SolutionSlice],
                 report: SliceReport) -> None:
    print(f"mode: {report.mode}   criterion: {report.criterion}   "
          f"annotation: {'on' if report.annotation_used else 'off'}")
    print(f"tree: {report.stats.tree_node_count} nodes, "
          f"{report.stats.tree_argpos_count} argument positions")
    print(f"slice: {report.stats.slice_node_pct:.2f}% of nodes, "
          f"{report.stats.slice_argpos_pct:.2f}% of argument positions")
    if entries:
        tree, union = entries[0].tree, entries[0].union
        print("tree positions:")
        texts: dict[int, str] = {}
        for pos in sorted(union):
            print(f"  {pos.address}  {render_element(tree.element_at(pos), texts)}")
        print(f"store slice: {origin_constraints(tree, union)}")
        if report.mode != "tree":
            print("program listing (slice bracketed):")
            print(highlight_listing(program, goal, [tree.phi[p] for p in union]), end="")


# ---------------------------------------------------------------------------
# stats

def _cmd_stats(args: argparse.Namespace) -> int:
    program = _read_program(args.program)
    with open(args.goals, encoding="utf-8") as handle:
        goal_lines = [line.strip() for line in handle if line.strip() and not line.strip().startswith("%")]

    rows = []
    for line in goal_lines:
        try:
            goal = parse_goal(line)
            solution = derive(program, goal, depth_limit=args.depth)[0]
        except (ClpSyntaxError, NonlinearityError, NoSolution) as exc:
            rows.append({"goal": line, "status": "failed", "error": str(exc)})
            continue
        except RecursionError:
            # a term nested too deeply fails this goal only; the rest
            # of the file still runs
            rows.append({"goal": line, "status": "failed", "error": "recursion limit exceeded"})
            continue
        tree = solution.tree
        argpos = sorted(tree.argument_positions)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = [compute_stats(tree, s)
                     for s in _slices(solution, argpos, args.undirected)[2]]
        rows.append({
            "goal": line,
            "status": "ok",
            "tree_nodes": tree.node_count(),
            "tree_argpos": len(argpos),
            "slices": len(argpos),
            "avg_node_pct": _mean([s.slice_node_pct for s in stats]),
            "avg_argpos_pct": _mean([s.slice_argpos_pct for s in stats]),
        })

    _print_stats_table(args.program, len(program.clauses), rows)
    if args.json:
        _write_atomic(args.json, json.dumps(
            {"program": args.program, "clauses": len(program.clauses), "rows": rows},
            indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _print_stats_table(program_name: str, clause_count: int, rows: list[dict]) -> None:
    print(f"program: {program_name}   clauses: {clause_count}")
    header = f"{'GOAL':<32} {'STATUS':<7} {'NODES':>6} {'ARG.POS.':>9} {'SLICES':>7} {'NODE%':>8} {'ARG.POS.%':>10}"
    print(header)
    ok_rows = [r for r in rows if r["status"] == "ok"]
    for r in rows:
        if r["status"] == "ok":
            print(f"{r['goal']:<32} {'ok':<7} {r['tree_nodes']:>6} {r['tree_argpos']:>9} "
                  f"{r['slices']:>7} {r['avg_node_pct']:>8.2f} {r['avg_argpos_pct']:>10.2f}")
        else:
            print(f"{r['goal']:<32} {'failed':<7}")
    if ok_rows:
        def mean(key: str) -> float:
            return _mean([r[key] for r in ok_rows])

        print(f"{'TOTAL':<32} {f'{len(ok_rows)}/{len(rows)}':<7} {mean('tree_nodes'):>6.1f} "
              f"{mean('tree_argpos'):>9.1f} {sum(r['slices'] for r in ok_rows):>7} "
              f"{mean('avg_node_pct'):>8.2f} {mean('avg_argpos_pct'):>10.2f}")


if __name__ == "__main__":
    sys.exit(main())
