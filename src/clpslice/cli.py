"""Command line front end.

Two subcommands:

* ``slice``: compute one backward slice of a proof tree (``--mode
  tree``), map it onto the program (``--mode dynamic``), or slice every
  instance of a program position and union the results (``--mode
  position``).
* ``stats``: slice every executed argument position of each goal in a
  goal file and tabulate average slice sizes.

Exit codes: 0 success, 1 usage or input error (including an oracle
domain that holds no solution of the store, and input that exhausts
Python's recursion limit, such as deeply nested parentheses in a
constraint; term depth alone does not), 2 no proof tree, 3 oracle
validation failure (with ``--oracle-domain``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

from .depgraph import (
    DependencyGraph,
    Slice,
    SliceKind,
    graph_to_dot,
    tree_dep_graph,
)
from .directional import (
    Annotation,
    all_dual,
    annotate,
    directed_to_dot,
    directional_slice,
)
from .engine import (
    NoSolution,
    Solution,
    derive,
    origin_constraints,
    phi_inverse,
    positions_to_store,
)
from .oracle import OracleDomainError, has_solution, is_slice
from .parser import ClpSyntaxError, NonlinearityError, parse_goal, parse_program
from .report import (
    SliceReport,
    SliceStats,
    compute_stats,
    emit_report,
    highlight_listing,
)
from .syntax import (
    AddressError,
    GOAL_CLAUSE,
    Program,
    ProgramPosition,
    TreePosition,
    Variable,
    goal_positions,
    parse_program_address,
    parse_tree_address,
    render_element,
)

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
    except _UsageError as exc:
        print(f"clpslice: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ClpSyntaxError, NonlinearityError, AddressError, OSError, ValueError) as exc:
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
        return int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"bad --oracle-domain {text!r}; expected LO..HI") from None


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".clpslice-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass
class _SolutionSlice:
    solution: Solution
    tree_slice: Slice
    graph: DependencyGraph
    annotation: Annotation


def _annotation(solution: Solution, undirected: bool) -> Annotation:
    """Observed groundness, or none at all under ``--undirected``, where
    a directional slice is the plain dependency component."""
    if undirected:
        return all_dual(solution.tree)
    return annotate(solution.tree, solution.log)


def _slice_solution(solution: Solution, criteria: list[TreePosition],
                    undirected: bool) -> _SolutionSlice | None:
    """The union of the criteria's slices, attributed to the first."""
    if not criteria:
        return None
    tree = solution.tree
    graph = tree_dep_graph(tree)
    annotation = _annotation(solution, undirected)
    union: frozenset[TreePosition] = frozenset()
    for alpha in criteria:
        union |= directional_slice(tree, annotation, alpha, graph).positions
    return _SolutionSlice(solution, Slice(SliceKind.TREE, union, criteria[0]),
                          graph, annotation)


def _cmd_slice(args: argparse.Namespace) -> int:
    program = _read_program(args.program)
    goal = parse_goal(args.goal)
    solutions = derive(program, goal, depth_limit=args.depth,
                       max_solutions=max(1, args.all_solutions))

    if args.mode in ("tree", "dynamic"):
        criterion_addr = parse_tree_address(args.at)
        sliced = [
            _slice_solution(sol, [criterion_addr], args.undirected) for sol in solutions
        ]
    else:
        q = parse_program_address(args.at)
        _validate_program_address(program, goal, q)
        sliced = []
        for sol in solutions:
            instances = sorted(phi_inverse(sol.tree, q))
            if not instances:
                warnings.warn(f"program position {q.address} has no instance in the proof tree")
            sliced.append(_slice_solution(sol, instances, args.undirected))

    reports = []
    tree_addresses: set[str] = set()
    program_addresses: set[str] = set()
    node_pcts: list[float] = []
    arg_pcts: list[float] = []
    stats0 = None
    for entry in sliced:
        if entry is None:
            continue
        positions = entry.tree_slice.positions
        tree_addresses |= {p.address for p in positions}
        stats = compute_stats(entry.solution.tree, positions)
        node_pcts.append(stats.slice_node_pct)
        arg_pcts.append(stats.slice_argpos_pct)
        if stats0 is None:
            stats0 = stats
        if args.mode in ("dynamic", "position"):
            program_addresses |= {
                entry.solution.tree.phi[p].address for p in positions
            }
        reports.append(entry)

    if stats0 is None:
        stats0 = compute_stats(solutions[0].tree, frozenset())
    stats = SliceStats(
        stats0.tree_node_count,
        stats0.tree_argpos_count,
        sum(node_pcts) / len(node_pcts) if node_pcts else 0.0,
        sum(arg_pcts) / len(arg_pcts) if arg_pcts else 0.0,
    )
    report = SliceReport(
        mode=args.mode,
        criterion=args.at,
        tree_positions=frozenset(tree_addresses),
        program_positions=frozenset(program_addresses),
        stats=stats,
        annotation_used=not args.undirected,
    )

    _print_slice(program, goal, reports, report)

    if args.json:
        _write_atomic(args.json, emit_report(
            report, goal=args.goal, program=args.program,
            log=solutions[0].log,
        ))
    if args.dot and reports:
        _write_atomic(args.dot, _render_dot(args, reports[0]))

    if args.oracle_domain:
        dom = _parse_domain(args.oracle_domain)
        verdict = _validate_slices(reports, dom)
        if verdict is False:
            print("clpslice: oracle validation FAILED", file=sys.stderr)
            return EXIT_ORACLE
        outcome = "ok" if verdict else "skipped (criterion is not a variable position)"
        print(f"oracle validation over {dom[0]}..{dom[1]}: {outcome}", file=sys.stderr)
    return EXIT_OK


def _validate_program_address(program: Program, goal, q: ProgramPosition) -> None:
    if q.clause == GOAL_CLAUSE:
        if q not in goal_positions(goal):
            raise AddressError(f"no such goal position: {q.address}")
    else:
        program.element_at(q)


def _render_dot(args: argparse.Namespace, entry: _SolutionSlice) -> str:
    tree = entry.solution.tree
    if args.undirected:
        return graph_to_dot(entry.graph, tree.pos_table,
                            entry.tree_slice.positions, entry.tree_slice.criterion)
    return directed_to_dot(entry.graph, tree.pos_table, entry.annotation,
                           entry.tree_slice.positions, entry.tree_slice.criterion)


def _validate_slices(entries: list[_SolutionSlice], dom: tuple[int, int]) -> bool | None:
    """Whether every slice keeps its criterion's solutions over the
    domain, or None when no criterion is a variable, so that no slice
    was checked.  A domain without any solution of a store can certify
    nothing, so it is an input error rather than a failed check."""
    ok = None
    for entry in entries:
        tree = entry.solution.tree
        criterion = entry.tree_slice.criterion
        elem = tree.element_at(criterion)
        if not isinstance(elem, Variable):
            warnings.warn("criterion is not a variable position; oracle check skipped")
            continue
        if not has_solution(tree.store, dom):
            raise OracleDomainError(
                f"oracle domain {dom[0]}..{dom[1]} holds no solution of the store")
        subset = positions_to_store(tree, entry.tree_slice.positions)
        if not is_slice(tree.store, subset, elem.name, dom):
            ok = False
        elif ok is None:
            ok = True
    return ok


def _print_slice(program: Program, goal, entries, report: SliceReport) -> None:
    print(f"mode: {report.mode}   criterion: {report.criterion}   "
          f"annotation: {'on' if report.annotation_used else 'off'}")
    print(f"tree: {report.stats.tree_node_count} nodes, "
          f"{report.stats.tree_argpos_count} argument positions")
    print(f"slice: {report.stats.slice_node_pct:.2f}% of nodes, "
          f"{report.stats.slice_argpos_pct:.2f}% of argument positions")
    entry = entries[0] if entries else None
    if entry is not None:
        tree = entry.solution.tree
        print("tree positions:")
        texts: dict[int, str] = {}
        for pos in sorted(entry.tree_slice.positions):
            print(f"  {pos.address}  {render_element(tree.element_at(pos), texts)}")
        store = origin_constraints(tree, entry.tree_slice.positions)
        print(f"store slice: {store}")
    if report.mode in ("dynamic", "position") and entry is not None:
        positions = [
            entry.solution.tree.phi[p] for p in entry.tree_slice.positions
        ]
        print("program listing (slice bracketed):")
        print(highlight_listing(program, goal, positions), end="")


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
        graph = tree_dep_graph(tree)
        io = _annotation(solution, args.undirected).io
        argpos = sorted(tree.argument_positions)
        node_pcts: list[float] = []
        arg_pcts: list[float] = []
        for pos in argpos:
            stats = compute_stats(tree, graph.reach(pos, io))
            node_pcts.append(stats.slice_node_pct)
            arg_pcts.append(stats.slice_argpos_pct)
        rows.append({
            "goal": line,
            "status": "ok",
            "tree_nodes": tree.node_count(),
            "tree_argpos": len(argpos),
            "slices": len(argpos),
            "avg_node_pct": sum(node_pcts) / len(node_pcts) if node_pcts else 0.0,
            "avg_argpos_pct": sum(arg_pcts) / len(arg_pcts) if arg_pcts else 0.0,
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
        n = len(ok_rows)
        print(f"{'TOTAL':<32} {f'{n}/{len(rows)}':<7} "
              f"{sum(r['tree_nodes'] for r in ok_rows) / n:>6.1f} "
              f"{sum(r['tree_argpos'] for r in ok_rows) / n:>9.1f} "
              f"{sum(r['slices'] for r in ok_rows):>7} "
              f"{sum(r['avg_node_pct'] for r in ok_rows) / n:>8.2f} "
              f"{sum(r['avg_argpos_pct'] for r in ok_rows) / n:>10.2f}")


if __name__ == "__main__":
    sys.exit(main())
