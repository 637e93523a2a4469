"""Slice reports: size statistics, JSON round-tripping, and the
highlighted program listing."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .engine import DerivationTree, GroundnessLog
from .syntax import (
    Clause,
    GOAL_CLAUSE,
    Program,
    ProgramPosition,
    TreePosition,
    render_clause,
)


@dataclass(frozen=True)
class SliceStats:
    tree_node_count: int
    tree_argpos_count: int
    slice_node_pct: float
    slice_argpos_pct: float


@dataclass(frozen=True)
class SliceReport:
    mode: str  # "tree" | "dynamic" | "position"
    criterion: str
    tree_positions: frozenset[str]
    program_positions: frozenset[str]
    stats: SliceStats
    annotation_used: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "criterion": self.criterion,
            "tree_positions": sorted(self.tree_positions),
            "program_positions": sorted(self.program_positions),
            "stats": {
                "tree_node_count": self.stats.tree_node_count,
                "tree_argpos_count": self.stats.tree_argpos_count,
                "slice_node_pct": self.stats.slice_node_pct,
                "slice_argpos_pct": self.stats.slice_argpos_pct,
            },
            "annotation_used": self.annotation_used,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SliceReport":
        stats = data["stats"]
        return cls(
            mode=data["mode"],
            criterion=data["criterion"],
            tree_positions=frozenset(data["tree_positions"]),
            program_positions=frozenset(data["program_positions"]),
            stats=SliceStats(
                tree_node_count=stats["tree_node_count"],
                tree_argpos_count=stats["tree_argpos_count"],
                slice_node_pct=stats["slice_node_pct"],
                slice_argpos_pct=stats["slice_argpos_pct"],
            ),
            annotation_used=data["annotation_used"],
        )


def argument_positions(tree: DerivationTree) -> frozenset[TreePosition]:
    """The tree's executed argument positions (``DerivationTree.argument_positions``).

    It stays, though ``src/`` never calls it, because the benchmark's
    ``criteria-sweep`` workload (``perfbench/workloads.py``) does."""
    return tree.argument_positions


def compute_stats(tree: DerivationTree, slice_positions: Iterable[TreePosition]) -> SliceStats:
    positions = set(slice_positions)
    nodes_touched = {p.node for p in positions}
    argpos = tree.argument_positions
    node_count = tree.node_count()
    node_pct = 100 * Fraction(len(nodes_touched), node_count) if node_count else Fraction(0)
    arg_pct = (
        100 * Fraction(len(positions & argpos), len(argpos)) if argpos else Fraction(0)
    )
    return SliceStats(node_count, len(argpos), float(node_pct), float(arg_pct))


def log_to_json(log: GroundnessLog) -> list[dict]:
    return [
        {
            "event": e.kind,
            "node": e.node,
            "literal": e.literal,
            "ground": sorted(p.address for p in e.ground),
        }
        for e in log.events
    ]


def emit_report(report: SliceReport, *, goal: str | None = None,
                program: str | None = None, log: GroundnessLog | None = None) -> str:
    payload = report.to_dict()
    meta = {}
    if goal is not None:
        meta["goal"] = goal
    if program is not None:
        meta["program"] = program
    if meta:
        payload["meta"] = meta
    if log is not None:
        payload["groundness_log"] = log_to_json(log)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_report(text: str) -> SliceReport:
    return SliceReport.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Highlighted listing

def render_marked_clause(clause: Clause, marked_paths: dict[int, set[tuple[int, ...]]]) -> str:
    """The clause with the element at every marked (literal, path) bracketed."""
    return render_clause(
        clause, lambda lit, path, s: f"[{s}]" if path in marked_paths.get(lit, ()) else s)


def highlight_listing(program: Program, goal: Clause,
                      positions: Iterable[ProgramPosition]) -> str:
    """The program plus goal with every sliced fragment bracketed."""
    by_clause: dict[int, dict[int, set[tuple[int, ...]]]] = {}
    for pos in positions:
        by_clause.setdefault(pos.clause, {}).setdefault(pos.literal, set()).add(pos.path)
    lines = [
        render_marked_clause(clause, by_clause.get(ci, {}))
        for ci, clause in enumerate(program.clauses)
    ]
    lines.append(render_marked_clause(goal, by_clause.get(GOAL_CLAUSE, {})))
    return "\n".join(lines) + "\n"
