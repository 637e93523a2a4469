"""Groundness annotations, their input/output roles, and directed
dependency slicing.

An annotation marks each position Inherited (ground at call),
Synthesized (ground at success), or Dual (no information).  Combined
with head/body placement this gives each position an Input or Output
role (``Annotation.io``, computed once per annotation), which orients
transition and local edges; everything else stays bidirectional.  A
directional slice is the set of positions that reach the criterion
along the oriented edges (``DependencyGraph.reach`` with those roles),
usually smaller than its undirected component; under the all-Dual
annotation nothing is oriented and the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

from .depgraph import (
    DependencyGraph,
    IOKind,
    Slice,
    SliceKind,
    _blocked,
    _dot_id,
    _dot_nodes,
    _warn_if_not_variable,
    tree_dep_graph,
)
from .engine import GroundnessLog, ProofTree
from .syntax import HEAD_LITERAL, TreePosition


class Annot(Enum):
    INHERITED = "inherited"
    SYNTHESIZED = "synthesized"
    DUAL = "dual"


@dataclass(frozen=True)
class Annotation:
    positions: Mapping[TreePosition, Annot]

    def of(self, pos: TreePosition) -> Annot:
        return self.positions.get(pos, Annot.DUAL)

    @cached_property
    def io(self) -> dict[TreePosition, IOKind]:
        """Input/Output roles: inherited head or synthesized body positions
        are inputs; synthesized head or inherited body positions outputs.
        The goal clause counts as body.  Dual positions, and positions
        the annotation does not mention, are neither."""
        out = {}
        for pos, annot in self.positions.items():
            if annot is Annot.DUAL or not pos.path:
                out[pos] = IOKind.NEITHER
            elif (annot is Annot.INHERITED) == (pos.literal == HEAD_LITERAL):
                out[pos] = IOKind.INPUT
            else:
                out[pos] = IOKind.OUTPUT
        return out


def annotate(tree: ProofTree, log: GroundnessLog) -> Annotation:
    """Annotation induced by the observed groundness: ground at call
    beats ground at success; everything unobserved is Dual."""
    for event in log.events:
        if event.node >= len(tree.skeleton.nodes):
            raise ValueError("groundness log does not match tree: unknown node")
        for pos in event.ground:
            if pos not in tree.pos_table:
                raise ValueError(f"groundness log does not match tree: {pos.address}")
    call = log.call_ground()
    success = log.success_ground()
    positions = {}
    for pos in tree.pos_table:
        if pos in call:
            positions[pos] = Annot.INHERITED
        elif pos in success:
            positions[pos] = Annot.SYNTHESIZED
        else:
            positions[pos] = Annot.DUAL
    return Annotation(positions)


def all_dual(tree: ProofTree) -> Annotation:
    """The trivial annotation; orients nothing."""
    return Annotation({pos: Annot.DUAL for pos in tree.pos_table})


def directional_slice(tree: ProofTree, annotation: Annotation, alpha: TreePosition,
                      graph: DependencyGraph | None = None) -> Slice:
    """Backward reachability to alpha in the directed dependency graph."""
    _warn_if_not_variable(tree.element_at(alpha))
    base = graph if graph is not None else tree_dep_graph(tree)
    return Slice(SliceKind.TREE, base.reach(alpha, annotation.io), alpha)


# ---------------------------------------------------------------------------
# DOT emission

_ANNOT_SUFFIX = {Annot.INHERITED: "v", Annot.SYNTHESIZED: "^", Annot.DUAL: "<->"}


def directed_to_dot(graph: DependencyGraph, elements: Mapping[TreePosition, object],
                    annotation: Annotation,
                    slice_positions: frozenset[TreePosition] | None = None,
                    criterion: TreePosition | None = None) -> str:
    """Graphviz rendering of the graph oriented by the annotation's roles:
    an edge yields each arc that ``depgraph._blocked`` leaves open, the
    rule ``reach`` follows.  One-directional arcs get arrowheads, mutual
    pairs a single double-headed edge; labels carry annotation marks."""
    io = annotation.io
    arcs: set[tuple[TreePosition, TreePosition]] = set()
    for e in graph.edges:
        ka, kb = io.get(e.a, IOKind.NEITHER), io.get(e.b, IOKind.NEITHER)
        if not _blocked(e.kind, ka, kb):
            arcs.add((e.a, e.b))
        if not _blocked(e.kind, kb, ka):
            arcs.add((e.b, e.a))
    lines = _dot_nodes("digraph directed_dependencies", graph, elements, slice_positions,
                       criterion, lambda pos: f" {_ANNOT_SUFFIX[annotation.of(pos)]}")
    for a, b in sorted(arcs):
        if (b, a) not in arcs:
            lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
        elif a <= b:
            lines.append(f"  {_dot_id(a)} -> {_dot_id(b)} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"
