"""Dependency graphs on tree and program positions, and slices as
backward reachability over them.

Four edge kinds connect positions:

* constraint edges: any two positions of one constraint occurrence;
* transition edges: positions of corresponding argument terms across a
  call boundary (a node equation in a tree; head atom vs. same-predicate
  body atom, argument-wise, in a program);
* functor edges: a compound term to each immediate argument;
* local edges: two occurrences of the same variable in one clause
  occurrence.

Edges over-approximate value flow, so the positions that reach a
position are a backward slice with respect to it.  ``DependencyGraph``
is the one graph type and ``DependencyGraph.reach`` the one slicing
routine: given input/output roles (``Annotation.io`` in
``clpslice.directional``) it refuses to cross a transition edge from an
input to an output or a local edge from an output to an input (the rule
``_blocked``, which the directed DOT output draws with too); given none
it returns the position's connected component.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

from .engine import DerivationTree
from .syntax import (
    Atom,
    Clause,
    Compound,
    ConstraintExpr,
    GOAL_CLAUSE,
    HEAD_LITERAL,
    Program,
    ProgramPosition,
    TreePosition,
    Variable,
    clause_positions,
    goal_positions,
    render_element,
    term_subpositions,
)

Position = ProgramPosition | TreePosition


class DepEdgeKind(Enum):
    CONSTRAINT = "constraint"
    TRANSITION = "transition"
    FUNCTOR = "functor"
    LOCAL = "local"


@dataclass(frozen=True)
class DepEdge:
    """An unordered edge; endpoints are stored in sorted order."""

    a: Position
    b: Position
    kind: DepEdgeKind

    @staticmethod
    def make(x: Position, y: Position, kind: DepEdgeKind) -> "DepEdge":
        return DepEdge(x, y, kind) if x <= y else DepEdge(y, x, kind)


class SliceKind(Enum):
    TREE = "tree"
    PROGRAM = "program"


@dataclass(frozen=True)
class Slice:
    kind: SliceKind
    positions: frozenset[Position]
    criterion: Position

    def __post_init__(self) -> None:
        if self.criterion not in self.positions:
            raise ValueError("slice must contain its criterion")


class IOKind(Enum):
    INPUT = "input"
    OUTPUT = "output"
    NEITHER = "neither"


def _blocked(kind: DepEdgeKind, source: IOKind, target: IOKind) -> bool:
    """Whether groundness forbids the arc ``source -> target`` of an edge:
    a transition arc may not run input -> output, a local arc not
    output -> input.  Every other arc is open."""
    if kind is DepEdgeKind.TRANSITION:
        return source is IOKind.INPUT and target is IOKind.OUTPUT
    if kind is DepEdgeKind.LOCAL:
        return source is IOKind.OUTPUT and target is IOKind.INPUT
    return False


class DependencyGraph:
    """Undirected position graph, indexed by incident edges."""

    def __init__(self, universe: Iterable[Position], edges: Iterable[DepEdge]):
        self.universe: frozenset[Position] = frozenset(universe)
        self.edges: frozenset[DepEdge] = frozenset(edges)
        self.incident: dict[Position, list[tuple[Position, DepEdgeKind]]] = {
            p: [] for p in self.universe
        }
        for e in self.edges:
            self.incident[e.a].append((e.b, e.kind))
            self.incident[e.b].append((e.a, e.kind))

    def reach(self, alpha: Position,
              io: Mapping[Position, IOKind] | None = None) -> frozenset[Position]:
        """Positions with a path to ``alpha``: an edge ``q -- pos`` is
        crossed backwards unless ``io`` blocks the arc ``q -> pos``.
        Without ``io`` nothing is blocked, so this is alpha's component."""
        if alpha not in self.universe:
            raise ValueError(f"foreign position: {alpha}")
        reached = {alpha}
        frontier = [alpha]
        while frontier:
            pos = frontier.pop()
            target = io.get(pos, IOKind.NEITHER) if io is not None else None
            for q, kind in self.incident[pos]:
                if q in reached:
                    continue
                if io is not None and _blocked(kind, io.get(q, IOKind.NEITHER), target):
                    continue
                reached.add(q)
                frontier.append(q)
        return frozenset(reached)

    def __repr__(self) -> str:
        return f"DependencyGraph({len(self.universe)} positions, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# Edge generation shared by tree- and program-level graphs

def _intra_clause_edges(clause: Clause, mk: Callable[[int, tuple[int, ...]], Position]) -> Iterator[DepEdge]:
    """Constraint, functor, and local edges within one clause occurrence."""
    var_occurrences: dict[str, list[Position]] = {}

    def note_var(pos: Position, elem: object) -> None:
        if isinstance(elem, Variable):
            var_occurrences.setdefault(elem.name, []).append(pos)

    for literal, path, elem in clause_positions(clause):
        pos = mk(literal, path)
        note_var(pos, elem)
        if isinstance(elem, Compound) and path and elem.args:
            item = clause.head if literal == HEAD_LITERAL else clause.body[literal - 1]
            if isinstance(item, Atom):  # arithmetic structure carries no functor edges
                for i in range(1, len(elem.args) + 1):
                    yield DepEdge.make(pos, mk(literal, (*path, i)), DepEdgeKind.FUNCTOR)

    for literal, item in _literals(clause):
        if isinstance(item, ConstraintExpr):
            group = [mk(literal, ())] + [
                mk(literal, (k,)) for k in range(1, len(item.occurrences()) + 1)
            ]
            for i, x in enumerate(group):
                for y in group[i + 1:]:
                    yield DepEdge.make(x, y, DepEdgeKind.CONSTRAINT)

    for positions in var_occurrences.values():
        for i, x in enumerate(positions):
            for y in positions[i + 1:]:
                yield DepEdge.make(x, y, DepEdgeKind.LOCAL)


def _literals(clause: Clause) -> Iterator[tuple[int, object]]:
    if clause.head is not None:
        yield HEAD_LITERAL, clause.head
    for k, item in enumerate(clause.body, start=1):
        yield k, item


def _argument_cross_edges(
    left: Atom, mk_left: Callable[[tuple[int, ...]], Position],
    right: Atom, mk_right: Callable[[tuple[int, ...]], Position],
) -> Iterator[DepEdge]:
    """Transition edges: every pair of positions drawn from corresponding
    argument terms of two same-predicate atoms."""
    for i, (la, ra) in enumerate(zip(left.args, right.args), start=1):
        lefts = [mk_left(path) for path, _ in term_subpositions(la, (i,))]
        rights = [mk_right(path) for path, _ in term_subpositions(ra, (i,))]
        for x in lefts:
            for y in rights:
                yield DepEdge.make(x, y, DepEdgeKind.TRANSITION)


# ---------------------------------------------------------------------------
# Builders

def tree_dep_graph(tree: DerivationTree) -> DependencyGraph:
    """The direct dependency graph of a derivation tree."""
    edges: list[DepEdge] = []
    for node in tree.skeleton.nodes:
        idx = node.index

        def mk(literal: int, path: tuple[int, ...], idx: int = idx) -> TreePosition:
            return TreePosition(idx, literal, path)

        edges.extend(_intra_clause_edges(node.label, mk))
    for node in tree.skeleton.nodes:
        for lit, child_idx in zip(node.label.call_literals(), node.children):
            if child_idx is None:
                continue
            atom = node.label.body[lit - 1]
            child = tree.skeleton.nodes[child_idx]
            head = child.label.head
            assert isinstance(atom, Atom) and head is not None
            edges.extend(
                _argument_cross_edges(
                    atom, lambda path, n=node.index, l=lit: TreePosition(n, l, path),
                    head, lambda path, c=child_idx: TreePosition(c, HEAD_LITERAL, path),
                )
            )
    return DependencyGraph(tree.pos_table.keys(), edges)


def program_dep_graph(program: Program, goal: Clause) -> DependencyGraph:
    """The direct dependency graph over program plus goal positions.

    Transition edges are context-insensitive: every head links to every
    same-predicate body atom, the goal's included.
    """
    if goal.head is not None:
        raise ValueError("expected a goal clause")
    universe: list[ProgramPosition] = list(program.position_table.keys())
    occurrences: list[tuple[int, Clause]] = [(ci, c) for ci, c in enumerate(program.clauses)]
    occurrences.append((GOAL_CLAUSE, goal))
    for literal, path, _ in clause_positions(goal):
        universe.append(ProgramPosition(GOAL_CLAUSE, literal, path))

    edges: list[DepEdge] = []
    for ci, clause in occurrences:
        def mk(literal: int, path: tuple[int, ...], ci: int = ci) -> ProgramPosition:
            return ProgramPosition(ci, literal, path)

        edges.extend(_intra_clause_edges(clause, mk))

    heads = [
        (ci, clause.head)
        for ci, clause in enumerate(program.clauses)
        if clause.head is not None
    ]
    for hi, head in heads:
        for ci, clause in occurrences:
            for lit, item in enumerate(clause.body, start=1):
                if isinstance(item, Atom) and item.indicator == head.indicator:
                    edges.extend(
                        _argument_cross_edges(
                            head, lambda path, h=hi: ProgramPosition(h, HEAD_LITERAL, path),
                            item, lambda path, c=ci, l=lit: ProgramPosition(c, l, path),
                        )
                    )
    return DependencyGraph(universe, edges)


# ---------------------------------------------------------------------------
# Slicing by reachability

def _warn_if_not_variable(elem: object) -> None:
    if not isinstance(elem, Variable):
        warnings.warn(
            "slicing criterion is not a variable position; the class of a "
            "constant or atom position is reported as-is",
            stacklevel=3,
        )


def tree_slice(tree: DerivationTree, alpha: TreePosition,
               graph: DependencyGraph | None = None) -> Slice:
    """Every tree position connected to alpha by dependency edges."""
    _warn_if_not_variable(tree.element_at(alpha))
    g = graph if graph is not None else tree_dep_graph(tree)
    return Slice(SliceKind.TREE, g.reach(alpha), alpha)


def program_slice(program: Program, goal: Clause, beta: ProgramPosition,
                  graph: DependencyGraph | None = None) -> Slice:
    """The static backward slice: every program position connected to beta."""
    g = graph if graph is not None else program_dep_graph(program, goal)
    if beta not in g.universe:
        raise ValueError(f"no such program position: {beta.address}")
    table: Mapping[ProgramPosition, object]
    if beta.clause == GOAL_CLAUSE:
        table = goal_positions(goal)
    else:
        table = program.position_table
    _warn_if_not_variable(table[beta])
    return Slice(SliceKind.PROGRAM, g.reach(beta), beta)


# ---------------------------------------------------------------------------
# DOT emission

def _dot_id(pos: Position) -> str:
    return '"' + pos.address + '"'


def _dot_nodes(header: str, graph: DependencyGraph, elements: Mapping[Position, object],
               slice_positions: frozenset[Position] | None, criterion: Position | None,
               suffix: Callable[[Position], str] = lambda pos: "") -> list[str]:
    """The opening lines of a DOT rendering: the ``header`` line and one
    node per position, labelled with its address, its element and
    ``suffix(pos)``; slice members are filled, the criterion doubly so."""
    lines = [f"{header} {{", '  node [shape=box, fontname="monospace"];']
    texts: dict[int, str] = {}
    for pos in sorted(graph.universe):
        attrs = [f'label="{pos.address}\\n{render_element(elements[pos], texts)}{suffix(pos)}"']
        if criterion is not None and pos == criterion:
            attrs.extend(("style=filled", "fillcolor=gold"))
        elif slice_positions is not None and pos in slice_positions:
            attrs.extend(("style=filled", "fillcolor=lightblue"))
        lines.append(f"  {_dot_id(pos)} [{', '.join(attrs)}];")
    return lines


def graph_to_dot(graph: DependencyGraph, elements: Mapping[Position, object],
                 slice_positions: frozenset[Position] | None = None,
                 criterion: Position | None = None) -> str:
    """Graphviz rendering; slice members are filled, the criterion doubly so."""
    lines = _dot_nodes("graph dependencies", graph, elements, slice_positions, criterion)
    for e in sorted(graph.edges, key=lambda e: (e.a, e.b, e.kind.value)):
        lines.append(f"  {_dot_id(e.a)} -- {_dot_id(e.b)} [label=\"{e.kind.value}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
