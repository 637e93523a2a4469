"""Differential test of ``DependencyGraph.reach``, the one slicing
routine, and of the arcs of the directed DOT output, against
references built here from ``graph.edges``: the input/output roles and
the orientation of each edge, written out again, with a plain search
over those arcs for directional slices, and a union-find over the
edges for undirected ones."""

import random
import warnings

from clpslice import (
    DepEdgeKind,
    NoSolution,
    annotate,
    corpus_path,
    derive,
    directed_to_dot,
    directional_slice,
    parse_goal,
    parse_program,
    program_dep_graph,
    program_slice,
    tree_dep_graph,
    tree_slice,
)
from clpslice.directional import Annot, all_dual
from clpslice.syntax import HEAD_LITERAL
from conftest import dot_arcs
from genutil import random_program


def _cases():
    for clp in sorted(corpus_path().glob("*.clp")):
        program = parse_program(clp.read_text())
        for line in clp.with_suffix(".goals").read_text().splitlines():
            if line.strip() and not line.startswith("%"):
                yield program, parse_goal(line)
    for s in range(120):
        yield random_program(random.Random(s))


def _roles(annotation):
    """Input/output role of every annotated argument position: ground at
    call is an input in a head and an output in a body (the goal clause
    counts as body), ground at success the reverse."""
    roles = {}
    for pos, annot in annotation.positions.items():
        if annot is Annot.DUAL or not pos.path:
            continue
        at_head = pos.literal == HEAD_LITERAL
        if annot is Annot.INHERITED:
            roles[pos] = "in" if at_head else "out"
        else:
            roles[pos] = "out" if at_head else "in"
    return roles


def orient(graph, roles):
    """Both arcs of every edge, except that a transition edge never runs
    input -> output and a local edge never output -> input."""
    forbidden = {DepEdgeKind.TRANSITION: ("in", "out"), DepEdgeKind.LOCAL: ("out", "in")}
    arcs = set()
    for e in graph.edges:
        for a, b in ((e.a, e.b), (e.b, e.a)):
            if forbidden.get(e.kind) != (roles.get(a), roles.get(b)):
                arcs.add((a, b))
    return frozenset(arcs)


def _backward_closure(arcs, alpha):
    pred = {}
    for a, b in arcs:
        pred.setdefault(b, []).append(a)
    reached, frontier = {alpha}, [alpha]
    while frontier:
        for p in pred.get(frontier.pop(), ()):
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    return frozenset(reached)


def _components(graph):
    parent = {p: p for p in graph.universe}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in graph.edges:
        parent[find(e.a)] = find(e.b)
    groups = {}
    for p in graph.universe:
        groups.setdefault(find(p), set()).add(p)
    return {p: frozenset(groups[find(p)]) for p in graph.universe}


def test_reach_matches_orient_and_components():
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, goal in _cases():
            try:
                solutions = derive(program, goal, max_solutions=2)
            except NoSolution:
                continue
            for solution in solutions:
                tree = solution.tree
                graph = tree_dep_graph(tree)
                annotation = annotate(tree, solution.log)
                arcs = orient(graph, _roles(annotation))
                dot = directed_to_dot(graph, tree.pos_table, annotation)
                assert dot_arcs(dot) == arcs
                component = _components(graph)
                dual = all_dual(tree)
                for alpha in tree.pos_table:
                    directed = directional_slice(tree, annotation, alpha, graph)
                    assert directed.positions == _backward_closure(arcs, alpha), alpha
                    assert tree_slice(tree, alpha, graph).positions == component[alpha]
                    undirected = directional_slice(tree, dual, alpha, graph)
                    assert undirected.positions == component[alpha]
                    checked += 1
            pgraph = program_dep_graph(program, goal)
            pcomponent = _components(pgraph)
            for beta in pgraph.universe:
                assert program_slice(program, goal, beta, pgraph).positions == pcomponent[beta]
    assert checked > 2000
