"""Differential test of ``DependencyGraph.reach``, the one slicing
routine, against references built here from ``graph.edges``: a plain
search over the arcs of ``orient`` for directional slices, and a
union-find over the edges for undirected ones."""

import random
import warnings

from clpslice import (
    NoSolution,
    annotate,
    corpus_path,
    derive,
    directional_slice,
    io_classes,
    orient,
    parse_goal,
    parse_program,
    program_dep_graph,
    program_slice,
    tree_dep_graph,
    tree_slice,
)
from clpslice.directional import all_dual
from genutil import random_program


def _cases():
    for clp in sorted(corpus_path().glob("*.clp")):
        program = parse_program(clp.read_text())
        for line in clp.with_suffix(".goals").read_text().splitlines():
            if line.strip() and not line.startswith("%"):
                yield program, parse_goal(line)
    for s in range(120):
        yield random_program(random.Random(s))


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
                arcs = orient(graph, io_classes(tree, annotation)).arcs
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
