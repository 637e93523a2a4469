"""The in-process workloads: derive-forward, derive-backtrack and
criteria-sweep.

A workload builds its inputs from a seed in ``setup`` (timed as
``setup_s``), runs one op in ``run`` (the only timed call of the loop)
and checks the op's output in ``check``, outside the timed region.
Every cycle of ops is a seeded permutation of a fixed ladder of sizes,
so every seed runs the same mix of work and the figures stay steady
from seed to seed.  The seed picks the order, the mortgage principals
and balances, the non-triangular sums, and the oracle-checked criteria.

clpslice is reached through module attributes at call time (for
example ``engine.derive``), so the tracer's wrappers are seen.  Import
this module only after ``run.import_checkout``.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from clpslice import constraints, depgraph, directional, engine, oracle, parser, report
from clpslice.syntax import Compound, NumberLiteral, Variable

import families as fam
from families import Expected, Peano

# Ladders: sizes are chosen so that an op averages 0.2 to 0.3 s and none
# takes more than about 1 s (2-vCPU x86-64 VM, CPython 3.11).  The median
# op of whole cycles falls inside one rung's group rather than between
# two: a cycle holds an odd number of ops, or its middle two ops are the
# two copies of one rung.  derive-forward runs fib/5 twice, so that its
# cycle holds 20 ops and derive-backtrack's 25: a run needs at least 100
# ops, and a cycle that overshoots them only makes the run longer.
FORWARD_LADDER = {
    "sum": (4, 8, 12, 17, 20),
    "mortgage": (4, 8, 12, 17, 20),
    "fib": (3, 4, 5, 5, 6),
    "add": (4, 10, 18, 28, 36),
}

BACKTRACK_LADDER = {
    "sum-rev": (6, 10, 15, 20),
    "sum-depth": (5, 9, 13, 17, 21),
    "fib-rev": (3, 4, 5, 6),
    "mortgage-rev": (5, 10, 15, 20),
    "add-enum": (10, 14, 18, 22),
    "add-odd": (5, 10, 14, 18),
}

SWEEP_LADDER = {
    "sum": (8, 12),
    "fib": (4, 5),
    "mortgage": (6, 10),
    "add": (8, 14, 18),
}

# add/14 and add/18 are swept twice per cycle, so that of the 11 ops of
# a cycle the median falls in the middle of the add/14 pair (next to
# fib/5 and sum/12, which cost about as much) and the 90th percentile in
# the middle of the add/18 pair, the costliest ops, rather than on the
# edge between them and the much cheaper mortgage/10.
SWEEP_COPIES = {("add", 14): 2, ("add", 18): 2}

# Trees small and integral enough for the enumeration oracle, and how
# many of their criteria each run certifies.
ORACLE_TREES = {("sum", 8), ("fib", 4), ("fib", 5)}
ORACLE_SAMPLE = 2


class CheckFailure(Exception):
    """An op returned a wrong answer."""


@dataclass(frozen=True)
class Op:
    label: str
    family: str | None
    payload: tuple
    sweep: bool = False


# ---------------------------------------------------------------------------
# Output checks


def _peano_depth(term) -> int | None:
    depth = 0
    while isinstance(term, Compound) and term.functor == "s" and len(term.args) == 1:
        term = term.args[0]
        depth += 1
    if isinstance(term, Compound) and term.functor == "z" and not term.args:
        return depth
    return None


def _matches(term, want) -> bool:
    if isinstance(want, Peano):
        return _peano_depth(term) == want.k
    return isinstance(term, NumberLiteral) and term.value == want


def _describe(result) -> str:
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return f"{len(result)} solution(s)"


def check_derive(result, expected: Expected) -> None:
    if expected.error is not None:
        if not isinstance(result, engine.NoSolution):
            raise CheckFailure(f"expected NoSolution, got {_describe(result)}")
        if str(result) != expected.error:
            raise CheckFailure(f"NoSolution says {str(result)!r}, expected {expected.error!r}")
        return
    if isinstance(result, BaseException):
        raise CheckFailure(f"raised {_describe(result)}")
    if len(result) != len(expected.solutions):
        raise CheckFailure(f"{len(result)} solutions, expected {len(expected.solutions)}")
    for i, (solution, (nodes, values)) in enumerate(zip(result, expected.solutions)):
        tree = solution.tree
        if not tree.is_proof_tree:
            raise CheckFailure(f"solution {i} is not a proof tree")
        if tree.node_count() != nodes:
            raise CheckFailure(f"solution {i} has {tree.node_count()} nodes, expected {nodes}")
        solved = constraints.satisfiable(tree.store)
        if not solved.is_sat:
            raise CheckFailure(f"solution {i}: proof-tree store is unsatisfiable")
        for var, want in values.items():
            got = solved.resolve_term(Variable(var))
            if not _matches(got, want):
                raise CheckFailure(f"solution {i}: {var} = {got}, expected {want}")


# ---------------------------------------------------------------------------
# derive-forward and derive-backtrack


class _DeriveWorkload:
    def setup(self, seed: int):
        rng = random.Random(f"{seed}/inputs")
        programs = {name: parser.parse_program(text) for name, text in fam.PROGRAMS.items()}
        ops = []
        for family, sizes in self.ladder.items():
            for size in sizes:
                program, goal, kwargs, expected = self.goal(family, size, rng)
                ops.append(Op(f"{family}/{size}: {goal}", family,
                              (programs[program], parser.parse_goal(goal), kwargs, expected)))
        return ops

    def cycle(self, ops, rng: random.Random) -> list[Op]:
        return rng.sample(ops, len(ops))

    def run(self, ops, op: Op):
        program, goal, kwargs, _ = op.payload
        return engine.derive(program, goal, **kwargs)

    def check(self, ops, op: Op, result) -> None:
        check_derive(result, op.payload[3])

    def close(self, ops) -> None:
        pass


class DeriveForward(_DeriveWorkload):
    """Forward-mode goals of growing size; one op is one derive call."""

    ladder = FORWARD_LADDER

    def goal(self, family: str, size: int, rng: random.Random):
        if family == "sum":
            return "sum", f"sum({size}, S).", {}, Expected(
                solutions=((fam.sum_nodes(size), {"S": fam.triangular(size)}),))
        if family == "fib":
            return "fib", f"fib({size}, F).", {}, Expected(
                solutions=((fam.fib_nodes(size), {"F": fam.fib(size)}),))
        if family == "mortgage":
            p = fam.random_principal(rng)
            return "mortgage", f"mortgage({fam.number(p)}, {size}, B).", {}, Expected(
                solutions=((fam.mortgage_nodes(size), {"B": fam.mortgage_balance(p, size)}),))
        b = rng.randint(1, 5)
        return "add", f"add({fam.peano(size)}, {fam.peano(b)}, Z).", {}, Expected(
            solutions=((fam.add_nodes(size), {"Z": Peano(size + b)}),))


class DeriveBacktrack(_DeriveWorkload):
    """Reverse-mode, unsolvable and all-solutions goals, where failed
    alternatives, unsat prunes and NoSolution dominate."""

    ladder = BACKTRACK_LADDER

    def goal(self, family: str, size: int, rng: random.Random):
        if family == "sum-rev":
            return "sum", f"sum(N, {fam.triangular(size)}).", {}, Expected(
                solutions=((fam.sum_nodes(size), {"N": size}),))
        if family == "sum-depth":
            triangular = {fam.triangular(n) for n in range(40)}
            target = rng.choice([t for t in range(2, 300) if t not in triangular])
            return "sum", f"sum(N, {target}).", {"depth_limit": size}, Expected(
                error=fam.DEPTH_EXCEEDED)
        if family == "fib-rev":
            return "fib", f"fib(N, {fam.fib(size)}).", {}, Expected(
                solutions=((fam.fib_nodes(size), {"N": size}),))
        if family == "mortgage-rev":
            balance = fam.random_principal(rng)
            return "mortgage", f"mortgage(P, {size}, {fam.number(balance)}).", {}, Expected(
                solutions=((fam.mortgage_nodes(size),
                            {"P": fam.mortgage_principal(balance, size)}),))
        if family == "add-enum":
            return "add", f"add(X, Y, {fam.peano(size)}).", {"max_solutions": None}, Expected(
                solutions=tuple((fam.add_nodes(i), {"X": Peano(i), "Y": Peano(size - i)})
                                for i in range(size + 1)))
        return "add", f"add(X, X, {fam.peano(2 * size + 1)}).", {}, Expected(
            error=fam.NO_PROOF)


# ---------------------------------------------------------------------------
# criteria-sweep


@dataclass
class SweepTree:
    family: str
    size: int
    solution: object
    checked: list  # (criterion, directional slice) pairs of the first op


class CriteriaSweep:
    """Every argument position of one set-up proof tree is sliced
    directionally and undirected, with stats, plus one position-mode
    union per clause position; no derivation is timed."""

    def setup(self, seed: int):
        trees = []
        for family, sizes in SWEEP_LADDER.items():
            program = parser.parse_program(fam.PROGRAMS[family])
            rng = random.Random(f"{seed}/inputs/{family}")
            for size in sizes:
                _, goal, _, _ = DeriveForward().goal(family, size, rng)
                solution = engine.derive(program, parser.parse_goal(goal))[0]
                trees.append(SweepTree(family, size, solution, []))
        return trees

    def cycle(self, trees, rng: random.Random) -> list[Op]:
        ops = [Op(f"sweep {t.family}/{t.size}", t.family, (i,), sweep=True)
               for i, t in enumerate(trees)
               for _ in range(SWEEP_COPIES.get((t.family, t.size), 1))]
        return rng.sample(ops, len(ops))

    def run(self, trees, op: Op):
        solution = trees[op.payload[0]].solution
        tree = solution.tree
        with warnings.catch_warnings():
            # constant and compound criteria warn; the stats command
            # silences them the same way
            warnings.simplefilter("ignore")
            graph = depgraph.tree_dep_graph(tree)
            annotation = directional.annotate(tree, solution.log)
            criteria = sorted(report.argument_positions(tree))
            slices = []
            for alpha in criteria:
                directed = directional.directional_slice(tree, annotation, alpha, graph)
                plain = depgraph.tree_slice(tree, alpha, graph)
                slices.append((alpha, directed.positions, plain.positions,
                               report.compute_stats(tree, directed.positions),
                               report.compute_stats(tree, plain.positions)))
            unions = []
            for q in sorted({tree.phi[alpha] for alpha in criteria}):
                instances = engine.phi_inverse(tree, q)
                union: frozenset = frozenset()
                for inst in sorted(instances):
                    union |= directional.directional_slice(tree, annotation, inst, graph).positions
                unions.append((q, instances, union))
        return slices, unions

    def check(self, trees, op: Op, result) -> None:
        if isinstance(result, BaseException):
            raise CheckFailure(f"raised {_describe(result)}")
        entry = trees[op.payload[0]]
        tree = entry.solution.tree
        nodes, argpos = fam.shape(entry.family, entry.size)
        slices, unions = result
        if tree.node_count() != nodes:
            raise CheckFailure(f"tree has {tree.node_count()} nodes, expected {nodes}")
        if len(slices) != argpos:
            raise CheckFailure(f"{len(slices)} criteria swept, expected {argpos}")
        by_criterion = {}
        for alpha, directed, plain, directed_stats, plain_stats in slices:
            if alpha not in directed or alpha not in plain:
                raise CheckFailure(f"slice of {alpha.address} lacks its criterion")
            if not directed <= plain:
                raise CheckFailure(f"directional slice of {alpha.address} is not "
                                   "inside its undirected slice")
            for stats, positions in ((directed_stats, directed), (plain_stats, plain)):
                touched = len({p.node for p in positions})
                if (stats.tree_node_count, stats.tree_argpos_count) != (nodes, argpos):
                    raise CheckFailure(f"stats of {alpha.address} count "
                                       f"{stats.tree_node_count}/{stats.tree_argpos_count}")
                if abs(stats.slice_node_pct - 100 * touched / nodes) > 1e-9:
                    raise CheckFailure(f"node % of {alpha.address} is {stats.slice_node_pct}")
                if not 0 < stats.slice_argpos_pct <= 100:
                    raise CheckFailure(f"argument % of {alpha.address} out of range")
            by_criterion[alpha] = directed
        for q, instances, union in unions:
            wanted = {alpha for alpha in by_criterion if tree.phi[alpha] == q}
            if set(instances) != wanted:
                raise CheckFailure(f"phi_inverse({q.address}) misses or adds instances")
            if union != frozenset().union(*(by_criterion[a] for a in wanted)):
                raise CheckFailure(f"position union of {q.address} differs from its slices")
        if not entry.checked:
            entry.checked.extend((alpha, directed) for alpha, directed, *_ in slices)

    def certify(self, trees, seed: int) -> list[tuple[str, str]]:
        """Certify a seeded sample of directional slices of the small
        integral trees with the enumeration oracle; returns failures as
        (tree label, message).  Runs after the timed loop."""
        rng = random.Random(f"{seed}/oracle")
        failures = []
        for entry in trees:
            if (entry.family, entry.size) not in ORACLE_TREES or not entry.checked:
                continue
            tree = entry.solution.tree
            candidates = [(alpha, positions) for alpha, positions in entry.checked
                          if isinstance(tree.element_at(alpha), Variable)]
            box = (-1, fam.value_bound(entry.family, entry.size) + 1)
            for alpha, positions in rng.sample(candidates, ORACLE_SAMPLE):
                var = tree.element_at(alpha).name
                subset = engine.positions_to_store(tree, positions)
                if not oracle.is_slice(tree.store, subset, var, box):
                    failures.append((f"sweep {entry.family}/{entry.size}",
                                     f"oracle rejects the slice of {alpha.address} over {box}"))
        return failures

    def close(self, trees) -> None:
        pass
