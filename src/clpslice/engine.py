"""Derivation and proof trees by SLD resolution over constraint stores.

A skeleton is an ordered tree of renamed clauses rooted at a goal; its
constraint set joins every clause constraint with one argument-passing
equation per (body atom, child head) pair.  ``derive`` searches with
leftmost selection, textual clause order, and chronological backtracking,
pruning any branch whose store goes unsatisfiable.

The search is one loop over a stack of choice points, as in Warren's
Abstract Machine, so no Python recursion limit caps a tree's size.  Its
state is an append-only list of immutable nodes, each linked to its
parent and the call literal it answers, plus a list of events.  A call
pushes one choice point per matching clause, holding the rest of the
agenda, the caller's ``SolvedState`` (see ``constraints``) and the
lengths of the node and event lists; resuming one only truncates both
lists to those lengths.  A skeleton is built from the parent links,
once per returned tree.  A branch's store is never re-solved from
scratch: each agenda step extends the current state by what it adds,
one body constraint for a post and the edge equations for a call, and
extension never changes the state it starts from.

``NoSolution`` carries the largest satisfiable partial skeleton, the
earliest among equals, as a copy of the node list.  Until the first
solution, each attached node makes the current prefix of the node list
a candidate, recorded as its node count on a stack that backtracking
cuts back with the nodes; recording checks nothing.  When backtracking
drops candidates, and when the search ends with no solution, they are
judged largest first, and judging stops at the first that is
satisfiable and larger than the deepest tree so far.  A candidate is
judged by solving its nodes' edge equations and clause constraints from
scratch, so no solver state is kept per candidate.  Along one branch
candidate sizes strictly increase, so an earlier candidate is always
dropped before a later one of the same size exists.  A derivation
that reaches its first solution without backtracking judges nothing.

While searching, the engine logs groundness observations that later
drive directional slicing:

* call events: when a node is attached, which argument positions of the
  new edge are already ground, judged through the caller's instantiated
  arguments just before the edge equations exist;
* post events: when a body constraint is posted, which of its variable
  occurrences were already pinned by the store built so far;
* success events: when a subtree completes, which of its boundary and
  constraint positions are pinned by the subtree's own contribution
  (its clauses' constraints, its internal and boundary equations, and
  the values its caller had already fixed at call time).

Success groundness is judged against that subtree-local store rather
than the global one so that a value pinned only by the interplay of
caller and callee constraints is attributed to neither side.  The
local state of a completed node is cached by node index, with the end
of its subtree, and built by extending its first child's cached state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .constraints import (
    ConstraintStore,
    NumericConstraint,
    SolvedState,
    StoreConstraint,
    TermEquation,
)
from .syntax import (
    Atom,
    Clause,
    ConstraintExpr,
    GOAL_CLAUSE,
    HEAD_LITERAL,
    Program,
    ProgramPosition,
    TreePosition,
    Variable,
    clause_positions,
    ground_paths,
    rename_clause,
    vars_of,
    vars_of_term,
)

DEFAULT_DEPTH_LIMIT = 64


class NoSolution(Exception):
    """No proof tree within the limits.

    Carries the deepest derivation tree encountered (largest satisfiable
    partial skeleton), when one exists, for inspection.
    """

    def __init__(self, message: str, deepest: "DerivationTree | None" = None):
        super().__init__(message)
        self.deepest = deepest


@dataclass(frozen=True)
class SkelNode:
    """One node of a skeleton: a renamed clause at a tree position.

    ``children`` is aligned with the node's call literals, in body
    order; None marks an incomplete child.
    """

    index: int
    clause: int  # program clause ordinal, or GOAL_CLAUSE at the root
    label: Clause
    parent: int | None
    parent_literal: int | None
    children: tuple[int | None, ...]


@dataclass(frozen=True)
class Skeleton:
    nodes: tuple[SkelNode, ...]

    @property
    def root(self) -> SkelNode:
        return self.nodes[0]

    @property
    def is_complete(self) -> bool:
        return all(None not in n.children for n in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def constraints_of(skeleton: Skeleton) -> ConstraintStore:
    """The constraint set of a skeleton: all clause constraints plus one
    equation per corresponding argument pair along each complete edge.

    Syntactically trivial equations (identical terms on both sides) are
    dropped.  No equation is created below an incomplete child.  Raises
    ValueError if a child's head does not match its body atom.
    """
    out: list[StoreConstraint] = []
    for node in skeleton.nodes:
        for lit, item in enumerate(node.label.body, start=1):
            if isinstance(item, ConstraintExpr):
                out.append(
                    NumericConstraint(item, frozenset((TreePosition(node.index, lit, ()),)))
                )
        for lit, child_idx in zip(node.label.call_literals(), node.children):
            if child_idx is None:
                continue
            atom = node.label.body[lit - 1]
            child = skeleton.nodes[child_idx]
            head = child.label.head
            if head is None or head.indicator != atom.indicator:
                raise ValueError(
                    f"malformed skeleton: node {child_idx} does not answer "
                    f"{atom.pred}/{len(atom.args)}"
                )
            out.extend(_edge_equations(node.index, lit, atom, child_idx, head))
    return ConstraintStore(out)


def _edge_equations(parent: int, literal: int, atom: Atom,
                    child: int, head: Atom) -> list[TermEquation]:
    eqs = []
    for i, (a, h) in enumerate(zip(atom.args, head.args), start=1):
        if a == h:
            continue
        origin = frozenset((TreePosition(parent, literal, (i,)), TreePosition(child, HEAD_LITERAL, (i,))))
        eqs.append(TermEquation(a, h, origin))
    return eqs


class DerivationTree:
    """A skeleton whose constraint set is satisfiable, with position
    tables and the natural map from tree to program/goal positions.

    ``pos_table`` (tree position -> element) and ``phi`` (tree position
    -> program position) are built together the first time either is
    read, as ``Program.position_table`` is: a derivation returns trees
    whose tables only slicing reads.
    """

    def __init__(self, skeleton: Skeleton, store: ConstraintStore | None = None):
        self.skeleton = skeleton
        self.store = constraints_of(skeleton) if store is None else store

    @cached_property
    def _tables(self) -> tuple[dict[TreePosition, object], dict[TreePosition, ProgramPosition]]:
        pos_table: dict[TreePosition, object] = {}
        phi: dict[TreePosition, ProgramPosition] = {}
        for node in self.skeleton.nodes:
            for literal, path, elem in clause_positions(node.label):
                tp = TreePosition(node.index, literal, path)
                pos_table[tp] = elem
                phi[tp] = ProgramPosition(node.clause, literal, path)
        return pos_table, phi

    @property
    def pos_table(self) -> dict[TreePosition, object]:
        return self._tables[0]

    @property
    def phi(self) -> dict[TreePosition, ProgramPosition]:
        return self._tables[1]

    @cached_property
    def argument_positions(self) -> frozenset[TreePosition]:
        """Top-level argument slots of every atom in the tree: the executed
        argument positions, the denominators of Table-style statistics and
        the criteria swept by the stats command.  Built on first use."""
        out = set()
        for node in self.skeleton.nodes:
            label = node.label
            if label.head is not None:
                for i in range(1, len(label.head.args) + 1):
                    out.add(TreePosition(node.index, HEAD_LITERAL, (i,)))
            for lit, item in enumerate(label.body, start=1):
                if isinstance(item, Atom):
                    for i in range(1, len(item.args) + 1):
                        out.add(TreePosition(node.index, lit, (i,)))
        return frozenset(out)

    @property
    def is_proof_tree(self) -> bool:
        return self.skeleton.is_complete

    def element_at(self, pos: TreePosition) -> object:
        try:
            return self.pos_table[pos]
        except KeyError:
            raise ValueError(f"no such tree position: {pos.address}") from None

    def node_count(self) -> int:
        return len(self.skeleton)

    def __repr__(self) -> str:
        kind = "ProofTree" if self.is_proof_tree else "DerivationTree"
        return f"{kind}({len(self.skeleton)} nodes, {len(self.store)} constraints)"


class ProofTree(DerivationTree):
    def __init__(self, skeleton: Skeleton, store: ConstraintStore | None = None):
        if not skeleton.is_complete:
            raise ValueError("a proof tree must have a complete skeleton")
        super().__init__(skeleton, store)


def phi_inverse(tree: DerivationTree, q: ProgramPosition) -> frozenset[TreePosition]:
    """All tree positions that are renamed copies of program position q;
    empty when the clause was never used."""
    out = set()
    for node in tree.skeleton.nodes:
        if node.clause != q.clause:
            continue
        tp = TreePosition(node.index, q.literal, q.path)
        if tp not in tree.pos_table:
            raise ValueError(f"position {q.address} does not exist in clause {q.clause}")
        out.add(tp)
    return frozenset(out)


def positions_to_store(tree: DerivationTree, positions: frozenset[TreePosition] | set[TreePosition]) -> ConstraintStore:
    """The store subset induced by a position set: all constraints whose
    variables meet the variables appearing at those positions."""
    psi: set[str] = set()
    for p in positions:
        elem = tree.element_at(p)
        if isinstance(elem, (Atom, ConstraintExpr)):
            psi |= vars_of(elem)
        else:
            psi |= vars_of_term(elem)  # type: ignore[arg-type]
    return ConstraintStore(c for c in tree.store if c.variables() & psi)


def origin_constraints(tree: DerivationTree, positions: frozenset[TreePosition] | set[TreePosition]) -> ConstraintStore:
    """The store constraints contributed by any of the given positions,
    via the origin provenance recorded on each constraint."""
    wanted = set(positions)
    return ConstraintStore(c for c in tree.store if c.origin & wanted)


# ---------------------------------------------------------------------------
# Groundness event log

@dataclass(frozen=True)
class GroundEvent:
    kind: str  # "call" | "post" | "success"
    node: int
    literal: int | None
    ground: frozenset[TreePosition]


@dataclass(frozen=True)
class GroundnessLog:
    events: tuple[GroundEvent, ...]

    def call_ground(self) -> frozenset[TreePosition]:
        return frozenset().union(*(e.ground for e in self.events if e.kind in ("call", "post")))

    def success_ground(self) -> frozenset[TreePosition]:
        return frozenset().union(*(e.ground for e in self.events if e.kind == "success"))


@dataclass(frozen=True)
class Solution:
    tree: ProofTree
    log: GroundnessLog


# ---------------------------------------------------------------------------
# SLD search

@dataclass(frozen=True)
class _SearchNode:
    index: int
    clause: int
    label: Clause
    parent: int | None
    parent_literal: int | None
    depth: int
    edge_eqs: tuple[TermEquation, ...] = ()
    call_pins: tuple[TermEquation, ...] = ()


def _skeleton(nodes: list[_SearchNode]) -> Skeleton:
    """The skeleton of a node list: each node's child slots, in
    call-literal order, filled from its children's parent links, with
    None where no child is attached."""
    attached = {(n.parent, n.parent_literal): n.index for n in nodes[1:]}
    return Skeleton(tuple(
        SkelNode(n.index, n.clause, n.label, n.parent, n.parent_literal,
                 tuple(attached.get((n.index, lit)) for lit in n.label.call_literals()))
        for n in nodes))


def derive(program: Program, goal: Clause, *, depth_limit: int = DEFAULT_DEPTH_LIMIT,
           max_solutions: int | None = 1) -> list[Solution]:
    """Proof trees for a goal, leftmost selection, clause order,
    chronological backtracking, bounded by depth_limit.

    Returns up to max_solutions solutions (all within the limits when
    None).  Raises NoSolution when there is no proof tree, carrying the
    deepest satisfiable derivation tree seen.
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be at least 1")
    if max_solutions is not None and max_solutions < 1:
        raise ValueError("max_solutions must be at least 1 (or None for all)")
    if goal.head is not None:
        raise ValueError("derive expects a goal clause (no head)")
    search = _Derivation(program, depth_limit, max_solutions)
    return search.run(goal)


class _Derivation:
    def __init__(self, program: Program, depth_limit: int, max_solutions: int | None):
        self.program = program
        self.depth_limit = depth_limit
        self.max_solutions = max_solutions
        self.nodes: list[_SearchNode] = []
        # constraint_linear per expression, for this run only
        self.linear: dict = {}
        # per node index: the subtree-local solved state and the end of
        # the subtree in ``nodes``, once the node completes satisfiably
        self.local: list[tuple[SolvedState, int] | None] = []
        self.events: list[GroundEvent] = []
        self.solutions: list[Solution] = []
        # node counts of the unjudged deepest-tree candidates, ascending
        self.candidates: list[int] = []
        self.deepest: list[_SearchNode] = []
        self.depth_hit = False

    def run(self, goal: Clause) -> list[Solution]:
        self.nodes.append(_SearchNode(0, GOAL_CLAUSE, goal, None, None, 0))
        self.local.append(None)
        self.candidates.append(1)
        self._search(self._node_agenda(0, goal, None), SolvedState())
        if not self.solutions:
            self._judge(self.candidates)
            deepest = DerivationTree(_skeleton(self.deepest)) if self.deepest else None
            reason = ("depth limit exceeded with no proof tree"
                      if self.depth_hit else "goal has no proof tree")
            raise NoSolution(reason, deepest)
        return self.solutions

    # -- agenda ------------------------------------------------------------

    @staticmethod
    def _node_agenda(index: int, clause: Clause, rest: tuple | None) -> tuple:
        """The node's body steps and its completion, in front of ``rest``;
        an agenda is a linked list of ``(step, rest)`` pairs ending in None."""
        steps = [("post" if isinstance(item, ConstraintExpr) else "call", index, lit, item)
                 for lit, item in enumerate(clause.body, start=1)]
        agenda = ("complete", index), rest
        for step in reversed(steps):
            agenda = step, agenda
        return agenda

    def _done(self) -> bool:
        return self.max_solutions is not None and len(self.solutions) >= self.max_solutions

    def _search(self, agenda: tuple | None, solved: SolvedState | None) -> None:
        """Depth-first search (see the module docstring).  A post or a
        completion moves the branch forward in place; a call ends it, and
        a branch whose state is None resumes the latest choice point."""
        choices: list[tuple] = []
        while not self._done():
            if solved is None:
                if not choices:
                    return
                clause_idx, step, rest, solved, n_nodes, n_events = choices.pop()
                self._backtrack(n_nodes, n_events)
                _, parent_idx, lit, atom = step
                index = len(self.nodes)
                label = rename_clause(self.program.clauses[clause_idx], index)
                head = label.head
                assert head is not None
                eqs = _edge_equations(parent_idx, lit, atom, index, head)
                self.nodes.append(_SearchNode(
                    index, clause_idx, label, parent_idx, lit,
                    self.nodes[parent_idx].depth + 1, tuple(eqs),
                    self._call_pins(atom, solved)))
                self.local.append(None)
                call_ground = self._call_ground(parent_idx, lit, atom, index, head, solved)
                self.events.append(GroundEvent("call", index, lit, call_ground))
                solved = solved.extend(eqs, self.linear)
                if solved is not None:
                    agenda = self._node_agenda(index, label, rest)
                    if not self.solutions:
                        self.candidates.append(len(self.nodes))
            elif agenda is None:
                self.solutions.append(Solution(
                    ProofTree(_skeleton(self.nodes)), GroundnessLog(tuple(self.events))))
                solved = None
            else:
                step, agenda = agenda
                if step[0] == "post":
                    _, index, lit, expr = step
                    ground = self._constraint_ground(index, lit, expr, solved)
                    self.events.append(GroundEvent("post", index, lit, ground))
                    solved = solved.extend((NumericConstraint(expr),), self.linear)
                elif step[0] == "complete":
                    ground = self._success_ground(step[1])
                    self.events.append(GroundEvent("success", step[1], None, ground))
                elif self.nodes[step[1]].depth + 1 > self.depth_limit:
                    self.depth_hit = True
                    solved = None
                else:
                    n_nodes, n_events = len(self.nodes), len(self.events)
                    for clause_idx in reversed(self.program.clauses_for(step[3].indicator)):
                        choices.append((clause_idx, step, agenda, solved, n_nodes, n_events))
                    solved = None

    def _backtrack(self, n_nodes: int, n_events: int) -> None:
        """Cut the nodes, their local states and the events back to the
        given heights; before a solution exists, judge the deepest-tree
        candidates that the cut drops."""
        if not self.solutions:
            cut = bisect_right(self.candidates, n_nodes)
            self._judge(self.candidates[cut:])
            del self.candidates[cut:]
        del self.nodes[n_nodes:]
        del self.local[n_nodes:]
        del self.events[n_events:]

    # -- groundness observation ---------------------------------------------

    def _call_pins(self, atom: Atom, solved: SolvedState) -> tuple[TermEquation, ...]:
        pins = []
        seen = set()
        for arg in atom.args:
            for v in sorted(vars_of_term(arg)):
                if v in seen:
                    continue
                seen.add(v)
                value = solved.ground_value(Variable(v))
                if value is not None:
                    pins.append(TermEquation(Variable(v), value))
        return tuple(pins)

    def _call_ground(self, parent_idx: int, lit: int, atom: Atom, child_idx: int,
                     head: Atom, solved: SolvedState) -> frozenset[TreePosition]:
        """Edge argument positions ground at call: both sides are judged
        through the caller's instantiated argument, the only information
        that exists before the edge equations do."""
        ground = set()
        for i, (carg, harg) in enumerate(zip(atom.args, head.args), start=1):
            resolved = solved.resolve_term(carg)
            for path in ground_paths(carg, resolved, (i,)):
                ground.add(TreePosition(parent_idx, lit, path))
            for path in ground_paths(harg, resolved, (i,)):
                ground.add(TreePosition(child_idx, HEAD_LITERAL, path))
        return frozenset(ground)

    def _constraint_ground(self, index: int, lit: int, expr: ConstraintExpr,
                           solved: SolvedState) -> frozenset[TreePosition]:
        ground = set()
        for k, leaf in enumerate(expr.occurrences(), start=1):
            if not vars_of_term(leaf) or solved.is_ground(leaf):
                ground.add(TreePosition(index, lit, (k,)))
        return frozenset(ground)

    @staticmethod
    def _node_store(node: _SearchNode) -> list[StoreConstraint]:
        """One node's share of its subtree-local store: its boundary
        equations, call-time pinned values, and clause constraints."""
        out: list[StoreConstraint] = [*node.edge_eqs, *node.call_pins]
        for item in node.label.body:
            if isinstance(item, ConstraintExpr):
                out.append(NumericConstraint(item))
        return out

    def _local_state(self, index: int) -> SolvedState:
        """The subtree-local store of a just-completed node, solved by
        extending its first child's cached state with the other
        children's subtrees and the node's own share.  Depth-first order
        makes the subtree the contiguous range ``nodes[index:]``: a first
        child is node ``index + 1``, and the later children's subtrees
        are ``nodes[end:]``, where the first child's subtree ended."""
        node = self.nodes[index]
        first = self.local[index + 1] if index + 1 < len(self.nodes) else None
        if first is None:
            base, end = SolvedState(), index + 1
        else:
            base, end = first
        extra = [c for other in self.nodes[end:] for c in self._node_store(other)]
        local = base.extend(extra + self._node_store(node), self.linear)
        if local is None:
            # an unsat local store certifies nothing, like an UNSAT
            # SolvedForm: only variable-free terms count as ground
            self.local[index] = None
            return SolvedState()
        self.local[index] = local, len(self.nodes)
        return local

    def _success_ground(self, index: int) -> frozenset[TreePosition]:
        node = self.nodes[index]
        local = self._local_state(index)
        ground = set()
        if node.parent is not None:
            parent = self.nodes[node.parent]
            atom = parent.label.body[node.parent_literal - 1]
            head = node.label.head
            assert isinstance(atom, Atom) and head is not None
            # a subterm resolves to the subterm of its argument's resolution
            for i, (carg, harg) in enumerate(zip(atom.args, head.args), start=1):
                for path in ground_paths(carg, local.resolve_term(carg), (i,)):
                    ground.add(TreePosition(node.parent, node.parent_literal, path))
                for path in ground_paths(harg, local.resolve_term(harg), (i,)):
                    ground.add(TreePosition(index, HEAD_LITERAL, path))
        for lit, item in enumerate(node.label.body, start=1):
            if isinstance(item, ConstraintExpr):
                for k, leaf in enumerate(item.occurrences(), start=1):
                    if local.is_ground(leaf):
                        ground.add(TreePosition(index, lit, (k,)))
        return frozenset(ground)

    # -- the deepest tree ----------------------------------------------------

    def _judge(self, counts: list[int]) -> None:
        """Keep the largest candidate of ``counts`` (ascending node
        counts, each naming the prefix ``nodes[:n]``) whose constraint
        set is satisfiable, if it beats the deepest tree so far.  A
        candidate is solved from scratch: its nodes' edge equations,
        then their clause constraints."""
        for n in reversed(counts):
            if n <= len(self.deepest):
                return
            nodes = self.nodes[:n]
            store: list[StoreConstraint] = [eq for node in nodes for eq in node.edge_eqs]
            store += [NumericConstraint(item) for node in nodes for item in node.label.body
                      if isinstance(item, ConstraintExpr)]
            if SolvedState().extend(store, self.linear) is not None:
                self.deepest = nodes
                return
