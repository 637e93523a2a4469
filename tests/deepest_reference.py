"""Eager reference for the deepest tree that ``NoSolution`` carries.

The library records each deepest-tree candidate as a node count and
judges it only when backtracking drops it, or when the search ends with
no solution.  This is the rule it replaced: every time the tree grows
past the deepest tree so far, extend the current state by the agenda's
pending posts, and keep a copy of the node list when that is
satisfiable.  ``EagerDerivation`` is the library's ``_Derivation`` with
that rule restored; it shares the groundness helpers and search
bookkeeping, and is the differential reference for ``test_deepest.py``.
"""

from __future__ import annotations

from clpslice import NoSolution, NumericConstraint
from clpslice.constraints import SolvedState
from clpslice.engine import (
    DEFAULT_DEPTH_LIMIT,
    DerivationTree,
    GroundEvent,
    GroundnessLog,
    ProofTree,
    Solution,
    _Derivation,
    _edge_equations,
    _SearchNode,
    _skeleton,
)
from clpslice.syntax import GOAL_CLAUSE, Clause, Program, rename_clause


class EagerDerivation(_Derivation):
    def run(self, goal: Clause) -> list[Solution]:
        self.nodes.append(_SearchNode(0, GOAL_CLAUSE, goal, None, None, 0))
        self.local.append(None)
        agenda = self._node_agenda(0, goal, None)
        solved = SolvedState()
        self._record_deepest(solved, agenda)
        self._search(agenda, solved)
        if not self.solutions:
            deepest = DerivationTree(_skeleton(self.deepest)) if self.deepest else None
            reason = ("depth limit exceeded with no proof tree"
                      if self.depth_hit else "goal has no proof tree")
            raise NoSolution(reason, deepest)
        return self.solutions

    def _search(self, agenda: tuple | None, solved: SolvedState | None) -> None:
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
                    self._record_deepest(solved, agenda)
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
        del self.nodes[n_nodes:]
        del self.local[n_nodes:]
        del self.events[n_events:]

    def _record_deepest(self, solved: SolvedState, agenda: tuple | None) -> None:
        """Keep the current skeleton if it is the largest satisfiable
        one so far; the state plus the agenda's pending posts is exactly
        its constraint set."""
        if len(self.nodes) <= len(self.deepest):
            return
        pending = []
        while agenda is not None:
            step, agenda = agenda
            if step[0] == "post":
                pending.append(NumericConstraint(step[3]))
        if solved.extend(pending, self.linear) is not None:
            self.deepest = self.nodes[:]


def eager_derive(program: Program, goal: Clause, *, depth_limit: int = DEFAULT_DEPTH_LIMIT,
                 max_solutions: int | None = 1) -> list[Solution]:
    """``derive`` under the eager deepest-tree rule."""
    return EagerDerivation(program, depth_limit, max_solutions).run(goal)
