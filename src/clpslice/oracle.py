"""Finite-domain enumeration oracle for constraint-set slices.

Independent of the rational solver: solution sets are computed by
complete search over an integer box, so the oracle can certify slices
(equal solution sets for the criterion variable) without trusting the
machinery under test.

The store is flattened to linear rows ``sum(coef * var) + const REL 0``
scaled to integers, and one propagating search runs over them:

* Row index.  Each variable maps to the rows that mention it.  Each row
  keeps the count of its unassigned variables and its partial sum,
  ``const`` plus ``coef * value`` over its assigned variables, so
  assigning a variable touches only its own rows.  A trail of assigned
  variables undoes assignments by restoring those counts and sums.
* Propagation.  A row whose count reaches 0 must hold.  An equality
  whose count reaches 1 forces its last variable by exact integer
  division, inside the domain, or fails.  This runs to a fixpoint
  before every branch.
* Explicit stack.  The branch variable is the smallest name with a unit
  row (an inequality, which bounds its candidates), else the first
  unassigned one.  Each stack entry holds the variable, an iterator
  over its candidates and the trail height, so no store is too large
  for the interpreter's recursion limit.
* Forced criterion.  ``sol_finite`` propagates once at the root.  When
  that forces the criterion, one witness search decides its solution
  set; otherwise each domain value is tried from the root's propagated
  state.  ``has_solution`` is root propagation plus one witness search.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .constraints import ConstraintStore, NumericConstraint, constraint_linear
from .linexpr import LinExpr
from .syntax import Compound, NumberLiteral, Term, Variable

Domain = tuple[int, int]


class OracleDomainError(ValueError):
    """The store is not expressible over the integer domain."""


@dataclass(frozen=True)
class SolutionSet:
    variable: str
    values: frozenset[int]


def _check_integral(store: ConstraintStore) -> None:
    """Numeric constraints evaluate exactly whatever their coefficients,
    but a term equation against a non-integer literal has no reading
    once every variable ranges over integers."""
    for c in store:
        if isinstance(c, NumericConstraint):
            continue
        stack = [c.lhs, c.rhs]
        while stack:
            t = stack.pop()
            if isinstance(t, Compound):
                stack.extend(t.args)
            elif isinstance(t, NumberLiteral) and t.value.denominator != 1:
                raise OracleDomainError(
                    f"term equation mentions {t.value}, which no integer-valued "
                    "term can equal"
                )


def _decompose(store: ConstraintStore) -> list[tuple[LinExpr, str]] | None:
    """Flatten the store to linear rows over integer-valued variables.

    Term equations decompose structurally; an equation forcing a
    variable to equal a compound term can never hold over integers, so
    it makes the whole store infeasible (None).
    """
    rows: list[tuple[LinExpr, str]] = []
    stack: list[tuple[Term, Term]] = []
    for c in store:
        if isinstance(c, NumericConstraint):
            rows.append(constraint_linear(c.expr))
        else:
            stack.append((c.lhs, c.rhs))
    while stack:
        left, right = stack.pop()
        if isinstance(left, Compound) and isinstance(right, Compound):
            if left.functor != right.functor or len(left.args) != len(right.args):
                return None
            stack.extend(zip(left.args, right.args))
        elif isinstance(left, Compound) or isinstance(right, Compound):
            return None  # integer variable or number vs structure
        else:
            row = _leaf_linear(left) - _leaf_linear(right)
            if row.is_constant and row.const:
                return None
            if not row.is_constant:
                rows.append((row, "="))
    return rows


def _leaf_linear(t: Term) -> LinExpr:
    if isinstance(t, Variable):
        return LinExpr.of_var(t.name)
    if isinstance(t, NumberLiteral):
        return LinExpr.of_const(t.value)
    raise AssertionError("compound survived decomposition")


#: A row ``sum(coeffs[v] * v) + const REL 0`` over the integers.
Row = tuple[dict[str, int], int, str]


def _integral(row: LinExpr, rel: str) -> Row:
    """The row times the least common multiple of its denominators.
    The multiplier is positive, so the relation keeps its direction."""
    m = math.lcm(row.const.denominator, *(c.denominator for c in row.coeffs.values()))
    coeffs = {v: c.numerator * (m // c.denominator) for v, c in row.coeffs.items()}
    return coeffs, row.const.numerator * (m // row.const.denominator), rel


def _holds(value: int, rel: str) -> bool:
    if rel == "=":
        return value == 0
    if rel == "<":
        return value < 0
    return value <= 0


class _Search:
    """Propagating search state over integer rows, every variable
    ranging over ``dom``.  Variables are numbered in name order."""

    def __init__(self, rows: list[Row], variables: list[str], dom: Domain) -> None:
        self.lo, self.hi = dom
        self.index = {v: i for i, v in enumerate(variables)}
        self.value: list[int | None] = [None] * len(variables)
        self.occurs: list[list[tuple[int, int]]] = [[] for _ in variables]
        self.coeffs: list[dict[int, int]] = []
        self.rel: list[str] = []
        self.count: list[int] = []    # unassigned variables per row
        self.partial: list[int] = []  # const + sum of coef * value over assigned variables
        self.free: list[int] = []     # sum of unassigned numbers; at count 1, the last one
        self.trail: list[int] = []
        self.forcing: list[int] = []  # equalities down to one unassigned variable
        self.units: set[int] = set()  # inequalities down to one unassigned variable
        for r, (coeffs, const, rel) in enumerate(rows):
            numbered = {self.index[v]: c for v, c in coeffs.items()}
            for i, c in numbered.items():
                self.occurs[i].append((r, c))
            self.coeffs.append(numbered)
            self.rel.append(rel)
            self.count.append(len(numbered))
            self.partial.append(const)
            self.free.append(sum(numbered))
            if len(numbered) == 1 and rel == "=":
                self.forcing.append(r)
            elif len(numbered) == 1:
                self.units.add(r)

    def assign(self, i: int, value: int) -> bool:
        """Give variable i a value, updating only its own rows; False
        when one of them is left without unassigned variables and fails."""
        self.value[i] = value
        self.trail.append(i)
        ok = True
        for r, coef in self.occurs[i]:
            n = self.count[r] - 1
            self.count[r] = n
            self.partial[r] += coef * value
            self.free[r] -= i
            if self.rel[r] == "=":
                if n == 1:
                    self.forcing.append(r)
                elif n == 0 and self.partial[r]:
                    ok = False
            elif n == 1:
                self.units.add(r)
            elif n == 0:
                self.units.discard(r)
                ok = ok and _holds(self.partial[r], self.rel[r])
        return ok

    def undo(self, height: int) -> None:
        """Unassign every variable above the trail height, a state that
        propagation had left at its fixpoint."""
        self.forcing.clear()
        while len(self.trail) > height:
            i = self.trail.pop()
            value = self.value[i]
            self.value[i] = None
            for r, coef in self.occurs[i]:
                n = self.count[r] + 1
                self.count[r] = n
                self.partial[r] -= coef * value
                self.free[r] += i
                if self.rel[r] != "=":
                    if n == 1:
                        self.units.add(r)
                    elif n == 2:
                        self.units.discard(r)

    def propagate(self) -> bool:
        """Force the last variable of each unit equality, by exact
        division inside the domain, until none is left."""
        while self.forcing:
            r = self.forcing.pop()
            if self.count[r] != 1:
                continue  # a forced value already closed and checked it
            i = self.free[r]
            value, rem = divmod(-self.partial[r], self.coeffs[r][i])
            if rem or not self.lo <= value <= self.hi or not self.assign(i, value):
                return False
        return True

    def search(self) -> bool:
        """Extend the propagated assignment to a witness, depth first on
        an explicit stack of (variable, candidates, trail height); a
        witness stays assigned."""
        stack: list[tuple[int, Iterator[int], int]] = []
        var = self._branch_variable()
        while var is not None:
            stack.append((var, iter(self._candidates(var)), len(self.trail)))
            while not self._next_candidate(*stack[-1]):
                stack.pop()
                if not stack:
                    return False
            var = self._branch_variable()
        return True

    def _next_candidate(self, var: int, candidates: Iterator[int], height: int) -> bool:
        """Give var its next candidate whose propagation holds, from the
        state at the trail height; False when none is left."""
        for value in candidates:
            self.undo(height)
            if self.assign(var, value) and self.propagate():
                return True
        return False

    def _branch_variable(self) -> int | None:
        """The smallest variable with a unit row, else the first
        unassigned one.  At a fixpoint every unit row is an inequality."""
        if self.units:
            return min(self.free[r] for r in self.units)
        try:
            return self.value.index(None)
        except ValueError:
            return None

    def _candidates(self, i: int) -> range:
        """The domain values left to variable i by its unit rows:
        ``coef*var + rest REL 0`` bounds var by ``-rest/coef``."""
        lo, hi = self.lo, self.hi
        for r, coef in self.occurs[i]:
            if self.count[r] != 1:
                continue
            rest = self.partial[r]
            strict = self.rel[r] == "<" and rest % coef == 0
            if coef > 0:  # var <= -rest/coef, or < when strict
                hi = min(hi, -rest // coef - strict)
            else:  # var >= -rest/coef, or > when strict
                lo = max(lo, -(rest // coef) + strict)
        return range(lo, hi + 1)


def _root(store: ConstraintStore, variables: set[str], dom: Domain) -> _Search | None:
    """The search over the store's integer rows and the given variables
    plus those of the rows, propagated at the root; None when it fails
    there.  A variable in no row may take any value of the domain, so
    the store's other variables are left out."""
    if dom[0] > dom[1]:
        raise OracleDomainError(f"empty domain {dom}")
    _check_integral(store)
    rows = _decompose(store)
    if rows is None:
        return None
    integral = [_integral(row, rel) for row, rel in rows]
    if any(not coeffs and not _holds(const, rel) for coeffs, const, rel in integral):
        return None
    names = variables.union(*(coeffs for coeffs, _, _ in integral))
    state = _Search(integral, sorted(names), dom)
    return state if state.propagate() else None


def sol_finite(store: ConstraintStore, x: str, dom: Domain) -> SolutionSet:
    """Exact Sol(x, store) with every variable ranging over dom."""
    state = _root(store, {x}, dom)
    values: set[int] = set()
    if state is not None:
        i = state.index[x]
        forced = state.value[i]
        if forced is not None:
            if state.search():
                values.add(forced)
        elif not state.occurs[i]:  # in no row: any value goes with any witness
            if state.search():
                values.update(range(dom[0], dom[1] + 1))
        else:
            root = len(state.trail)
            for v in range(dom[0], dom[1] + 1):
                if state.assign(i, v) and state.propagate() and state.search():
                    values.add(v)
                state.undo(root)
    return SolutionSet(x, frozenset(values))


def has_solution(store: ConstraintStore, dom: Domain) -> bool:
    """Does some point of the box, every variable ranging over dom,
    satisfy the store?  Root propagation, then one witness search."""
    state = _root(store, set(), dom)
    return state is not None and state.search()


def is_slice(store: ConstraintStore, subset: ConstraintStore, x: str, dom: Domain) -> bool:
    """Does the subset leave Sol(x, .) unchanged over the domain?"""
    if not subset.issubset(store):
        raise ValueError("candidate slice is not a subset of the store")
    return sol_finite(subset, x, dom).values == sol_finite(store, x, dom).values


def minimal_slices(store: ConstraintStore, x: str, dom: Domain,
                   max_constraints: int = 6) -> list[ConstraintStore]:
    """All inclusion-minimal slices, by subset enumeration.

    Exponential; intended for building small test fixtures only.
    """
    if len(store) > max_constraints:
        raise ValueError(f"store too large for subset enumeration ({len(store)} constraints)")
    full = sol_finite(store, x, dom).values
    found: list[tuple[frozenset, ConstraintStore]] = []
    for size in range(len(store) + 1):
        for combo in combinations(store.constraints, size):
            key = frozenset(combo)
            if any(prev <= key for prev, _ in found):
                continue
            candidate = ConstraintStore(combo)
            if sol_finite(candidate, x, dom).values == full:
                found.append((key, candidate))
    return [s for _, s in found]
