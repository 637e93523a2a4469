"""Finite-domain enumeration oracle for constraint-set slices.

Independent of the rational solver: solution sets are computed by
complete search over an integer box, so the oracle can certify slices
(equal solution sets for the criterion variable) without trusting the
machinery under test.
"""

from __future__ import annotations

import math
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


def _search(rows: list[Row], variables: list[str], dom: Domain,
            assignment: dict[str, int]) -> bool:
    """Depth-first search for one integer witness, propagating through
    rows whose remaining support is a single variable.  All arithmetic
    is on ints: bounds are exact floors and ceilings of quotients."""
    lo, hi = dom
    unassigned = [v for v in variables if v not in assignment]
    # rows fully determined by the assignment must hold
    pending: list[Row] = []
    for row in rows:
        coeffs, const, rel = row
        if all(v in assignment for v in coeffs):
            if not _holds(const + sum(c * assignment[v] for v, c in coeffs.items()), rel):
                return False
        else:
            pending.append(row)
    if not unassigned:
        return True

    # choose the variable with the tightest unit row, equalities first
    def unit_rows(v: str) -> list[Row]:
        return [row for row in pending if [u for u in row[0] if u not in assignment] == [v]]

    var = None
    var_units: list[Row] = []
    for v in unassigned:
        units = unit_rows(v)
        if any(rel == "=" for _, _, rel in units):
            var, var_units = v, units
            break
        if var is None or (units and not var_units):
            var, var_units = v, units
    assert var is not None

    # coef*var + rest REL 0 bounds var by -rest/coef
    forced: set[int] | None = None
    for coeffs, const, rel in var_units:
        coef = coeffs[var]
        rest = const + sum(c * assignment[u] for u, c in coeffs.items() if u != var)
        exact = rest % coef == 0
        if rel == "=":
            value = {-rest // coef} if exact else set()
            forced = value if forced is None else forced & value
        elif coef > 0:  # var <= -rest/coef, or < when strict
            hi = min(hi, -rest // coef - (rel == "<" and exact))
        else:  # var >= -rest/coef, or > when strict
            lo = max(lo, -(rest // coef) + (rel == "<" and exact))

    candidates = range(lo, hi + 1) if forced is None else [v for v in forced if lo <= v <= hi]
    for value in candidates:
        assignment[var] = value
        if _search(rows, variables, dom, assignment):
            del assignment[var]
            return True
        del assignment[var]
    return False


def _integer_rows(store: ConstraintStore, dom: Domain) -> list[Row] | None:
    """The store's decomposed rows scaled to integers, or None when its
    term equations cannot hold over integers."""
    if dom[0] > dom[1]:
        raise OracleDomainError(f"empty domain {dom}")
    _check_integral(store)
    rows = _decompose(store)
    return None if rows is None else [_integral(row, rel) for row, rel in rows]


def sol_finite(store: ConstraintStore, x: str, dom: Domain) -> SolutionSet:
    """Exact Sol(x, store) with every variable ranging over dom."""
    rows = _integer_rows(store, dom)
    values: set[int] = set()
    if rows is not None:
        variables = sorted(store.vars | {x})
        for v in range(dom[0], dom[1] + 1):
            if _search(rows, variables, dom, {x: v}):
                values.add(v)
    return SolutionSet(x, frozenset(values))


def has_solution(store: ConstraintStore, dom: Domain) -> bool:
    """Does some point of the box, every variable ranging over dom,
    satisfy the store?  One search, stopping at the first witness."""
    rows = _integer_rows(store, dom)
    return rows is not None and _search(rows, sorted(store.vars), dom, {})


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
