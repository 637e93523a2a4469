"""Two plain searches of the finite-domain oracle, as references for
its propagating search.

``sol_finite`` here decomposes a store with the oracle's own
``_decompose`` and then searches with exact rational arithmetic, one
Fraction per assigned value and per bound, the way the oracle did
before its rows were scaled to integers.

``integer_sol_finite`` and ``integer_has_solution`` search the oracle's
integer rows the way it did before it indexed them: one recursive call
per assigned variable, each rescanning every row, and one whole search
per domain value.  ``test_oracle.py`` checks the oracle against both.
"""

from __future__ import annotations

import math
from fractions import Fraction

from clpslice.constraints import ConstraintStore
from clpslice.linexpr import LinExpr
from clpslice.oracle import (Domain, OracleDomainError, Row, _check_integral, _decompose,
                             _integral)


def _holds(value: Fraction, rel: str) -> bool:
    if rel == "=":
        return value == 0
    if rel == "<":
        return value < 0
    return value <= 0


def _search(rows: list[tuple[LinExpr, str]], variables: list[str],
            dom: Domain, assignment: dict[str, Fraction]) -> bool:
    lo, hi = dom
    unassigned = [v for v in variables if v not in assignment]
    pending: list[tuple[LinExpr, str]] = []
    for row, rel in rows:
        free = [v for v in row.coeffs if v not in assignment]
        if not free:
            if not _holds(row.evaluate(assignment), rel):
                return False
        else:
            pending.append((row, rel))
    if not unassigned:
        return True

    def unit_rows(v: str):
        return [
            (row, rel)
            for row, rel in pending
            if [u for u in row.coeffs if u not in assignment] == [v]
        ]

    var = None
    var_units: list[tuple[LinExpr, str]] = []
    for v in unassigned:
        units = unit_rows(v)
        if any(rel == "=" for _, rel in units):
            var, var_units = v, units
            break
        if var is None or (units and not var_units):
            var, var_units = v, units
    assert var is not None

    lo_f, hi_f = Fraction(lo), Fraction(hi)
    forced: set[Fraction] | None = None
    for row, rel in var_units:
        coef = row.coeffs[var]
        rest = Fraction(row.const)
        for u, c in row.coeffs.items():
            if u != var:
                rest += c * assignment[u]
        bound = -rest / coef
        if rel == "=":
            forced = {bound} if forced is None else forced & {bound}
        elif coef > 0:
            hi_f = min(hi_f, bound - 1 if rel == "<" and bound.denominator == 1 else bound)
        else:
            lo_f = max(lo_f, bound + 1 if rel == "<" and bound.denominator == 1 else bound)

    if forced is not None:
        candidates = [v for v in forced if v.denominator == 1 and lo_f <= v <= hi_f]
    else:
        start = max(lo, math.ceil(lo_f))
        stop = min(hi, math.floor(hi_f))
        candidates = [Fraction(v) for v in range(start, stop + 1)]
    for value in candidates:
        assignment[var] = value
        if _search(rows, variables, dom, assignment):
            del assignment[var]
            return True
        del assignment[var]
    return False


def sol_finite(store: ConstraintStore, x: str, dom: Domain) -> frozenset[int]:
    if dom[0] > dom[1]:
        raise OracleDomainError(f"empty domain {dom}")
    _check_integral(store)
    rows = _decompose(store)
    values: set[int] = set()
    if rows is not None:
        variables = sorted(store.vars | {x})
        for v in range(dom[0], dom[1] + 1):
            if _search(rows, variables, dom, {x: Fraction(v)}):
                values.add(v)
    return frozenset(values)


def _integer_search(rows: list[Row], variables: list[str], dom: Domain,
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
        if _integer_search(rows, variables, dom, assignment):
            del assignment[var]
            return True
        del assignment[var]
    return False


def _integer_rows(store: ConstraintStore, dom: Domain) -> list[Row] | None:
    if dom[0] > dom[1]:
        raise OracleDomainError(f"empty domain {dom}")
    _check_integral(store)
    rows = _decompose(store)
    return None if rows is None else [_integral(row, rel) for row, rel in rows]


def integer_sol_finite(store: ConstraintStore, x: str, dom: Domain) -> frozenset[int]:
    rows = _integer_rows(store, dom)
    values: set[int] = set()
    if rows is not None:
        variables = sorted(store.vars | {x})
        for v in range(dom[0], dom[1] + 1):
            if _integer_search(rows, variables, dom, {x: v}):
                values.add(v)
    return frozenset(values)


def integer_has_solution(store: ConstraintStore, dom: Domain) -> bool:
    rows = _integer_rows(store, dom)
    return rows is not None and _integer_search(rows, sorted(store.vars), dom, {})
