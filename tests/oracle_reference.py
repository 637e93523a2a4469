"""The finite-domain oracle's search over Fractions, as the reference
for its integer search.

``sol_finite`` here decomposes a store with the oracle's own
``_decompose`` and then searches with exact rational arithmetic, one
Fraction per assigned value and per bound, the way the oracle did
before its rows were scaled to integers.  ``test_oracle.py`` checks the
two against each other.
"""

from __future__ import annotations

import math
from fractions import Fraction

from clpslice.constraints import ConstraintStore
from clpslice.linexpr import LinExpr
from clpslice.oracle import Domain, OracleDomainError, _check_integral, _decompose


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
