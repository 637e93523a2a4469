"""Whole-store reference solver for CLP(Q)+Herbrand stores.

The library decides a store with ``SolvedState``, one constraint at a
time.  This is the batch solver it replaced: unify every term equation,
substitute the unifier into the numeric constraints, solve all the
equalities by Gauss-Jordan elimination, then run Fourier-Motzkin on the
substituted inequalities.  It shares only the primitives (``_unify``,
``_walk``, ``_resolve``, ``_fourier_motzkin``, ``constraint_linear``)
and the ``SolvedForm`` it returns with the library, and is kept as the
differential reference for ``test_incremental.py``.
"""

from __future__ import annotations

from fractions import Fraction

from clpslice import ConstraintStore, NumericConstraint, TermEquation
from clpslice.constraints import (
    Satisfiability,
    SolvedForm,
    _fourier_motzkin,
    _resolve,
    _unify,
    _walk,
    constraint_linear,
)
from clpslice.linexpr import LinExpr
from clpslice.syntax import NumberLiteral, Term, Variable


def _gauss_jordan(equalities: list[LinExpr]) -> dict[str, LinExpr] | None:
    """Pivot dictionary var -> affine form over free variables, or None."""
    pivots: dict[str, LinExpr] = {}
    for eq in equalities:
        for var, form in pivots.items():
            eq = eq.substitute(var, form)
        if eq.is_constant:
            if eq.const:
                return None
            continue
        var = min(eq.coeffs)
        coef = eq.coeffs[var]
        rest = LinExpr({v: c for v, c in eq.coeffs.items() if v != var}, eq.const)
        form = rest.scale(Fraction(-1) / coef)
        pivots = {v: f.substitute(var, form) for v, f in pivots.items()}
        pivots[var] = form
    return pivots


def batch_satisfiable(store: ConstraintStore) -> SolvedForm:
    """Decide a mixed store at once; Unsat is a verdict, never an exception."""
    unsat = SolvedForm(Satisfiability.UNSAT, store.vars)

    pairs = [(c.lhs, c.rhs) for c in store if isinstance(c, TermEquation)]
    subst: dict[str, Term] = {}
    if _unify(subst, pairs) is None:
        return unsat
    herbrand = {v: _resolve(Variable(v), subst, {}) for v in subst}

    equalities: list[LinExpr] = []
    inequalities: list[tuple[LinExpr, bool]] = []
    for c in store:
        if not isinstance(c, NumericConstraint):
            continue
        form, rel = constraint_linear(c.expr)
        substituted = LinExpr({}, form.const)
        for var, coef in form.coeffs.items():
            rep = _walk(Variable(var), subst)
            if isinstance(rep, Variable):
                substituted += LinExpr({rep.name: coef})
            elif isinstance(rep, NumberLiteral):
                substituted += LinExpr.of_const(coef * rep.value)
            else:
                # a numerically constrained variable equated to a
                # non-numeric term can take no rational value
                return unsat
        if rel == "=":
            equalities.append(substituted)
        else:
            inequalities.append((substituted, rel == "<"))
    # Variables Herbrand-bound to numbers feed the linear system too.
    for var, bound in herbrand.items():
        if isinstance(bound, NumberLiteral):
            equalities.append(LinExpr({var: Fraction(1)}, -bound.value))

    pivots = _gauss_jordan(equalities)
    if pivots is None:
        return unsat

    residual = []
    seen = set()
    for expr, strict in inequalities:
        for var, form in pivots.items():
            expr = expr.substitute(var, form)
        if expr.is_constant:
            if expr.const > 0 or (strict and expr.const == 0):
                return unsat
            continue
        key = (expr.normalized(), strict)
        if key not in seen:
            seen.add(key)
            residual.append((expr, strict))

    ok, _ = _fourier_motzkin(residual)
    if not ok:
        return unsat
    return SolvedForm(Satisfiability.SAT, store.vars, herbrand, pivots, tuple(residual))
