"""Constraint stores over CLP(Q) plus Herbrand terms.

A store mixes linear rational (in)equalities with term equations.
Satisfiability is decided exactly: term equations by syntactic
unification with occurs check, numeric equalities by Gauss-Jordan
elimination over Fractions, inequalities by Fourier-Motzkin
elimination.  Numeric values cross between the two worlds through the
unifier's bindings: a variable bound to a number contributes that
number to the linear system, and a numerically pinned variable grounds
the Herbrand terms it appears in.

Groundness detection is deliberately syntactic: a variable counts as
ground only when the solved form certifies a unique value through
equalities (a pair of opposing inequalities does not).

One decision procedure, ``SolvedState``, solves a store one
constraint at a time: a term equation unifies into a copy of its
triangular substitution, a numeric equality is one Gauss-Jordan pivot
step, an inequality is reduced by the pivots and kept, and
Fourier-Motzkin runs again only when the kept inequalities changed.
The SLD engine extends a parent's state at every step;
``satisfiable`` solves a whole store by extending the empty state and
reads the result as a ``SolvedForm``.  The batch solver it replaced
lives in ``tests/solver_reference.py`` as the differential reference.

``dep_classes`` and ``class_slice`` find variable-sharing classes by
one search: from a variable, over an index of the constraints each
variable occurs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .linexpr import LinExpr, to_linear
from .syntax import (
    Compound,
    ConstraintExpr,
    NumberLiteral,
    Term,
    TreePosition,
    Variable,
    map_term,
    render_constraint,
    render_term,
    strip_tags_term,
    vars_of,
    vars_of_term,
)


@dataclass(frozen=True)
class NumericConstraint:
    """A linear (in)equality, with the tree positions that produced it."""

    expr: ConstraintExpr
    origin: frozenset[TreePosition] = field(default=frozenset(), compare=False)

    def variables(self) -> frozenset[str]:
        return vars_of(self.expr)

    def __str__(self) -> str:
        return render_constraint(self.expr)


@dataclass(frozen=True)
class TermEquation:
    """An equation between two terms, e.g. an argument-passing equation."""

    lhs: Term
    rhs: Term
    origin: frozenset[TreePosition] = field(default=frozenset(), compare=False)

    def variables(self) -> frozenset[str]:
        return vars_of_term(self.lhs) | vars_of_term(self.rhs)

    def __str__(self) -> str:
        return f"{render_term(self.lhs)}={render_term(self.rhs)}"


StoreConstraint = Union[NumericConstraint, TermEquation]


class ConstraintStore:
    """An immutable set of store constraints.

    Identity of a constraint ignores its origin; building a store merges
    the origins of duplicates.
    """

    def __init__(self, constraints: Iterable[StoreConstraint] = ()):
        merged: dict[StoreConstraint, frozenset[TreePosition]] = {}
        order: list[StoreConstraint] = []
        for c in constraints:
            if c in merged:
                merged[c] = merged[c] | c.origin
            else:
                merged[c] = c.origin
                order.append(c)
        self.constraints: tuple[StoreConstraint, ...] = tuple(
            c if merged[c] is c.origin else replace(c, origin=merged[c]) for c in order
        )
        self.vars: frozenset[str] = frozenset().union(
            *(c.variables() for c in self.constraints))

    def __iter__(self) -> Iterator[StoreConstraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    @cached_property
    def _members(self) -> frozenset[StoreConstraint]:
        """The constraints as a hash set, built on first membership test."""
        return frozenset(self.constraints)

    def __contains__(self, c: StoreConstraint) -> bool:
        return c in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstraintStore) and self._members == other._members

    def __repr__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.constraints) + "}"

    def issubset(self, other: "ConstraintStore") -> bool:
        return self._members <= other._members

    def union(self, extra: Iterable[StoreConstraint]) -> "ConstraintStore":
        return ConstraintStore((*self.constraints, *extra))


def strip_rename_tags(store: ConstraintStore) -> ConstraintStore:
    """Map every renamed variable back to its source name and drop the
    equations that become trivial.  Useful for display and for comparing
    a derived store with its textbook form."""
    out: list[StoreConstraint] = []
    for c in store:
        if isinstance(c, TermEquation):
            lhs, rhs = strip_tags_term(c.lhs), strip_tags_term(c.rhs)
            if lhs == rhs:
                continue
            out.append(TermEquation(lhs, rhs, c.origin))
        else:
            out.append(
                NumericConstraint(
                    ConstraintExpr(
                        c.expr.relation,
                        strip_tags_term(c.expr.lhs),
                        strip_tags_term(c.expr.rhs),
                    ),
                    c.origin,
                )
            )
    return ConstraintStore(out)


# ---------------------------------------------------------------------------
# Solved forms

class Satisfiability(Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass(frozen=True)
class SolvedForm:
    """Canonical form of a satisfiable store (or the Unsat verdict).

    ``herbrand_bindings`` is an idempotent substitution; ``pivots`` maps
    each eliminated numeric variable to an affine form over free
    variables.  It holds variables of the linear system only: a variable
    that a term equation binds (to a number or to another variable) is
    not a key, and is resolved through ``herbrand_bindings``.
    ``residual`` holds the substituted inequalities, each as
    ``expr <= 0`` (strict flag set for ``<``).
    """

    status: Satisfiability
    vars: frozenset[str] = frozenset()
    herbrand_bindings: dict[str, Term] = field(default_factory=dict)
    pivots: dict[str, LinExpr] = field(default_factory=dict)
    residual: tuple[tuple[LinExpr, bool], ...] = ()

    @property
    def is_sat(self) -> bool:
        return self.status is Satisfiability.SAT

    def resolve_term(self, t: Term) -> Term:
        """Substitute certified values: Herbrand bindings, then pinned
        numeric pivots."""
        return _resolve(t, self.herbrand_bindings, self.pivots)

    def is_ground(self, t: Term) -> bool:
        return not vars_of_term(self.resolve_term(t))

    def ground_value(self, t: Term) -> Term | None:
        resolved = self.resolve_term(t)
        return resolved if not vars_of_term(resolved) else None

    def sample_valuation(self) -> dict[str, Fraction]:
        """One rational witness for the numeric part of the store: a
        value for every store variable not bound to a compound term.

        Free variables start at 0.  Those of the residual are then chosen
        by walking its Fourier-Motzkin elimination back to front (one that
        a combination cancelled keeps 0), and pivots follow by
        substitution.  A variable bound by a term equation takes its
        number or its representative's value.
        """
        if not self.is_sat:
            raise ValueError("no valuation for an unsatisfiable store")
        forms = [*(expr for expr, _ in self.residual), *self.pivots.values()]
        values = {v: Fraction(0) for form in forms for v in form.coeffs}
        for var, bounds in reversed(_fourier_motzkin(list(self.residual))[1]):
            lo: tuple[Fraction, bool] | None = None
            hi: tuple[Fraction, bool] | None = None
            for expr, strict in bounds:
                coef = expr.coeffs[var]
                rest = LinExpr({v: c for v, c in expr.coeffs.items() if v != var}, expr.const)
                bound = -rest.evaluate(values) / coef
                if coef < 0:  # lower bound
                    if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                        lo = (bound, strict)
                else:
                    if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                        hi = (bound, strict)
            values[var] = _pick_value(lo, hi)
        for var, form in self.pivots.items():
            values[var] = form.evaluate(values)
        for var in self.vars:
            value = self.herbrand_bindings.get(var, Variable(var))
            if isinstance(value, NumberLiteral):
                values[var] = value.value
            elif isinstance(value, Variable):
                values[var] = values.setdefault(value.name, Fraction(0))
        return values


def _pick_value(lo: tuple[Fraction, bool] | None, hi: tuple[Fraction, bool] | None) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi[0] - 1 if hi[1] else hi[0]  # type: ignore[index]
    if hi is None:
        return lo[0] + 1 if lo[1] else lo[0]
    if lo[0] == hi[0]:
        return lo[0]
    return (lo[0] + hi[0]) / 2


# ---------------------------------------------------------------------------
# Unification (occurs check on)

def _walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Variable) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(name: str, t: Term, subst: dict[str, Term]) -> bool:
    stack = [t]
    while stack:
        t = _walk(stack.pop(), subst)
        if isinstance(t, Variable):
            if t.name == name:
                return True
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return False


def _unify(subst: dict[str, Term], pairs: Iterable[tuple[Term, Term]]) -> list[str] | None:
    """Extend the triangular substitution ``subst`` in place to unify
    every pair; the names it bound, or None on a clash."""
    bound: list[str] = []
    stack = list(pairs)
    while stack:
        left, right = stack.pop()
        left, right = _walk(left, subst), _walk(right, subst)
        if left == right:
            continue
        if isinstance(left, Variable):
            if _occurs(left.name, right, subst):
                return None
            subst[left.name] = right
            bound.append(left.name)
        elif isinstance(right, Variable):
            if _occurs(right.name, left, subst):
                return None
            subst[right.name] = left
            bound.append(right.name)
        elif isinstance(left, Compound) and isinstance(right, Compound):
            if left.functor != right.functor or len(left.args) != len(right.args):
                return None
            stack.extend(zip(left.args, right.args))
        else:
            # number vs unequal number, or number vs compound
            return None
    return bound


def _resolve(t: Term, bindings: dict[str, Term], pivots: dict[str, LinExpr]) -> Term:
    """``t`` under a triangular substitution, with every variable left
    free but pinned to a constant by the pivots replaced by its value."""
    def certified(s: Term) -> Term:
        while isinstance(s, Variable) and s.name in bindings:
            s = bindings[s.name]
        if isinstance(s, Variable):
            pivot = pivots.get(s.name)
            if pivot is not None and pivot.is_constant:
                return NumberLiteral(pivot.const)
        return s

    t = certified(t)
    return map_term(t, certified) if isinstance(t, Compound) and t.args else t


# ---------------------------------------------------------------------------
# Linear solving

def constraint_linear(expr: ConstraintExpr) -> tuple[LinExpr, str]:
    """Normalize to ``form rel 0`` with rel one of ``=``, ``<=``, ``<``."""
    diff = to_linear(expr.lhs) - to_linear(expr.rhs)
    rel = expr.relation
    if rel in (">", ">="):
        diff = diff.scale(Fraction(-1))
        rel = "<" if rel == ">" else "<="
    return diff, rel


def _fourier_motzkin(
    inequalities: list[tuple[LinExpr, bool]]
) -> tuple[bool, tuple[tuple[str, tuple[tuple[LinExpr, bool], ...]], ...]]:
    """Decide ``all(expr <= 0 / < 0)`` over the rationals.

    Returns (satisfiable, elimination order with the bounds seen at each
    step) so that a witness can be reconstructed.
    """
    rows = list(inequalities)
    order: list[tuple[str, tuple[tuple[LinExpr, bool], ...]]] = []
    while True:
        pending = [r for r in rows if not r[0].is_constant]
        for expr, strict in rows:
            if expr.is_constant and (expr.const > 0 or (strict and expr.const == 0)):
                return False, ()
        if not pending:
            return True, tuple(order)
        var = min(min(r[0].coeffs) for r in pending)
        lows, ups, rest = [], [], []
        for expr, strict in rows:
            coef = expr.coeffs.get(var)
            if coef is None or not coef:
                rest.append((expr, strict))
            elif coef < 0:
                lows.append((expr, strict))
            else:
                ups.append((expr, strict))
        order.append((var, tuple(lows + ups)))
        seen = set()
        combined = []
        for lo_expr, lo_strict in lows:
            for up_expr, up_strict in ups:
                new = lo_expr.scale(up_expr.coeffs[var]) - up_expr.scale(lo_expr.coeffs[var])
                strict = lo_strict or up_strict
                key = (new.normalized(), strict)
                if key not in seen:
                    seen.add(key)
                    combined.append((new, strict))
        rows = rest + combined


def satisfiable(store: ConstraintStore) -> SolvedForm:
    """Decide a mixed store; Unsat is a verdict, never an exception.

    The term equations are posted before the numeric constraints, so the
    linear system is built over the unifier's representatives at once.
    """
    state = SolvedState().extend(
        sorted(store, key=lambda c: isinstance(c, NumericConstraint)))
    if state is None:
        return SolvedForm(Satisfiability.UNSAT, store.vars)
    herbrand = {v: _resolve(Variable(v), state.bindings, {}) for v in state.bindings}
    return SolvedForm(Satisfiability.SAT, store.vars, herbrand, state.pivots,
                      tuple(state.residual.values()))


def ground_vars(solved: SolvedForm) -> dict[str, Term]:
    """Variables with the same value in every solution, as certified by
    the solved form: bound to a ground term, or pinned by equalities."""
    if not solved.is_sat:
        raise ValueError("ground_vars needs a satisfiable solved form")
    out: dict[str, Term] = {}
    for var in sorted(solved.vars):
        value = solved.ground_value(Variable(var))
        if value is not None:
            out[var] = value
    return out


# ---------------------------------------------------------------------------
# Incremental solving

class SolvedState:
    """A satisfiable store solved one constraint at a time.

    ``extend`` returns the state of the store plus more constraints, or
    None when that store is unsatisfiable; the receiver never changes,
    so a search keeps a parent's state and simply drops a child's on
    backtracking.  The fields hold:

    * ``bindings``: a triangular Herbrand substitution (walk it);
    * ``numeric``: the names that feed the linear system, i.e. the
      representatives of every variable seen in a numeric constraint
      and whatever those were later bound to;
    * ``pivots``: a fully reduced pivot dictionary, every form over
      free (non-pivot) variables only;
    * ``occ``: the occurrence index of ``pivots``, mapping each free
      variable to the frozenset of pivots whose forms mention it (no
      empty entries), so a new pivot rewrites only the forms it occurs
      in;
    * ``residual``: the non-constant inequalities rewritten by the
      pivots, each ``expr <= 0`` (``< 0`` when strict), keyed by the
      normalized form so duplicates collapse.

    Contract with the batch reference in ``tests/solver_reference.py``:
    for any constraint sequence, ``SolvedState().extend(cs)`` is None
    exactly when the reference finds ``ConstraintStore(cs)`` UNSAT;
    otherwise ``is_ground`` and ``ground_value`` agree with its
    SolvedForm's, and ``resolve_term`` agrees up to which variable
    represents a class of unbound variables.  So the order in which
    constraints are posted changes neither.  Groundness stays
    basis-independent because a variable is pinned by the equalities iff
    it is a pivot with a constant form.
    """

    __slots__ = ("bindings", "numeric", "pivots", "occ", "residual")

    def __init__(self) -> None:
        self.bindings: dict[str, Term] = {}
        self.numeric: set[str] = set()
        self.pivots: dict[str, LinExpr] = {}
        self.occ: dict[str, frozenset[str]] = {}
        self.residual: dict[tuple, tuple[LinExpr, bool]] = {}

    def extend(self, constraints: Iterable[StoreConstraint],
               linear: dict[ConstraintExpr, tuple[LinExpr, str]] | None = None
               ) -> "SolvedState | None":
        """The state with ``constraints`` added, or None if unsat.

        ``linear`` memoizes ``constraint_linear`` per expression; the
        caller owns it and decides how long it lives.
        """
        new = SolvedState()
        new.bindings = dict(self.bindings)
        new.numeric = set(self.numeric)
        new.pivots = dict(self.pivots)
        new.occ = dict(self.occ)
        new.residual = dict(self.residual)
        for c in constraints:
            ok = (new._equate(c.lhs, c.rhs) if isinstance(c, TermEquation)
                  else new._post(c.expr, linear))
            if not ok:
                return None
        if new.residual.keys() != self.residual.keys():
            if not _fourier_motzkin(list(new.residual.values()))[0]:
                return None
        return new

    def resolve_term(self, t: Term) -> Term:
        """Substitute certified values: Herbrand bindings, then pinned
        numeric pivots."""
        return _resolve(t, self.bindings, self.pivots)

    def is_ground(self, t: Term) -> bool:
        return not vars_of_term(self.resolve_term(t))

    def ground_value(self, t: Term) -> Term | None:
        resolved = self.resolve_term(t)
        return resolved if not vars_of_term(resolved) else None

    # -- in-place steps on a fresh copy; False means unsat -----------------

    def _equate(self, lhs: Term, rhs: Term) -> bool:
        bound = _unify(self.bindings, [(lhs, rhs)])
        if bound is None:
            return False
        for name in bound:
            if name not in self.numeric:
                continue
            # a variable of the linear system got bound: carry the
            # binding over as a linear equality
            rep = _walk(Variable(name), self.bindings)
            if isinstance(rep, Variable):
                self.numeric.add(rep.name)
                row = LinExpr({name: Fraction(1), rep.name: Fraction(-1)})
            elif isinstance(rep, NumberLiteral):
                row = LinExpr({name: Fraction(1)}, -rep.value)
            else:
                return False
            if not self._pivot(row):
                return False
        return True

    def _post(self, expr: ConstraintExpr,
              linear: dict[ConstraintExpr, tuple[LinExpr, str]] | None) -> bool:
        if linear is None:
            form, rel = constraint_linear(expr)
        else:
            found = linear.get(expr)
            if found is None:
                found = linear[expr] = constraint_linear(expr)
            form, rel = found
        coeffs: dict[str, Fraction] = {}
        const = form.const
        for var, coef in form.coeffs.items():
            rep = _walk(Variable(var), self.bindings)
            if isinstance(rep, Variable):
                self.numeric.add(rep.name)
                total = coeffs.get(rep.name, 0) + coef
                if total:
                    coeffs[rep.name] = total
                else:
                    del coeffs[rep.name]
            elif isinstance(rep, NumberLiteral):
                const += coef * rep.value
            else:
                # a numerically constrained variable equated to a
                # non-numeric term can take no rational value
                return False
        row = LinExpr(coeffs, const)
        if rel == "=":
            return self._pivot(row)
        return self._bound(self._reduce(row), rel == "<")

    def _reduce(self, row: LinExpr) -> LinExpr:
        for var in [v for v in row.coeffs if v in self.pivots]:
            row = row.substitute(var, self.pivots[var])
        return row

    def _pivot(self, row: LinExpr) -> bool:
        """One Gauss-Jordan step for ``row = 0``: rewrite only the
        pivots (found through ``occ``) and residual rows that mention the
        new pivot."""
        row = self._reduce(row)
        if row.is_constant:
            return not row.const
        var = min(row.coeffs)
        coef = row.coeffs[var]
        rest = LinExpr({v: c for v, c in row.coeffs.items() if v != var}, row.const)
        form = rest.scale(Fraction(-1) / coef)
        pivots, occ = self.pivots, self.occ
        # only a variable of ``form`` can enter a rewritten form or cancel
        # out of one; each such entry is updated once, by set operations
        entered: dict[str, set[str]] = {v: {var} for v in form.coeffs}
        left: dict[str, set[str]] = {v: set() for v in form.coeffs}
        for p in occ.pop(var, ()):
            old = pivots[p].coeffs
            pivots[p] = pivots[p].substitute(var, form)
            new = pivots[p].coeffs
            for v in form.coeffs:
                if v not in old:
                    entered[v].add(p)
                elif v not in new:
                    left[v].add(p)
        pivots[var] = form
        for v in form.coeffs:
            occ[v] = (occ.get(v, frozenset()) - left[v]) | entered[v]
        if any(var in expr.coeffs for expr, _ in self.residual.values()):
            rows, self.residual = self.residual.values(), {}
            for expr, strict in rows:
                if not self._bound(expr.substitute(var, form), strict):
                    return False
        return True

    def _bound(self, row: LinExpr, strict: bool) -> bool:
        """Keep a reduced inequality ``row <= 0`` (``< 0`` if strict)."""
        if row.is_constant:
            return not (row.const > 0 or (strict and row.const == 0))
        self.residual.setdefault((row.normalized(), strict), (row, strict))
        return True


# ---------------------------------------------------------------------------
# Variable dependency classes

def _sharing_search(store: ConstraintStore,
                    starts: Iterable[str]) -> Iterator[tuple[set[str], set[int]]]:
    """One variable-sharing search from each start not reached before:
    the variables of its class and the indices of the store constraints
    it reaches.  The variable -> constraint index is built once per call,
    so each constraint's variables are computed once."""
    cvars = [c.variables() for c in store]
    index: dict[str, list[int]] = {}
    for i, vs in enumerate(cvars):
        for v in vs:
            index.setdefault(v, []).append(i)
    seen: set[str] = set()
    for x in starts:
        if x in seen:
            continue
        cls, reached, stack = {x}, set(), [x]
        while stack:
            for i in index[stack.pop()]:
                if i not in reached:
                    reached.add(i)
                    new = cvars[i] - cls
                    cls |= new
                    stack.extend(new)
        seen |= cls
        yield cls, reached


def dep_classes(store: ConstraintStore) -> frozenset[frozenset[str]]:
    """Equivalence classes of the transitive closure of variable
    co-occurrence within a constraint."""
    return frozenset(frozenset(cls) for cls, _ in _sharing_search(store, store.vars))


def class_slice(store: ConstraintStore, x: str) -> ConstraintStore:
    """All constraints whose variables meet the dependency class of x, in
    store order."""
    if x not in store.vars:
        raise ValueError(f"unknown variable {x!r}")
    _, reached = next(_sharing_search(store, [x]))
    return ConstraintStore(c for i, c in enumerate(store) if i in reached)
