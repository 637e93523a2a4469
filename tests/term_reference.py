"""Recursive reference versions of the term walkers.

The library walks terms with explicit stacks, so that a term's depth is
not bounded by Python's recursion limit.  These are the plain recursive
definitions they replaced, kept as the differential reference for
``test_walkers.py``.  They recurse once per nesting level, so they only
handle terms well within the recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from clpslice.linexpr import LinExpr, NonlinearityError
from clpslice.parser import _Parser
from clpslice.syntax import (
    ARITH_OPS,
    HEAD_LITERAL,
    Compound,
    NumberLiteral,
    Term,
    Variable,
)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def term_subpositions(t: Term):
    yield (), t
    if isinstance(t, Compound):
        for i, arg in enumerate(t.args, start=1):
            for path, sub in term_subpositions(arg):
                yield (i, *path), sub


def vars_of_term(t: Term) -> frozenset[str]:
    if isinstance(t, Variable):
        return frozenset((t.name,))
    if isinstance(t, Compound):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= vars_of_term(a)
        return out
    return frozenset()


def format_address(first: str, literal: int, path: tuple[int, ...]) -> str:
    if path:
        return f"{first}/{literal}/" + ".".join(str(i) for i in path)
    return f"{first}/{literal}"


def render_term(t: Term, mark=None, literal: int = HEAD_LITERAL,
                path: tuple[int, ...] = ()) -> str:
    if isinstance(t, Compound) and t.functor in ARITH_OPS and t.args:
        return render_arith(t, 0)
    if isinstance(t, Variable):
        s = t.name
    elif isinstance(t, NumberLiteral):
        s = str(t.value)
    elif isinstance(t, Compound) and t.args:
        if mark is None:
            args = map(render_term, t.args)
        else:
            paths = [(*path, i) for i in range(1, len(t.args) + 1)]
            args = map(render_term, t.args, repeat(mark), repeat(literal), paths)
        s = f"{t.functor}({', '.join(args)})"
    elif isinstance(t, Compound):
        s = t.functor
    else:
        raise TypeError(f"not a term: {t!r}")
    return s if mark is None else mark(literal, path, s)


def render_arith(t: Term, prec: int, leaf=None) -> str:
    if isinstance(t, Compound) and t.functor in ARITH_OPS and len(t.args) == 2:
        p = _PREC[t.functor]
        left = render_arith(t.args[0], p, leaf)
        right = render_arith(t.args[1], p + 1, leaf)
        if right.startswith("-"):
            right = f"({right})"
        s = f"{left}{t.functor}{right}"
        return f"({s})" if p < prec else s
    if isinstance(t, Compound) and t.functor == "-" and len(t.args) == 1:
        inner = render_arith(t.args[0], 3, leaf)
        return f"-{inner}"
    if isinstance(t, Compound) and t.functor in ARITH_OPS:
        raise ValueError(f"malformed arithmetic term {t!r}")
    s = render_term(t)
    if prec >= 2 and s.startswith("-"):
        s = f"({s})"
    return s if leaf is None else leaf(s)


def occurrences(lhs: Term, rhs: Term) -> tuple[Term, ...]:
    out: list[Term] = []

    def walk(t: Term) -> None:
        if isinstance(t, Compound) and t.functor in ARITH_OPS and t.args:
            for a in t.args:
                walk(a)
        else:
            out.append(t)

    walk(lhs)
    walk(rhs)
    return tuple(out)


def rename_term(t: Term, mapping: dict[str, str]) -> Term:
    if isinstance(t, Variable):
        return Variable(mapping.get(t.name, t.name))
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(rename_term(a, mapping) for a in t.args))
    return t


def walk(t: Term, subst: dict[str, Term]) -> Term:
    while isinstance(t, Variable) and t.name in subst:
        t = subst[t.name]
    return t


def occurs(name: str, t: Term, subst: dict[str, Term]) -> bool:
    t = walk(t, subst)
    if isinstance(t, Variable):
        return t.name == name
    if isinstance(t, Compound):
        return any(occurs(name, a, subst) for a in t.args)
    return False


def deep_resolve(t: Term, subst: dict[str, Term]) -> Term:
    t = walk(t, subst)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(deep_resolve(a, subst) for a in t.args))
    return t


def resolve_term(t: Term, bindings: dict[str, Term], pivots: dict) -> Term:
    """``SolvedState.resolve_term``: walk the bindings, then substitute
    pinned pivots."""
    t = walk(t, bindings)
    if isinstance(t, Variable):
        pivot = pivots.get(t.name)
        if pivot is not None and pivot.is_constant:
            return NumberLiteral(pivot.const)
        return t
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(resolve_term(a, bindings, pivots) for a in t.args))
    return t


def subterm_at(t: Term, path: tuple[int, ...]) -> Term | None:
    """The subterm of ``t`` at ``path``, or None if the path does not exist."""
    for i in path:
        if not isinstance(t, Compound) or not 1 <= i <= len(t.args):
            return None
        t = t.args[i - 1]
    return t


def ground_paths(pattern: Term, value: Term) -> set[tuple[int, ...]]:
    """The paths of ``pattern`` at which ``value`` has a variable-free
    subterm, one ``subterm_at`` and one variable scan per path, as the
    engine's call and success groundness judged them."""
    out = set()
    for path, _sub in term_subpositions(pattern):
        inst = subterm_at(value, path)
        if inst is not None and not vars_of_term(inst):
            out.add(path)
    return out


class RecursiveParser(_Parser):
    """The parser with its recursive ``term`` rule."""

    def term(self) -> Term:
        kind, text, _ = self.tokens[self.pos]
        if kind == "var":
            self.advance()
            return self._variable(text)
        if kind == "int" or self.at("-"):
            return self._number()
        if kind == "name":
            self.advance()
            if self.take("("):
                args = [self.term()]
                while self.take(","):
                    args.append(self.term())
                self.expect(")")
                return Compound(text, tuple(args))
            return Compound(text)
        self.fail("expected a term")
        raise AssertionError  # unreachable


def to_linear(t: Term):
    """``linexpr.to_linear``, recursively."""
    if isinstance(t, Variable):
        return LinExpr.of_var(t.name)
    if isinstance(t, NumberLiteral):
        return LinExpr.of_const(t.value)
    if isinstance(t, Compound) and t.functor in ARITH_OPS:
        if t.functor == "-" and len(t.args) == 1:
            return to_linear(t.args[0]).scale(Fraction(-1))
        if len(t.args) != 2:
            raise NonlinearityError(f"malformed arithmetic term: {t!r}")
        a, b = (to_linear(arg) for arg in t.args)
        if t.functor == "+":
            return a + b
        if t.functor == "-":
            return a - b
        if t.functor == "*":
            if not a.is_constant and not b.is_constant:
                raise NonlinearityError("product of two non-constant expressions")
            return b.scale(a.const) if a.is_constant else a.scale(b.const)
        if not b.is_constant:
            raise NonlinearityError("division by a non-constant expression")
        if not b.const:
            raise NonlinearityError("division by zero")
        return a.scale(Fraction(1) / b.const)
    raise NonlinearityError(f"non-arithmetic term in constraint: {t!r}")
