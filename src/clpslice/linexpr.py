"""Exact linear forms over the rationals, with linearity checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .syntax import ARITH_OPS, Compound, NumberLiteral, Term, Variable


class NonlinearityError(ValueError):
    """A constraint expression is not linear (or not arithmetic at all)."""


@dataclass
class LinExpr:
    """``sum(coeffs[v] * v) + const``; zero coefficients are dropped."""

    coeffs: dict[str, Fraction] = field(default_factory=dict)
    const: Fraction = Fraction(0)

    @classmethod
    def of_var(cls, name: str) -> "LinExpr":
        return cls({name: Fraction(1)})

    @classmethod
    def of_const(cls, value: Fraction | int) -> "LinExpr":
        return cls({}, Fraction(value))

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def __add__(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            s = coeffs.get(v, Fraction(0)) + c
            if s:
                coeffs[v] = s
            else:
                coeffs.pop(v, None)
        return LinExpr(coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(Fraction(-1))

    def scale(self, k: Fraction) -> "LinExpr":
        if not k:
            return LinExpr()
        return LinExpr({v: c * k for v, c in self.coeffs.items()}, self.const * k)

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        """Replace ``var`` by an affine form."""
        if var not in self.coeffs:
            return self
        coeffs = dict(self.coeffs)
        k = coeffs.pop(var)
        return LinExpr(coeffs, self.const) + replacement.scale(k)

    def evaluate(self, valuation: dict[str, Fraction]) -> Fraction:
        total = self.const
        for v, c in self.coeffs.items():
            total += c * Fraction(valuation[v])
        return total

    def normalized(self) -> tuple[tuple[tuple[str, Fraction], ...], Fraction]:
        """Canonical key: coefficients scaled so the leading one is 1."""
        if not self.coeffs:
            return ((), self.const)
        lead = self.coeffs[min(self.coeffs)]
        scaled = self.scale(Fraction(1) / abs(lead) if lead else Fraction(1))
        return (tuple(sorted(scaled.coeffs.items())), scaled.const)

    def __str__(self) -> str:
        parts = [f"{c}*{v}" for v, c in sorted(self.coeffs.items())]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def to_linear(t: Term) -> LinExpr:
    """Compile an arithmetic syntax tree into a linear form.

    Raises NonlinearityError when two non-constant factors are multiplied,
    when a divisor is non-constant or zero, or when a non-arithmetic
    compound appears.

    Post-order over an explicit stack: each operator combines the forms
    of its operands, which wait on a value stack, left operand first.
    """
    forms: list[LinExpr] = []
    stack = [(t, False)]
    while stack:
        t, expanded = stack.pop()
        if isinstance(t, Variable):
            forms.append(LinExpr.of_var(t.name))
        elif isinstance(t, NumberLiteral):
            forms.append(LinExpr.of_const(t.value))
        elif not (isinstance(t, Compound) and t.functor in ARITH_OPS):
            raise NonlinearityError(f"non-arithmetic term in constraint: {t!r}")
        elif not expanded:
            if len(t.args) != 2 and not (t.functor == "-" and len(t.args) == 1):
                raise NonlinearityError(f"malformed arithmetic term: {t!r}")
            stack.append((t, True))
            stack.extend([(a, False) for a in reversed(t.args)])
        elif len(t.args) == 1:
            forms.append(forms.pop().scale(Fraction(-1)))
        else:
            b = forms.pop()
            forms.append(_combine(t.functor, forms.pop(), b))
    return forms[0]


def _combine(op: str, a: LinExpr, b: LinExpr) -> LinExpr:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        if not a.is_constant and not b.is_constant:
            raise NonlinearityError("product of two non-constant expressions")
        return b.scale(a.const) if a.is_constant else a.scale(b.const)
    if not b.is_constant:
        raise NonlinearityError("division by a non-constant expression")
    if not b.const:
        raise NonlinearityError("division by zero")
    return a.scale(Fraction(1) / b.const)
