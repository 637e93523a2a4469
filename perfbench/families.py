"""Program families of the benchmark and their expected answers.

Every expected answer is computed here from integer recurrences and
``fractions.Fraction`` alone; nothing in this file calls clpslice, so
the checks built on it do not trust the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SUM = """\
sum(0, 0).
sum(N, S) :- {N >= 1, S = N + S1, N1 = N - 1}, sum(N1, S1).
"""

FIB = """\
fib(0, 1).
fib(1, 1).
fib(N, F) :- {N >= 2, N1 = N - 1, N2 = N - 2, F = F1 + F2}, fib(N1, F1), fib(N2, F2).
"""

MORTGAGE = """\
mortgage(P, 0, B) :- {B = P}.
mortgage(P, T, B) :- {T >= 1, T1 = T - 1, P1 = P * 11/10 - 10}, mortgage(P1, T1, B).
"""

ADD = """\
add(z, Y, Y).
add(s(X), Y, s(Z)) :- add(X, Y, Z).
"""

PROGRAMS = {"sum": SUM, "fib": FIB, "mortgage": MORTGAGE, "add": ADD}

RATE = Fraction(11, 10)
PAYMENT = 10


@dataclass(frozen=True)
class Peano:
    """The numeral s^k(z)."""

    k: int


@dataclass(frozen=True)
class Expected:
    """What a derive call must return.

    ``error`` is the exact ``NoSolution`` message when no proof tree
    exists; otherwise ``solutions`` lists, in search order, the node
    count of each proof tree and the values of goal variables in it.
    """

    error: str | None = None
    solutions: tuple[tuple[int, dict], ...] = field(default=())


NO_PROOF = "goal has no proof tree"
DEPTH_EXCEEDED = "depth limit exceeded with no proof tree"


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def fib(n: int) -> int:
    """fib(0) = fib(1) = 1, as in the FIB program."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_calls(n: int) -> int:
    """calls(n) = 1 + calls(n-1) + calls(n-2), calls(0) = calls(1) = 1."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, 1 + a + b
    return b if n >= 1 else a


def mortgage_balance(principal: Fraction, periods: int) -> Fraction:
    for _ in range(periods):
        principal = principal * RATE - PAYMENT
    return principal


def mortgage_principal(balance: Fraction, periods: int) -> Fraction:
    for _ in range(periods):
        balance = (balance + PAYMENT) / RATE
    return balance


def random_principal(rng) -> Fraction:
    """A rational amount above 100 with a non-integer value, so forward
    balances grow."""
    return Fraction(rng.randrange(10001, 99999, 2), 100)


def number(value: Fraction | int) -> str:
    """A CLP(Q) literal: ``a/b`` for a non-integer rational."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def peano(k: int) -> str:
    return "s(" * k + "z" + ")" * k


# Proof-tree node counts and executed argument positions (the top-level
# argument slots of every atom in the tree, goal included).

def sum_nodes(n: int) -> int:
    return n + 2


def sum_argpos(n: int) -> int:
    return 2 + 4 * n + 2


def fib_nodes(n: int) -> int:
    return 1 + fib_calls(n)


def fib_argpos(n: int) -> int:
    calls = fib_calls(n)
    internal = (calls - 1) // 2
    return 2 + 6 * internal + 2 * (calls - internal)


def mortgage_nodes(t: int) -> int:
    return t + 2


def mortgage_argpos(t: int) -> int:
    return 3 + 6 * t + 3


def add_nodes(a: int) -> int:
    return a + 2


def add_argpos(a: int) -> int:
    return 3 + 6 * a + 3


SHAPES = {
    "sum": (sum_nodes, sum_argpos),
    "fib": (fib_nodes, fib_argpos),
    "mortgage": (mortgage_nodes, mortgage_argpos),
    "add": (add_nodes, add_argpos),
}


def shape(family: str, size: int) -> tuple[int, int]:
    """(nodes, argument positions) of the forward proof tree."""
    nodes, argpos = SHAPES[family]
    return nodes(size), argpos(size)


def value_bound(family: str, size: int) -> int:
    """The largest value any variable takes in the forward proof tree
    of an integral family; an oracle box must reach it."""
    if family == "sum":
        return triangular(size)
    if family == "fib":
        return max(fib(size), size)
    raise ValueError(f"family {family} has no integral value bound")
