"""Syntax of CLP(Q) clause programs: terms, clauses, positions, rendering.

Programs are Edinburgh-style clause sequences terminated by ``.``; linear
rational constraints appear inside curly brackets in clause bodies.  Every
atom, constraint occurrence, and subterm has exactly one position, written
textually as ``clause/literal/path``:

* ``clause`` is the 0-based clause ordinal, or ``g`` for a goal clause;
* ``literal`` is 0 for the head and counts body items from 1;
* ``path`` is a dot-separated sequence of 1-based indices descending into
  term arguments, or indexing the variable/constant occurrences of a
  constraint (the empty path denotes the atom or constraint itself).

Tree positions use the same scheme with a node index in place of the
clause ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import is_not
from typing import Callable, Iterator, Union

#: Pseudo clause index used for goal positions, rendered as "g".
GOAL_CLAUSE = -1

HEAD_LITERAL = 0

#: Functors reserved for arithmetic inside constraint expressions.
ARITH_OPS = frozenset({"+", "-", "*", "/"})

RELATIONS = ("=", "<", "<=", ">", ">=")


class AddressError(ValueError):
    """Malformed or out-of-range position address."""


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NumberLiteral:
    """An exact rational literal (lowest terms, positive denominator)."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Compound:
    """A compound term; with zero arguments, an atom constant.

    Inside constraint expressions the functors ``+ - * /`` encode
    arithmetic; everywhere else functors are uninterpreted.
    """

    functor: str
    args: tuple[Term, ...] = ()

    def __hash__(self) -> int:
        """The dataclass hash, ``hash((functor, args))``, kept on each
        compound once computed.  Compounds not hashed yet are hashed
        children first, so hashing an argument tuple finds every compound
        argument's hash kept and no call nests deeper than one level."""
        cached = self.__dict__.get("_hash")
        if cached is not None:
            return cached
        order = []
        stack = [self]
        while stack:
            t = stack.pop()
            order.append(t)
            stack.extend([a for a in t.args
                          if a.__class__ is Compound and "_hash" not in a.__dict__])
        # reversed pre-order: every compound after the arguments it pushed
        for t in reversed(order):
            object.__setattr__(t, "_hash", hash((t.functor, t.args)))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        # string hashes differ between processes: pickle no kept hash
        return {"functor": self.functor, "args": self.args}

    def __eq__(self, other: object) -> bool:
        """The dataclass equality, compared pair by pair off a stack."""
        if other.__class__ is not Compound:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is not Compound:
                if a != b:
                    return False
            elif a.functor != b.functor or len(a.args) != len(b.args):
                return False
            else:
                pairs.extend(zip(a.args, b.args))
        return True

    def __str__(self) -> str:
        return render_term(self)


Term = Union[Variable, NumberLiteral, Compound]


@dataclass(frozen=True)
class Atom:
    """An atomic formula of a defined predicate."""

    pred: str
    args: tuple[Term, ...] = ()

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.pred, len(self.args))

    def __str__(self) -> str:
        return render_atom(self)


@dataclass(frozen=True)
class ConstraintExpr:
    """A linear (in)equality between two arithmetic expressions.

    Both sides are kept as parsed syntax trees; their variable and
    constant leaves, enumerated left to right across ``lhs`` then
    ``rhs``, form the occurrence list addressed by constraint positions.
    """

    relation: str
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def occurrences(self) -> tuple[Term, ...]:
        out: list[Term] = []
        stack = [self.rhs, self.lhs]
        while stack:
            t = stack.pop()
            if isinstance(t, Compound) and t.functor in ARITH_OPS and t.args:
                stack.extend(reversed(t.args))
            else:
                out.append(t)
        return tuple(out)

    def __str__(self) -> str:
        return render_constraint(self)


#: A body item is a call (Atom) or a constraint (ConstraintExpr).
BodyItem = Union[Atom, ConstraintExpr]


@dataclass(frozen=True)
class Clause:
    """A clause ``head :- body``; a goal is a clause without a head."""

    head: Atom | None
    body: tuple[BodyItem, ...] = ()

    def call_literals(self) -> tuple[int, ...]:
        """Literal indices of the non-constraint body atoms, in order."""
        return tuple(
            k for k, item in enumerate(self.body, start=1) if isinstance(item, Atom)
        )

    def __str__(self) -> str:
        return render_clause(self)


@dataclass(frozen=True, order=True)
class ProgramPosition:
    """Address of an atom, constraint, or subterm in a program or goal."""

    clause: int
    literal: int
    path: tuple[int, ...] = ()

    @property
    def address(self) -> str:
        return _format_address("g" if self.clause == GOAL_CLAUSE else str(self.clause),
                               self.literal, self.path)

    def __str__(self) -> str:
        return self.address


@dataclass(frozen=True, order=True)
class TreePosition:
    """Address of a syntactic element in a derivation tree: a skeleton
    node paired with a position inside the clause labeling it."""

    node: int
    literal: int
    path: tuple[int, ...] = ()

    @property
    def address(self) -> str:
        return _format_address(str(self.node), self.literal, self.path)

    def __str__(self) -> str:
        return self.address


def _format_address(first: str, literal: int, path: tuple[int, ...]) -> str:
    if path:
        return f"{first}/{literal}/" + ".".join(map(str, path))
    return f"{first}/{literal}"


def _parse_address_parts(text: str) -> tuple[str, int, tuple[int, ...]]:
    parts = text.strip().split("/")
    if len(parts) not in (2, 3) or not parts[0]:
        raise AddressError(f"malformed address {text!r}; expected clause/literal/path")
    try:
        literal = int(parts[1])
        path = tuple(int(p) for p in parts[2].split(".")) if len(parts) == 3 and parts[2] else ()
    except ValueError:
        raise AddressError(f"malformed address {text!r}") from None
    return parts[0], literal, path


def parse_program_address(text: str) -> ProgramPosition:
    first, literal, path = _parse_address_parts(text)
    if first == "g":
        clause = GOAL_CLAUSE
    else:
        try:
            clause = int(first)
        except ValueError:
            raise AddressError(f"bad clause index {first!r} in {text!r}") from None
    return ProgramPosition(clause, literal, path)


def parse_tree_address(text: str) -> TreePosition:
    first, literal, path = _parse_address_parts(text)
    try:
        node = int(first)
    except ValueError:
        raise AddressError(f"bad node index {first!r} in {text!r}") from None
    return TreePosition(node, literal, path)


# ---------------------------------------------------------------------------
# Position enumeration
#
# Terms may nest deeper than Python's recursion limit, so every walker
# below keeps an explicit stack and visits each subterm once.

def term_subpositions(t: Term, prefix: tuple[int, ...] = ()
                      ) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Yield ``(prefix + path, subterm)`` for every subterm of ``t``,
    pre-order."""
    yield prefix, t
    if not (isinstance(t, Compound) and t.args):
        return
    stack = [((*prefix, i), t.args[i - 1]) for i in range(len(t.args), 0, -1)]
    while stack:
        path, t = stack.pop()
        yield path, t
        if isinstance(t, Compound) and t.args:
            stack.extend([((*path, i), t.args[i - 1]) for i in range(len(t.args), 0, -1)])


def ground_paths(pattern: Term, value: Term, prefix: tuple[int, ...] = ()
                 ) -> list[tuple[int, ...]]:
    """The paths of ``pattern`` (after ``prefix``) at which ``value`` has
    a variable-free subterm.

    One post-order pass flags the variable-free subterms of ``value`` by
    identity, so shared subterms are judged once; then ``pattern`` is
    walked along ``value``, down the paths the two have in common.
    """
    if not (isinstance(value, Compound) and value.args):
        return [] if isinstance(value, Variable) else [prefix]
    if not (isinstance(pattern, Compound) and pattern.args):
        return [] if vars_of_term(value) else [prefix]
    ground: dict[int, bool] = {}
    pending: list[tuple[Term, bool]] = [(value, False)]
    while pending:
        t, expanded = pending.pop()
        if expanded:
            ground[id(t)] = all([ground[id(a)] for a in t.args])
        elif id(t) not in ground:
            if isinstance(t, Compound) and t.args:
                pending.append((t, True))
                pending.extend([(a, False) for a in t.args])
            else:
                ground[id(t)] = not isinstance(t, Variable)
    out = []
    stack = [(prefix, pattern, value)]
    while stack:
        path, p, v = stack.pop()
        if ground[id(v)]:
            out.append(path)
        if isinstance(p, Compound) and isinstance(v, Compound):
            stack.extend([((*path, i), pa, va)
                          for i, (pa, va) in enumerate(zip(p.args, v.args), start=1)])
    return out


def item_positions(item: BodyItem) -> Iterator[tuple[tuple[int, ...], object]]:
    """Positions within a single literal: the item itself plus its
    argument subterms (atoms) or occurrence leaves (constraints)."""
    yield (), item
    if isinstance(item, Atom):
        for i, arg in enumerate(item.args, start=1):
            yield from term_subpositions(arg, (i,))
    else:
        for k, leaf in enumerate(item.occurrences(), start=1):
            yield (k,), leaf


def clause_positions(clause: Clause) -> Iterator[tuple[int, tuple[int, ...], object]]:
    """Yield ``(literal, path, element)`` for every position of a clause."""
    if clause.head is not None:
        for path, elem in item_positions(clause.head):
            yield HEAD_LITERAL, path, elem
    for k, item in enumerate(clause.body, start=1):
        for path, elem in item_positions(item):
            yield k, path, elem


class Program:
    """A parsed program: an ordered clause sequence with a total,
    bijective table from positions to syntactic elements.  The table is
    built on first read: deriving never reads it, only program slicing,
    position mode and ``element_at`` do."""

    def __init__(self, clauses: tuple[Clause, ...] | list[Clause]):
        self.clauses: tuple[Clause, ...] = tuple(clauses)
        by_indicator: dict[tuple[str, int], list[int]] = {}
        for ci, clause in enumerate(self.clauses):
            if clause.head is None:
                raise ValueError(f"clause {ci} has no head; goals are parsed separately")
            by_indicator.setdefault(clause.head.indicator, []).append(ci)
        self._by_indicator = by_indicator

    @cached_property
    def position_table(self) -> dict[ProgramPosition, object]:
        return {
            ProgramPosition(ci, literal, path): elem
            for ci, clause in enumerate(self.clauses)
            for literal, path, elem in clause_positions(clause)
        }

    def clauses_for(self, indicator: tuple[str, int]) -> tuple[int, ...]:
        """Indices of the clauses defining a predicate, in textual order."""
        return tuple(self._by_indicator.get(indicator, ()))

    def element_at(self, pos: ProgramPosition) -> object:
        try:
            return self.position_table[pos]
        except KeyError:
            raise AddressError(f"no such program position: {pos.address}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self.clauses == other.clauses

    def __repr__(self) -> str:
        return f"Program({len(self.clauses)} clauses)"


def goal_positions(goal: Clause) -> dict[ProgramPosition, object]:
    """Position table of a goal clause, under the pseudo clause index."""
    if goal.head is not None:
        raise ValueError("goal clauses have no head")
    return {
        ProgramPosition(GOAL_CLAUSE, literal, path): elem
        for literal, path, elem in clause_positions(goal)
    }


def position_of(program: Program, addr: str) -> ProgramPosition:
    """Resolve a textual ``clause/literal/path`` address against a program."""
    pos = parse_program_address(addr)
    if pos.clause == GOAL_CLAUSE:
        raise AddressError("goal addresses are not program positions")
    program.element_at(pos)
    return pos


# ---------------------------------------------------------------------------
# Variables and renaming

def vars_of_term(t: Term) -> frozenset[str]:
    if isinstance(t, Variable):
        return frozenset((t.name,))
    if not isinstance(t, Compound):
        return frozenset()
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Variable):
            out.add(t.name)
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return frozenset(out)


def map_term(t: Term, visit: Callable[[Term], Term]) -> Term:
    """Rebuild ``t`` top-down: each subterm ``s`` becomes ``visit(s)``,
    and a compound result has its arguments rebuilt the same way.  A
    compound whose arguments all come back unchanged is kept, not
    copied."""
    t = visit(t)
    if not (isinstance(t, Compound) and t.args):
        return t
    # open compounds, each with the arguments rebuilt so far
    stack: list[tuple[Compound, list[Term]]] = [(t, [])]
    while True:
        node, done = stack[-1]
        args = node.args
        while len(done) < len(args):
            sub = visit(args[len(done)])
            if isinstance(sub, Compound) and sub.args:
                stack.append((sub, []))
                break
            done.append(sub)
        else:
            stack.pop()
            if any(map(is_not, done, args)):
                node = Compound(node.functor, tuple(done))
            if not stack:
                return node
            stack[-1][1].append(node)


def vars_of(obj: object) -> frozenset[str]:
    """Variables of a term, atom, constraint, or clause."""
    if isinstance(obj, (Variable, NumberLiteral, Compound)):
        return vars_of_term(obj)
    if isinstance(obj, Atom):
        out: frozenset[str] = frozenset()
        for a in obj.args:
            out |= vars_of_term(a)
        return out
    if isinstance(obj, ConstraintExpr):
        return vars_of_term(obj.lhs) | vars_of_term(obj.rhs)
    if isinstance(obj, Clause):
        out = frozenset()
        if obj.head is not None:
            out |= vars_of(obj.head)
        for item in obj.body:
            out |= vars_of(item)
        return out
    raise TypeError(f"no variables in {type(obj).__name__}")


def rename_term(t: Term, mapping: dict[str, str]) -> Term:
    return map_term(t, lambda s: Variable(mapping.get(s.name, s.name))
                    if isinstance(s, Variable) else s)


def rename_clause(clause: Clause, tag: int) -> Clause:
    """A fresh variant of ``clause``: every variable ``X`` becomes
    ``X#tag``.  Structure, and hence the position set, is unchanged."""
    mapping = {name: f"{name}#{tag}" for name in vars_of(clause)}

    def ren_atom(a: Atom) -> Atom:
        return Atom(a.pred, tuple(rename_term(t, mapping) for t in a.args))

    def ren_item(item: BodyItem) -> BodyItem:
        if isinstance(item, Atom):
            return ren_atom(item)
        return ConstraintExpr(item.relation,
                              rename_term(item.lhs, mapping),
                              rename_term(item.rhs, mapping))

    head = ren_atom(clause.head) if clause.head is not None else None
    return Clause(head, tuple(ren_item(item) for item in clause.body))


def strip_tag(name: str) -> str:
    """The source variable name behind a renamed variable."""
    return name.split("#", 1)[0]


def strip_tags_term(t: Term) -> Term:
    return map_term(t, lambda s: Variable(strip_tag(s.name)) if isinstance(s, Variable) else s)


# ---------------------------------------------------------------------------
# Rendering
#
# An optional ``mark(literal, path, text)`` hook rewrites the rendered
# text of the element at that position, as ``clause_positions`` names it.

Mark = Callable[[int, tuple[int, ...], str], str]


def render_term(t: Term, mark: Mark | None = None, literal: int = HEAD_LITERAL,
                path: tuple[int, ...] = (), texts: dict[int, str] | None = None) -> str:
    """Render a term found at ``path`` of ``literal``.  Constraint
    arithmetic is rendered infix and never marked: its positions are
    occurrences, marked through ``render_constraint``.

    Post-order, one pass: each subterm's text is built once, from its
    arguments' texts, which wait on a stack for their compound.
    ``texts``, for unmarked calls, keeps the text of every compound by
    identity across calls: a caller rendering many subterms of one term
    passes one dict, and a compound already in it is not walked again.
    """
    out: list[str] = []
    stack = [(t, path, False)]
    while stack:
        t, path, expanded = stack.pop()
        if isinstance(t, Compound) and t.args:
            if t.functor in ARITH_OPS:
                out.append(_render_arith(t, 0))
                continue
            if texts is not None and id(t) in texts:
                out.append(texts[id(t)])
                continue
            n = len(t.args)
            if not expanded:
                stack.append((t, path, True))
                # unmarked calls build no paths
                if mark is None:
                    stack.extend([(a, path, False) for a in reversed(t.args)])
                else:
                    stack.extend([(t.args[i - 1], (*path, i), False) for i in range(n, 0, -1)])
                continue
            s = f"{t.functor}({', '.join(out[-n:])})"
            del out[-n:]
            if texts is not None:
                texts[id(t)] = s
        else:
            s = _leaf_text(t)
        out.append(s if mark is None else mark(literal, path, s))
    return out[0]


def _leaf_text(t: Term) -> str:
    """The text of a variable, a number or an argument-less compound."""
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, NumberLiteral):
        return str(t.value)
    if isinstance(t, Compound):
        return t.functor
    raise TypeError(f"not a term: {t!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render_arith(t: Term, prec: int, leaf: Callable[[str], str] | None = None) -> str:
    """Infix rendering; ``leaf``, if given, rewrites each variable or
    constant occurrence's text, left to right.  Post-order like
    ``render_term``; ``prec`` is the precedence the context demands."""
    texts: list[str] = []
    stack = [(t, prec, False)]
    while stack:
        t, prec, expanded = stack.pop()
        if isinstance(t, Compound) and t.functor in ARITH_OPS and len(t.args) == 2:
            p = _PREC[t.functor]
            if not expanded:
                stack += [(t, prec, True), (t.args[1], p + 1, False), (t.args[0], p, False)]
                continue
            right = texts.pop()
            if right.startswith("-"):
                right = f"({right})"
            s = f"{texts.pop()}{t.functor}{right}"
            texts.append(f"({s})" if p < prec else s)
        elif isinstance(t, Compound) and t.functor == "-" and len(t.args) == 1:
            if not expanded:
                stack += [(t, prec, True), (t.args[0], 3, False)]
                continue
            texts.append(f"-{texts.pop()}")
        elif isinstance(t, Compound) and t.functor in ARITH_OPS:
            raise ValueError(f"malformed arithmetic term {t!r}")
        else:
            s = render_term(t)
            if prec >= 2 and s.startswith("-"):
                s = f"({s})"
            texts.append(s if leaf is None else leaf(s))
    return texts[0]


def render_atom(a: Atom, mark: Mark | None = None, literal: int = HEAD_LITERAL) -> str:
    args = ", ".join(render_term(t, mark, literal, (i,)) for i, t in enumerate(a.args, start=1))
    s = f"{a.pred}({args})" if a.args else a.pred
    return s if mark is None else mark(literal, (), s)


def render_constraint(c: ConstraintExpr,
                      mark: Callable[[int, str], str] | None = None) -> str:
    """Infix rendering; ``mark(k, text)``, if given, rewrites the text of
    the k-th occurrence (the one at constraint path ``(k,)``)."""
    occurrence = count(1)
    leaf = None if mark is None else (lambda s: mark(next(occurrence), s))
    return f"{_render_arith(c.lhs, 0, leaf)}{c.relation}{_render_arith(c.rhs, 0, leaf)}"


def render_body_item(item: BodyItem, mark: Mark | None = None, literal: int = 1) -> str:
    if isinstance(item, Atom):
        return render_atom(item, mark, literal)
    leaf = None if mark is None else (lambda k, s: mark(literal, (k,), s))
    s = "{" + render_constraint(item, leaf) + "}"
    return s if mark is None else mark(literal, (), s)


def render_clause(clause: Clause, mark: Mark | None = None) -> str:
    body = ", ".join(render_body_item(item, mark, lit)
                     for lit, item in enumerate(clause.body, start=1))
    if clause.head is None:
        return f":- {body}."
    head = render_atom(clause.head, mark)
    if not clause.body:
        return f"{head}."
    return f"{head} :- {body}."


def render_program(program: Program) -> str:
    return "\n".join(render_clause(c) for c in program.clauses) + ("\n" if program.clauses else "")


def render_element(elem: object, texts: dict[int, str] | None = None) -> str:
    """Render whatever a position table stores: atom, constraint, or
    term; ``texts`` as for ``render_term``."""
    if isinstance(elem, Atom):
        return render_atom(elem)
    if isinstance(elem, ConstraintExpr):
        return render_constraint(elem)
    return render_term(elem, texts=texts)  # type: ignore[arg-type]
