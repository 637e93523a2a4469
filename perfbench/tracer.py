"""Span tracer that wraps clpslice's public functions from outside.

Layers are clpslice's modules.  ``enable`` replaces every public
function of a layer module with a timing wrapper, in every clpslice
module that holds a reference to it (so ``clpslice.engine.satisfiable``
and ``clpslice.directional.orient`` are timed as well as the functions
in their home modules); ``disable`` puts every original back.  Nothing
under ``src/`` is edited.

A span is (parent span, op id, name, start, end, size, flag): ``size``
is a per-function measure of the work (store rows for ``satisfiable``,
proof-tree nodes for ``derive``, edges for ``tree_dep_graph``) and
``flag`` is 1 when the call raised or returned an UNSAT verdict.
Spans are only recorded while an op is open; outside one the wrapper
calls straight through, so checks made between ops are not traced.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("parser", "constraints", "engine", "depgraph", "directional",
          "report", "oracle", "cli")

MARK = "_perfbench_original"


def _size_satisfiable(args, result):
    return len(args[0]), 0 if result.is_sat else 1


def _size_derive(args, result):
    return sum(s.tree.node_count() for s in result), 0


def _size_tree_dep_graph(args, result):
    return len(result.edges), 0


PROBES = {
    "constraints.satisfiable": _size_satisfiable,
    "engine.derive": _size_derive,
    "depgraph.tree_dep_graph": _size_tree_dep_graph,
}


def clpslice_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "clpslice" or name.startswith("clpslice."))]


def wrapped_attributes() -> list[str]:
    """Every clpslice module attribute that is currently a wrapper."""
    return [f"{m.__name__}.{attr}" for m in clpslice_modules()
            for attr, value in vars(m).items() if hasattr(value, MARK)]


def assert_unwrapped() -> None:
    leftover = wrapped_attributes()
    if leftover:
        raise RuntimeError(f"tracer left wrapped attributes: {', '.join(leftover)}")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    # -- wrapping ------------------------------------------------------------

    def enable(self) -> None:
        import importlib

        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"clpslice.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[value] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for module in clpslice_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def disable(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        name_id = self.name_id(name)
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (parent, op, name_id, start, perf_counter(), 0, 1)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            size, flag = probe(args, result) if probe is not None else (0, 0)
            spans[index] = (parent, op, name_id, start, end, size, flag)
            return result

        setattr(traced, MARK, fn)
        return traced

    # -- ops -----------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Open the root span of one op; yields its span index."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (-1, op_id, self.name_id(name), start, perf_counter(), 0, 0)
            self._stack.pop()
            self._op = None

    def merge(self, dump: dict) -> None:
        """Add the spans of a child process under the open op's span; the
        child's root spans are replaced by it.  A span's parent always
        precedes it, so one pass renumbers them."""
        parent, op_id = self._stack[-1], self._op
        remap: dict[int, int] = {}
        for i, (p, _op, n, start, end, size, flag) in enumerate(dump["spans"]):
            if p == -1:
                remap[i] = parent
                continue
            remap[i] = len(self.spans)
            self.spans.append((remap[p], op_id, self.name_id(dump["names"][n]),
                               start, end, size, flag))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}

    def write(self, path) -> None:
        """Write the spans once, as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart\tend\tsize\tflag\n")
            for i, (p, op, n, start, end, size, flag) in enumerate(self.spans):
                out.write(f"{i}\t{p}\t{op}\t{self.names[n]}\t{start!r}\t{end!r}\t{size}\t{flag}\n")

