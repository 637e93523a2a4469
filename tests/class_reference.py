"""Union-find reference for the store's variable-sharing classes.

The library finds a class by one search over a variable -> constraint
index.  These are the union-find definitions it replaced, kept as the
differential reference for ``test_constraints.py``.
"""

from __future__ import annotations

from clpslice import ConstraintStore


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> frozenset[frozenset]:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return frozenset(frozenset(g) for g in groups.values())


def dep_classes(store: ConstraintStore) -> frozenset[frozenset[str]]:
    uf = UnionFind()
    for v in store.vars:
        uf.add(v)
    for c in store:
        cvars = sorted(c.variables())
        for other in cvars[1:]:
            uf.union(cvars[0], other)
    return uf.classes()


def class_slice(store: ConstraintStore, x: str) -> ConstraintStore:
    if x not in store.vars:
        raise ValueError(f"unknown variable {x!r}")
    cls = next(c for c in dep_classes(store) if x in c)
    return ConstraintStore(c for c in store if c.variables() & cls)
