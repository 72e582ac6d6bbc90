"""Undirected labeled graphs, permutation groups, and graph symmetries.

Vertices are numbered 1..p throughout; edges are unordered pairs without
loops.  Everything here is exact integer combinatorics on small graphs:
automorphisms are found by backtracking over vertex images and subgroups
by closing generating sets, so the routines enforce explicit size limits.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .errors import ScopeError, ShapeError

AUTOMORPHISM_VERTEX_LIMIT = 10
SUBGROUP_ORDER_LIMIT = 120


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 1-based vertex indices and labels."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @classmethod
    def build(cls, labels, edges) -> "Graph":
        labels = tuple(str(s) for s in labels)
        p = len(labels)
        if p == 0:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= p and 1 <= j <= p):
                raise ValueError(f"edge ({i},{j}) outside 1..{p}")
            normalized.add((min(i, j), max(i, j)))
        return cls(labels=labels, edges=frozenset(normalized))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(j if i == v else i for i, j in self.edges if v in (i, j))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def graph_from_dict(data: dict) -> Graph:
    try:
        return Graph.build(data["labels"], data["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph object needs 'labels' and 'edges': {exc}") from exc


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of 1..p stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self after other: (self.compose(other))(i) = self(other(i))."""
        if other.degree != self.degree:
            raise ShapeError("cannot compose permutations of different degrees")
        return Permutation(tuple(self.images[w - 1] for w in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, w in enumerate(self.images, start=1):
            inv[w - 1] = i
        return Permutation(tuple(inv))

    def cyclic_order(self) -> int:
        n, x = 1, self
        while not x.is_identity():
            x = x.compose(self)
            n += 1
        return n

    def cycle_string(self) -> str:
        seen: set[int] = set()
        parts = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            if len(cycle) > 1:
                parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) or "e"

    @classmethod
    def from_cycle_string(cls, text: str, degree: int) -> "Permutation":
        text = text.strip()
        if text in ("", "e", "()"):
            return cls.identity(degree)
        if not re.fullmatch(r"(\(\s*\d+(\s+\d+)*\s*\))+", text):
            raise ValueError(f"cannot parse cycle notation: {text!r}")
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            cycle = [int(tok) for tok in body.split()]
            if any(not 1 <= v <= degree for v in cycle):
                raise ValueError(f"cycle entry outside 1..{degree} in {text!r}")
            if len(set(cycle)) != len(cycle) or seen & set(cycle):
                raise ValueError(f"cycles must be disjoint in {text!r}")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))


def _close(degree: int, seed) -> frozenset[Permutation]:
    """Smallest subgroup containing every permutation in seed."""
    gens = [g for g in seed if not g.is_identity()]
    ident = Permutation.identity(degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = a.compose(g)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elems)


def _minimal_generators(degree: int, elements) -> tuple[Permutation, ...]:
    """Greedy small generating set: repeatedly add the element that grows the
    generated subgroup the most, preferring high cyclic order then image order."""
    all_set = frozenset(elements)
    if len(all_set) == 1:
        return ()
    candidates = sorted(
        (e for e in all_set if not e.is_identity()),
        key=lambda e: (-e.cyclic_order(), e.images),
    )
    chosen: list[Permutation] = []
    current = frozenset({Permutation.identity(degree)})
    while current != all_set:
        best = None
        best_closed = current
        for e in candidates:
            if e in current:
                continue
            closed = _close(degree, list(chosen) + [e])
            if len(closed) > len(best_closed):
                best, best_closed = e, closed
        chosen.append(best)
        current = best_closed
    return tuple(chosen)


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """Finite permutation group with its full element list materialized."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @classmethod
    def generate(cls, degree: int, generators) -> "PermutationGroup":
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise ShapeError(f"generator degree {g.degree} != {degree}")
        elems = _close(degree, gens)
        return cls(degree=degree, generators=gens, elements=tuple(sorted(elems)))

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls.generate(degree, ())

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return self.degree == other.degree and set(self.elements) <= set(other.elements)

    def minimal_generators(self) -> tuple[Permutation, ...]:
        return _minimal_generators(self.degree, self.elements)


def automorphism_group(g: Graph) -> PermutationGroup:
    """All vertex permutations preserving adjacency, by pruned backtracking."""
    p = g.vertex_count
    if p > AUTOMORPHISM_VERTEX_LIMIT:
        raise ScopeError(
            f"automorphism search is brute force, limited to "
            f"{AUTOMORPHISM_VERTEX_LIMIT} vertices (got {p})"
        )
    nbrs = {v: g.neighbors(v) for v in range(1, p + 1)}
    images = [0] * p
    used = [False] * (p + 1)
    found: list[Permutation] = []

    def extend(v: int) -> None:
        if v > p:
            found.append(Permutation(tuple(images)))
            return
        for w in range(1, p + 1):
            if used[w]:
                continue
            if all((u in nbrs[v]) == (images[u - 1] in nbrs[w]) for u in range(1, v)):
                images[v - 1] = w
                used[w] = True
                extend(v + 1)
                used[w] = False

    extend(1)
    elems = tuple(sorted(found))
    return PermutationGroup(
        degree=p, generators=_minimal_generators(p, elems), elements=elems
    )


def enumerate_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """Every subgroup exactly once, sorted by order then by element list.

    Cyclic extension: starting from the trivial group, each newly found
    subgroup H is grown by every element g outside it, closing the generators
    H was found with plus g, until a round finds nothing new.  Every subgroup
    ends a chain of such one-element extensions from the trivial group, so the
    search reaches the complete subgroup lattice.
    """
    if group.order > SUBGROUP_ORDER_LIMIT:
        raise ScopeError(
            f"subgroup enumeration is brute force, limited to order "
            f"{SUBGROUP_ORDER_LIMIT} (got {group.order})"
        )
    degree = group.degree
    trivial = frozenset({Permutation.identity(degree)})
    subs: dict[frozenset[Permutation], tuple[Permutation, ...]] = {trivial: ()}
    frontier = [trivial]
    while frontier:
        new = []
        for h in frontier:
            for g in group.elements:
                if g in h:
                    continue
                gens = subs[h] + (g,)
                k = _close(degree, gens)
                if k not in subs:
                    subs[k] = gens
                    new.append(k)
        frontier = new
    ordered = sorted(
        subs, key=lambda h: (len(h), tuple(e.images for e in sorted(h)))
    )
    return [
        PermutationGroup(
            degree=degree,
            generators=_minimal_generators(degree, h),
            elements=tuple(sorted(h)),
        )
        for h in ordered
    ]


def _is_chordal(g: Graph) -> bool:
    # Repeated simplicial-vertex elimination; succeeds iff a perfect
    # elimination ordering exists.
    remaining = set(range(1, g.vertex_count + 1))
    nbrs = {v: set(g.neighbors(v)) for v in remaining}
    while remaining:
        for v in sorted(remaining):
            around = nbrs[v] & remaining
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sorted(around), 2)):
                remaining.discard(v)
                break
        else:
            return False
    return True


def _has_induced_p4(g: Graph) -> bool:
    # Three induced edges on four vertices with degree multiset {1,1,2,2}
    # is exactly a path on four vertices.
    for quad in itertools.combinations(range(1, g.vertex_count + 1), 4):
        pairs = [(a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)]
        if len(pairs) != 3:
            continue
        deg = {v: 0 for v in quad}
        for a, b in pairs:
            deg[a] += 1
            deg[b] += 1
        if sorted(deg.values()) == [1, 1, 2, 2]:
            return True
    return False


def is_homogeneous_graph(g: Graph) -> bool:
    """True iff the graph is chordal and contains no induced path on 4 vertices."""
    return _is_chordal(g) and not _has_induced_p4(g)
