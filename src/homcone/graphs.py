"""Undirected labeled graphs, permutation groups, and graph symmetries.

Vertices are numbered 1..p throughout; edges are unordered pairs without
loops.  Everything here is exact integer combinatorics on small graphs:
automorphisms are found by backtracking over vertex images, so the routines
enforce explicit size limits.  Subgroup enumeration and generator search
work on an integer multiplication table of the group (element indices in
sorted element order) and store each subgroup as an ``int`` bitmask over
those indices; ``Permutation`` objects are built only for what is returned.
Each group builds its table at most once (``PermutationGroup.cayley``):
``automorphism_group`` hands the table it built to the group it returns,
and ``enumerate_subgroups`` reads it from there.  The subgroup <H, g> of an
already closed H is formed by a walk over the right cosets of H, adding a
whole coset per new representative, not by closing from the identity, and
only one subgroup per conjugacy class is extended.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ScopeError, ShapeError

AUTOMORPHISM_VERTEX_LIMIT = 10
# 7! = 5040, the order of Aut(K7): the multiplication table of that order
# takes about 0.2 GiB
AUTOMORPHISM_ORDER_LIMIT = 5040
# 6! = 720, the order of Aut(K6), whose 1455 subgroups fall in 56 classes
SUBGROUP_ORDER_LIMIT = 720


def _vertex_pair(edge) -> tuple[int, int]:
    """The two vertex indices of an edge, which must be a pair of integers
    (numpy integers included, bools not); anything else is a ValueError."""
    try:
        i, j = edge
        if not (isinstance(i, bool) or isinstance(j, bool)):
            return operator.index(i), operator.index(j)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"edge {edge!r} is not a pair of integer vertex indices")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 1-based vertex indices and labels.

    ``labels`` is a nonempty tuple of distinct strings, and ``edges`` a
    frozenset of pairs (i, j) of integer vertex indices, 1 <= i < j <= p;
    anything else raises ValueError where the graph is made.  ``build`` is
    the coercing front door."""

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        labels = self.labels
        if not (isinstance(labels, tuple) and isinstance(self.edges, frozenset)):
            raise ValueError("a Graph holds a tuple of labels and a frozenset of edges")
        p = len(labels)
        if not p:
            raise ValueError("graph needs at least one vertex")
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"vertex label {label!r} is not a string")
        if len(set(labels)) < p:
            label = next(label for k, label in enumerate(labels) if label in labels[:k])
            raise ValueError(f"vertex label {label!r} is repeated")
        for edge in self.edges:
            i, j = _vertex_pair(edge)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= p and 1 <= j <= p):
                raise ValueError(f"edge ({i},{j}) outside 1..{p}")
            if i > j or edge != (i, j):
                raise ValueError(f"edge {edge!r} is not a tuple (i, j) with i < j")

    @classmethod
    def build(cls, labels, edges) -> "Graph":
        """Labels are strings (numpy strings accepted; a str is read as its
        characters); edges are pairs of 1-based indices, in either order."""
        labels = tuple(str(label) if isinstance(label, str) else label for label in labels)
        pairs = map(_vertex_pair, edges)
        return cls(labels=labels, edges=frozenset((min(i, j), max(i, j)) for i, j in pairs))

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
        labels = data["labels"]
        if isinstance(labels, str):
            raise ValueError(f"graph 'labels' must be a list of strings, got {labels!r}")
        return Graph.build(labels, data["edges"])
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


def _cayley_table(elements) -> tuple[tuple[Permutation, ...], list[list[int]]]:
    """Sorted elements and their multiplication table: table[i][j] is the
    index of elements[i].compose(elements[j]).  Index 0 is the identity,
    which sorts first and which a closed list contains.  Raises ValueError
    if the list is not closed under composition.

    An element that no row reaches yet becomes a generator, and its row is
    looked up product by product, which checks closure; the row of s after
    y, for a generator s, is row s read at the entries of row y, with no
    lookup."""
    elems = tuple(sorted(elements))
    n = len(elems)
    if not n or not elems[0].is_identity():
        raise ValueError("elements are not a group: the identity is missing")
    index = {e.images: i for i, e in enumerate(elems)}
    # a.compose(b) picks a's images at the positions b's images name
    pickers = [operator.itemgetter(*(w - 1 for w in b.images)) for b in elems]
    table: list[list[int] | None] = [None] * n
    table[0] = list(range(n))
    reached, gens = [0], []
    for a in range(1, n):
        if table[a] is not None:
            continue
        images = elems[a].images
        row = [index.get(pick(images)) for pick in pickers]
        if None in row:
            raise ValueError(
                f"elements are not a group: {elems[a].cycle_string()} after "
                f"{elems[row.index(None)].cycle_string()} is missing"
            )
        table[a] = row
        gens.append(a)
        reached.append(a)
        for y in reached:
            row_y = table[y]
            for s in gens:
                row_s = table[s]
                z = row_s[y]
                if table[z] is None:
                    table[z] = [row_s[x] for x in row_y]
                    reached.append(z)
    return elems, table


def _coset_closure(table, sub: int, members: list[int], gens, start: int = 0) -> int:
    """Bitmask of the union of right cosets H z over z in start <gens>, for
    the subgroup H with element indices members, where sub is the bitmask
    of the coset H start.

    Starting from H start, each coset representative y is multiplied on the
    right by every generator; a product z outside the mask brings in the
    whole coset H z.  The union is then closed under right multiplication
    by the generators.  With start the identity (index 0), sub = H and gens
    including generators of H, it is the subgroup generated by gens; with
    gens generating H, it is the double coset H start H."""
    mask, reps = sub, [start]
    for y in reps:
        row = table[y]
        for s in gens:
            z = row[s]
            if not mask >> z & 1:
                for h in members:
                    mask |= 1 << table[h][z]
                reps.append(z)
    return mask


def _cyclic_masks(table) -> list[int]:
    """Bitmask of the cyclic subgroup of every element index."""
    masks = []
    for e in range(len(table)):
        mask, x = 1, e
        while x:
            mask |= 1 << x
            x = table[x][e]
        masks.append(mask)
    return masks


def _members(mask: int) -> list[int]:
    # the set bits, ascending, one step per member rather than per bit
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _minimal_generators(table, cyclic, mask: int) -> tuple[int, ...]:
    """Greedy small generating set of the subgroup with the given bitmask:
    repeatedly add the element that grows the generated subgroup the most,
    preferring high cyclic order then element order.  ``cyclic`` holds the
    bitmask of each element's cyclic subgroup (``_cyclic_masks``).

    A candidate whose cyclic subgroup lies inside that of one already tried
    in the round is skipped: it generates no more, comes later in the
    preference order, and only a strictly larger subgroup replaces the best
    so far.  For the same reason a round stops at the first candidate that
    generates the whole subgroup, and the first round, where each candidate
    generates its cyclic subgroup, goes to the first candidate unclosed.
    None of this changes the choice."""
    candidates = sorted(_members(mask & ~1), key=lambda i: (-cyclic[i].bit_count(), i))
    if not candidates:
        return ()
    chosen = [candidates[0]]
    current = cyclic[candidates[0]]
    while current != mask:
        members = _members(current)
        best, best_closed = None, current
        tried: list[int] = []
        for e in candidates:
            c = cyclic[e]
            if current >> e & 1 or any(c & ~t == 0 for t in tried):
                continue
            tried.append(c)
            closed = _coset_closure(table, current, members, chosen + [e])
            if closed.bit_count() > best_closed.bit_count():
                best, best_closed = e, closed
                if closed == mask:
                    break
        chosen.append(best)
        current = best_closed
    return tuple(chosen)


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """Finite permutation group with its full element list materialized.

    ``generators`` generate ``elements``; every constructor in this module
    (``generate``, ``automorphism_group``, ``enumerate_subgroups``) keeps
    that promise, and ``invariant.build_invariant_space`` relies on it."""

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

    @cached_property
    def cayley(self) -> tuple[tuple[Permutation, ...], list[list[int]]]:
        """The sorted elements and their multiplication table
        (``_cayley_table``), built once per group."""
        return _cayley_table(self.elements)

    @cached_property
    def _element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self._element_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))


def automorphisms(g: Graph) -> list[Permutation]:
    """All vertex permutations preserving adjacency, by pruned backtracking.

    Raises ScopeError past AUTOMORPHISM_VERTEX_LIMIT vertices, and as soon
    as the search finds more than AUTOMORPHISM_ORDER_LIMIT automorphisms."""
    p = g.vertex_count
    if p > AUTOMORPHISM_VERTEX_LIMIT:
        raise ScopeError(
            f"automorphism search is brute force, limited to "
            f"{AUTOMORPHISM_VERTEX_LIMIT} vertices (got {p})"
        )
    # adjacency as bitmasks over 1..p, and each vertex's earlier neighbours
    adj = [0] * (p + 1)
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    earlier = [[u for u in range(1, v) if adj[v] >> u & 1] for v in range(p + 1)]
    degree = [a.bit_count() for a in adj]
    images = [0] * p
    found: list[Permutation] = []

    def extend(v: int, used: int) -> None:
        # used: bitmask of the images of 1..v-1; vertex v may go to w when
        # w's neighbours among them are the images of v's earlier neighbours
        if v > p:
            if len(found) == AUTOMORPHISM_ORDER_LIMIT:
                raise ScopeError(
                    f"automorphism group has more than {AUTOMORPHISM_ORDER_LIMIT} "
                    f"elements; its multiplication table is limited to that order"
                )
            found.append(Permutation(tuple(images)))
            return
        want = 0
        for u in earlier[v]:
            want |= 1 << images[u - 1]
        for w in range(1, p + 1):
            if not used >> w & 1 and degree[w] == degree[v] and adj[w] & used == want:
                images[v - 1] = w
                extend(v + 1, used | 1 << w)

    extend(1, 0)
    return found


def group_of_elements(degree: int, elements) -> PermutationGroup:
    """The group whose elements are exactly ``elements`` (a list closed under
    composition, else ValueError), with a minimal generating set picked on
    its multiplication table."""
    elems, table = _cayley_table(elements)
    gens = _minimal_generators(table, _cyclic_masks(table), (1 << len(elems)) - 1)
    group = PermutationGroup(
        degree=degree, generators=tuple(elems[i] for i in gens), elements=elems
    )
    # cached_property keeps its value in the instance dict: hand over the
    # table built here so that enumerate_subgroups does not build it again
    group.__dict__["cayley"] = elems, table
    return group


def automorphism_group(g: Graph) -> PermutationGroup:
    """The group of ``automorphisms``, which raise ScopeError before the
    multiplication table (|Aut|^2 entries) is built."""
    return group_of_elements(g.vertex_count, automorphisms(g))


def check_subgroup_order(order: int) -> None:
    """Raise ScopeError if a group of this order is past the subgroup
    enumeration limit."""
    if order > SUBGROUP_ORDER_LIMIT:
        raise ScopeError(
            f"subgroup enumeration is limited to order "
            f"{SUBGROUP_ORDER_LIMIT} (got {order})"
        )


def _conjugation_maps(table, gens) -> list[list[int]]:
    """For each generator index s, the map k -> index of s^-1 k s."""
    maps = []
    for s in gens:
        inv_row = table[table[s].index(0)]
        maps.append([table[x][s] for x in inv_row])
    return maps


def _conjugates(maps, mask: int) -> set[int]:
    """Bitmasks of every conjugate of the subgroup with the given bitmask:
    its orbit under the conjugation maps of a generating set of the group."""
    orbit = {mask}
    todo = [_members(mask)]
    for current in todo:
        for conj in maps:
            image = [conj[k] for k in current]
            image_mask = 0
            for k in image:
                image_mask |= 1 << k
            if image_mask not in orbit:
                orbit.add(image_mask)
                todo.append(image)
    return orbit


def enumerate_subgroups(group: PermutationGroup) -> list[PermutationGroup]:
    """Every subgroup exactly once, sorted by order then by element list.

    Cyclic extension over conjugacy class representatives, on the group's
    multiplication table (subgroups are int bitmasks of element indices).
    Starting from the trivial group, each representative H is grown by the
    elements g outside it, closing the generators H was found with plus g
    by a walk over the right cosets of H.  A subgroup K not yet seen brings
    in its whole conjugacy class, the orbit of its bitmask under
    conjugation by ``group.generators`` (their indices in the table), and K
    becomes the representative that is grown in turn.  This reaches every
    subgroup: if K = <H, g>, then K^x = <H^x, g^x> for the representative
    H^x of H's class, so some conjugate of K is found from H^x.  The
    argument holds as well for orbits under any subgroup of the group, so
    a short generator list costs time, not subgroups.  After g is tried,
    every x with <x> = <g> is skipped together with its double coset HxH
    (a walk over its right cosets, ``_coset_closure`` from Hx):
    <H, axb> = <H, x> = <H, g> for a, b in H.  Double cosets partition the
    group, so an x already skipped has had its whole double coset skipped.

    Raises ValueError if ``group.elements`` misses a generator or a product.
    """
    check_subgroup_order(group.order)
    if outside := [s.cycle_string() for s in group.generators if s not in group]:
        raise ValueError(f"generator {outside[0]} is not an element of the group")
    elems, table = group.cayley
    n = len(elems)
    cyclic = _cyclic_masks(table)
    maps = _conjugation_maps(table, [elems.index(s) for s in group.generators])
    same_cyclic: dict[int, list[int]] = {}
    for e, c in enumerate(cyclic):
        same_cyclic.setdefault(c, []).append(e)
    subs = {1}
    reps: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    for h, h_gens in reps:
        members = _members(h)
        tried = h
        for g in range(n):
            if tried >> g & 1:
                continue
            gens = h_gens + (g,)
            k = _coset_closure(table, h, members, gens)
            if k not in subs:
                subs |= _conjugates(maps, k)
                reps.append((k, gens))
            for x in same_cyclic[cyclic[g]]:
                if tried >> x & 1:
                    continue
                coset = 0
                for y in members:
                    coset |= 1 << table[y][x]
                tried |= _coset_closure(table, coset, members, h_gens, x)
    keyed = sorted((h.bit_count(), _members(h), h) for h in subs)
    return [
        PermutationGroup(
            degree=group.degree,
            generators=tuple(map(elems.__getitem__, _minimal_generators(table, cyclic, h))),
            elements=tuple(map(elems.__getitem__, indices)),
        )
        for _, indices, h in keyed
    ]


def is_homogeneous_graph(g: Graph) -> bool:
    """True iff the graph is homogeneous: chordal with no induced path on 4
    vertices.  Tested as: the two ends of every edge uv have nested closed
    neighbourhoods, N[u] <= N[v] or N[v] <= N[u].

    Take an edge uv with x in N[u] - N[v] and y in N[v] - N[u]: then x u v y
    is an induced 4-cycle if x ~ y and an induced 4-path if not, and the
    middle edge of either has such x and y.  Every longer induced cycle
    contains an induced 4-path, so the test holds exactly when the graph is
    chordal and free of induced 4-paths."""
    closed = {v: g.neighbors(v) | {v} for v in range(1, g.vertex_count + 1)}
    return all(closed[u] <= closed[v] or closed[v] <= closed[u] for u, v in g.edges)
