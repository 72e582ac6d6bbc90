"""Homogeneous graphs and their subgroup lattices, shared by the tests
that run over generated spaces."""

import itertools
import random

from homcone.graphs import Graph, automorphism_group, automorphisms, enumerate_subgroups
from homcone.selection import build_models


def graph(p, edges):
    return Graph.build([f"v{i}" for i in range(1, p + 1)], edges)


def complete(p):
    return list(itertools.combinations(range(1, p + 1), 2))


# (graph, number of distinct spaces over its subgroup lattice)
LATTICES = {
    "K4": (graph(4, complete(4)), 22),
    "star": (graph(5, [(1, v) for v in range(2, 6)]), 15),
    "windmill": (graph(7, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5),
                           (1, 6), (1, 7), (6, 7)]), 31),
    "K5": (graph(5, complete(5)), 93),
    "2K3": (graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]), 41),
    "4K2": (graph(8, [(1, 2), (3, 4), (5, 6), (7, 8)]), 164),
}


def random_homogeneous(rng, p):
    """Edges of a seeded random homogeneous graph on vertices 1..p, built as
    every such graph is: one vertex, a disjoint union of two, or one plus a
    vertex adjacent to all of it; then randomly relabelled."""

    def build(vertices):
        if len(vertices) == 1:
            return set()
        if rng.random() < 0.5:
            hub, rest = vertices[0], vertices[1:]
            return build(rest) | {(hub, v) for v in rest}
        cut = rng.randint(1, len(vertices) - 1)
        return build(vertices[:cut]) | build(vertices[cut:])

    labels = list(range(1, p + 1))
    rng.shuffle(labels)
    return graph(p, [(labels[i - 1], labels[j - 1]) for i, j in build(list(range(1, p + 1)))])


def random_graphs(count=40, seed=11, order_limit=48):
    """Seeded random homogeneous graphs with p = 4..7 whose automorphism
    group has order at most order_limit, which keeps each lattice small."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_homogeneous(rng, rng.randint(4, 7))
        if len(automorphisms(g)) <= order_limit:
            out.append(g)
    return out


def lattice_models(g):
    subgroups = enumerate_subgroups(automorphism_group(g))
    return build_models(g, {f"H{i}": h for i, h in enumerate(subgroups, start=1)})
