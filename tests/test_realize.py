"""The realizer on generated inputs: every distinct space of several
homogeneous graphs' subgroup lattices, seeded random homogeneous graphs,
relabelled graphs, and graphs that are not homogeneous."""

import itertools
import random
import re

import numpy as np
import pytest

from homcone import cone
from homcone.errors import CapabilityError
from homcone.graphs import (
    Graph,
    Permutation,
    PermutationGroup,
    automorphism_group,
    automorphisms,
    enumerate_subgroups,
    is_homogeneous_graph,
)
from homcone.invariant import build_invariant_space
from homcone.realization import _realize_at, realize
from homcone.selection import build_models
from homcone.verify import CROSS_PATH_RTOL, random_dual_point

GAMMA_RTOL = 1e-10
ALPHAS = (0.0, 0.5, 3.0)


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


def rel_err(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


def check_realization(m, rng):
    """The realization is checked, fast agrees with Newton at a dual point,
    and a second generic element gives the same blocks and gamma factor."""
    real = m.realization
    y = random_dual_point(m.space, rng)
    res = cone.psi(m.space, y)
    ld, lp = real.log_delta_phi(y)
    assert rel_err(ld, res.log_delta) <= CROSS_PATH_RTOL, m.label
    assert rel_err(lp, res.log_phi) <= CROSS_PATH_RTOL, m.label
    other = _realize_at(m.space, rng.standard_normal(m.space.dim))
    assert sorted(other.structure.block_sizes) == sorted(real.structure.block_sizes)
    for alpha in ALPHAS:
        want = real.log_gamma(alpha)
        assert abs(other.log_gamma(alpha) - want) <= GAMMA_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_every_space_of_a_lattice_realizes(name):
    g, n_spaces = LATTICES[name]
    models = lattice_models(g)
    assert len(models) == n_spaces
    rng = np.random.default_rng(31)
    for m in models:
        check_realization(m, rng)


def test_random_homogeneous_graphs_realize():
    rng = np.random.default_rng(32)
    spaces = 0
    for g in random_graphs():
        assert is_homogeneous_graph(g)
        for m in lattice_models(g):
            check_realization(m, rng)
            spaces += 1
    assert spaces >= 200


def relabel(g, sigma):
    """The graph with vertex i renamed sigma[i - 1]."""
    return Graph.build(g.labels, [(sigma[i - 1], sigma[j - 1]) for i, j in g.edges])


def conjugate(group, sigma):
    """sigma group sigma^-1 acting on the relabelled vertices."""
    images = Permutation(tuple(sigma))
    return PermutationGroup.generate(
        group.degree, [images.compose(h).compose(images.inverse()) for h in group.generators])


@pytest.mark.parametrize("name", ["windmill", "2K3"])
def test_relabelling_leaves_the_gamma_factor_unchanged(name):
    g = LATTICES[name][0]
    sigma = list(range(1, g.vertex_count + 1))
    random.Random(33).shuffle(sigma)
    moved = relabel(g, sigma)
    for h in enumerate_subgroups(automorphism_group(g)):
        before = realize(build_invariant_space(g, h))
        after = realize(build_invariant_space(moved, conjugate(h, sigma)))
        for alpha in ALPHAS:
            want = before.log_gamma(alpha)
            assert abs(after.log_gamma(alpha) - want) <= GAMMA_RTOL * max(1.0, abs(want))


@pytest.mark.parametrize("edges", [
    [(1, 2), (2, 3), (3, 4), (1, 4)],  # C4
    [(1, 2), (2, 3), (3, 4)],  # P4
], ids=["C4", "P4"])
def test_realize_refuses_graphs_that_are_not_homogeneous(edges):
    g = graph(4, edges)
    for group in (PermutationGroup.trivial(4), automorphism_group(g)):
        gens = ", ".join(s.cycle_string() for s in group.generators) or "e"
        with pytest.raises(CapabilityError, match=re.escape(f"generated by {gens}:")):
            realize(build_invariant_space(g, group))
