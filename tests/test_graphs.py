import hashlib
import itertools
import json

import pytest

import homcone as hc
from homcone.cli import main
from homcone.errors import ScopeError, ShapeError
from homcone.graphs import (
    Graph,
    Permutation,
    PermutationGroup,
    automorphism_group,
    enumerate_subgroups,
    is_homogeneous_graph,
    load_graph,
)


# ---------------------------------------------------------------------------
# independent oracles

def brute_force_automorphisms(g):
    """All adjacency-preserving permutations, by scanning every bijection."""
    p = g.vertex_count
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    found = set()
    for images in itertools.permutations(range(1, p + 1)):
        perm = Permutation(images)
        if all(g.has_edge(perm(i), perm(j)) == g.has_edge(i, j) for i, j in pairs):
            found.add(perm)
    return found


def brute_force_subgroups(group):
    """All subsets containing the identity that are closed under composition."""
    elems = list(group.elements)
    ident = Permutation.identity(group.degree)
    rest = [e for e in elems if e != ident]
    found = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = frozenset(combo) | {ident}
            if all(a.compose(b) in s for a in s for b in s):
                found.add(s)
    return found


def brute_force_homogeneous(g):
    """Every induced subgraph on at most 4 vertices avoids the 4-cycle and 4-path."""
    p = g.vertex_count
    for quad in itertools.combinations(range(1, p + 1), 4):
        sub = [(a, b) for a, b in itertools.combinations(quad, 2) if g.has_edge(a, b)]
        deg = {v: 0 for v in quad}
        for a, b in sub:
            deg[a] += 1
            deg[b] += 1
        degs = sorted(deg.values())
        if len(sub) == 4 and degs == [2, 2, 2, 2]:
            return False  # induced 4-cycle
        if len(sub) == 3 and degs == [1, 1, 2, 2]:
            return False  # induced 4-path
    return True


def path_graph(n):
    return Graph.build([str(i) for i in range(1, n + 1)], [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph.build(
        [str(i) for i in range(1, n + 1)],
        list(itertools.combinations(range(1, n + 1), 2)),
    )


# ---------------------------------------------------------------------------
# graphs and permutations

def test_graph_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.build(["a", "b"], [(1, 1)])
    with pytest.raises(ValueError):
        Graph.build(["a", "b"], [(1, 3)])


def test_graph_edge_normalization():
    g = Graph.build(["a", "b", "c"], [(2, 1), (1, 2), (3, 1)])
    assert g.edge_list() == [(1, 2), (1, 3)]
    assert g.has_edge(2, 1) and g.has_edge(1, 3) and not g.has_edge(2, 3)
    assert g.neighbors(1) == frozenset({2, 3})


def test_load_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"labels": ["x", "y"], "edges": [[1, 2]]}))
    g = load_graph(path)
    assert g.vertex_count == 2 and g.has_edge(1, 2)


def test_permutation_validation_and_compose():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    # (s.compose(t))(i) = s(t(i))
    assert s.compose(t).images == (2, 3, 1)
    assert t.compose(s).images == (3, 1, 2)
    assert s.compose(s.inverse()).is_identity()


def test_cycle_string_round_trip():
    cases = ["e", "(1 2)", "(1 5 2 4)", "(1 2)(4 5)", "(1 4)(2 5)"]
    for text in cases:
        perm = Permutation.from_cycle_string(text, 5)
        assert perm.cycle_string() == text
    assert Permutation.identity(4).cycle_string() == "e"


def test_cycle_string_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.from_cycle_string("(1 2", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycle_string("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        Permutation.from_cycle_string("(1 9)", 3)


def test_group_generate_closure():
    tau = Permutation.from_cycle_string("(1 5 2 4)", 5)
    grp = PermutationGroup.generate(5, [tau])
    assert grp.order == 4
    for a in grp.elements:
        for b in grp.elements:
            assert a.compose(b) in grp
        assert a.inverse() in grp


def test_group_generate_degree_mismatch():
    with pytest.raises(ShapeError):
        PermutationGroup.generate(4, [Permutation((2, 1, 3))])


# ---------------------------------------------------------------------------
# automorphism groups

def test_butterfly_automorphisms(butterfly):
    group = automorphism_group(butterfly)
    assert group.order == 8
    sigma1 = Permutation.from_cycle_string("(1 2)", 5)
    tau = Permutation.from_cycle_string("(1 5 2 4)", 5)
    assert PermutationGroup.generate(5, [sigma1, tau]) == group
    # stored generators regenerate the same group
    assert PermutationGroup.generate(5, group.generators) == group


def test_complete_graph_automorphisms():
    group = automorphism_group(complete_graph(3))
    assert group.order == 6
    assert set(group.elements) == brute_force_automorphisms(complete_graph(3))


def test_path3_automorphisms():
    g = path_graph(3)
    group = automorphism_group(g)
    expected = {Permutation((1, 2, 3)), Permutation((3, 2, 1))}
    assert set(group.elements) == expected
    assert expected == brute_force_automorphisms(g)


def test_automorphisms_match_brute_force_random_graphs():
    import random

    rng = random.Random(42)
    for p in (4, 5):
        for _ in range(10):
            edges = [e for e in itertools.combinations(range(1, p + 1), 2)
                     if rng.random() < 0.5]
            g = Graph.build([str(i) for i in range(1, p + 1)], edges)
            assert set(automorphism_group(g).elements) == brute_force_automorphisms(g)


def test_automorphisms_preserve_adjacency_exhaustively(butterfly):
    group = automorphism_group(butterfly)
    p = butterfly.vertex_count
    for sigma in group.elements:
        for i, j in itertools.combinations(range(1, p + 1), 2):
            assert butterfly.has_edge(sigma(i), sigma(j)) == butterfly.has_edge(i, j)


def test_automorphism_scope_limit():
    g = complete_graph(11)
    with pytest.raises(ScopeError):
        automorphism_group(g)


# ---------------------------------------------------------------------------
# subgroup enumeration

def test_dihedral_subgroup_count(butterfly):
    subs = enumerate_subgroups(automorphism_group(butterfly))
    assert len(subs) == 10
    orders = [h.order for h in subs]
    assert orders == sorted(orders)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_dihedral_subgroups_match_brute_force(butterfly):
    group = automorphism_group(butterfly)
    expected = brute_force_subgroups(group)
    got = {frozenset(h.elements) for h in enumerate_subgroups(group)}
    assert got == expected


def test_trivial_group_subgroups():
    grp = PermutationGroup.trivial(3)
    subs = enumerate_subgroups(grp)
    assert len(subs) == 1 and subs[0].order == 1


def test_cyclic4_subgroups():
    tau = Permutation.from_cycle_string("(1 5 2 4)", 5)
    grp = PermutationGroup.generate(5, [tau])
    subs = enumerate_subgroups(grp)
    assert len(subs) == 3
    assert {frozenset(h.elements) for h in subs} == brute_force_subgroups(grp)


def test_subgroup_properties(butterfly):
    group = automorphism_group(butterfly)
    for h in enumerate_subgroups(group):
        assert group.order % h.order == 0  # Lagrange
        elems = set(h.elements)
        assert all(a.compose(b) in elems for a in elems for b in elems)
        assert h.degree == group.degree and elems <= set(group.elements)
        # stored generators regenerate exactly this subgroup
        assert PermutationGroup.generate(group.degree, h.generators) == h


def test_subgroup_scope_limit():
    # S5 has order 120; a padded degree-6 copy has the same order but the
    # limit is on order, so build S5 itself times C2 to exceed it.
    gens = [Permutation((2, 1, 3, 4, 5, 6)), Permutation((2, 3, 4, 5, 1, 6)),
            Permutation((1, 2, 3, 4, 5, 6))]
    big = PermutationGroup.generate(6, gens + [Permutation((1, 2, 3, 4, 5, 6))])
    assert big.order == 120
    assert len(enumerate_subgroups(big)) == 156  # exactly at the limit still works
    swap6 = Permutation((2, 1, 3, 4, 6, 5))
    bigger = PermutationGroup.generate(6, [g for g in big.generators] + [swap6])
    assert bigger.order > 120
    with pytest.raises(ScopeError):
        enumerate_subgroups(bigger)


def test_three_generator_subgroup_found():
    # The elementary abelian group of order 8 inside S6 is not 2-generated;
    # cyclic extension must still reach it through a chain of subgroups.
    gens = [
        Permutation.from_cycle_string("(1 2)", 6),
        Permutation.from_cycle_string("(3 4)", 6),
        Permutation.from_cycle_string("(5 6)", 6),
    ]
    grp = PermutationGroup.generate(6, gens)
    assert grp.order == 8
    subs = enumerate_subgroups(grp)
    # subgroup lattice of (Z/2)^3: 1 + 7 + 7 + 1
    assert len(subs) == 16
    assert any(h.order == 8 for h in subs)


STAR_EDGES = [(1, j) for j in range(2, 6)]
WINDMILL_EDGES = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]


@pytest.mark.parametrize(
    "graph",
    [complete_graph(4), Graph.build([str(i) for i in range(1, 6)], STAR_EDGES)],
    ids=["K4", "star"],
)
def test_subgroups_contain_cyclic_subgroups_and_joins(graph):
    # Completeness as a fixpoint: every cyclic subgroup is listed, and so is
    # the subgroup generated by the union of any two listed subgroups.
    group = automorphism_group(graph)
    got = {frozenset(h.elements) for h in enumerate_subgroups(group)}
    for e in group.elements:
        assert frozenset(PermutationGroup.generate(group.degree, [e]).elements) in got
    for a, b in itertools.combinations(got, 2):
        assert frozenset(PermutationGroup.generate(group.degree, a | b).elements) in got


@pytest.mark.parametrize(
    "graph, counts",
    [
        # Three triangles sharing one vertex: Aut is C2 x S4 of order 48.
        (
            Graph.build([str(i) for i in range(1, 8)], WINDMILL_EDGES),
            {1: 1, 2: 19, 3: 4, 4: 31, 6: 12, 8: 19, 12: 5, 16: 3, 24: 3, 48: 1},
        ),
        # Aut(K5) is S5, order 120 (the enumeration limit): 156 subgroups.
        (
            complete_graph(5),
            {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6, 12: 15,
             20: 6, 24: 5, 60: 1, 120: 1},
        ),
    ],
    ids=["windmill", "K5"],
)
def test_subgroup_orders(graph, counts):
    subs = enumerate_subgroups(automorphism_group(graph))
    got = {}
    for h in subs:
        got[h.order] = got.get(h.order, 0) + 1
    assert got == counts


# sha256 of the `homcone subgroups` listing (order and generator cycle
# strings of every subgroup), recorded before the subgroup search moved onto
# the multiplication table; pins the list order and the greedy generators.
SUBGROUP_LISTING_SHA256 = {
    "butterfly": "ac39b12e7c8c3b584655b9c60850a5a3d9f32c4cc0f1e18db5e03133fe4899e5",
    "K4": "01ba8ddc8cd545071af962b255b94523de86f4576a0d08cb51d7bae3666a6d1a",
    "star": "e4970188eb0f2f6933258e7085f438af4bfe29b2b4de97f643388f338700cc93",
    "windmill": "30e455235784e4d059cfade4c384a0905bbfd7228b91b2a9950938e9333a1da0",
    "K5": "70785cab29a60121c1ef5496a0ab8deaab864ff2ee14f6af53f640416c16f8e2",
}


@pytest.mark.parametrize("name", list(SUBGROUP_LISTING_SHA256))
def test_subgroup_listing_pinned(name, tmp_path, capsys):
    graph = {
        "butterfly": hc.butterfly_graph(),
        "K4": complete_graph(4),
        "star": Graph.build([str(i) for i in range(1, 6)], STAR_EDGES),
        "windmill": Graph.build([str(i) for i in range(1, 8)], WINDMILL_EDGES),
        "K5": complete_graph(5),
    }[name]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(
        {"labels": list(graph.labels), "edges": [list(e) for e in graph.edge_list()]}
    ))
    assert main(["subgroups", "--graph", str(path)]) == 0
    listing = capsys.readouterr().out
    assert hashlib.sha256(listing.encode()).hexdigest() == SUBGROUP_LISTING_SHA256[name]


def test_subgroups_reject_non_closed_elements():
    # Not a group: (1 2 3) composed with itself is missing.
    e = Permutation.identity(3)
    rot = Permutation.from_cycle_string("(1 2 3)", 3)
    fake = PermutationGroup(degree=3, generators=(), elements=(e, rot))
    with pytest.raises(ValueError):
        enumerate_subgroups(fake)


# ---------------------------------------------------------------------------
# homogeneity

def test_butterfly_is_homogeneous(butterfly):
    assert is_homogeneous_graph(butterfly)


def test_four_cycle_not_homogeneous():
    c4 = Graph.build(["a", "b", "c", "d"], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not is_homogeneous_graph(c4)


def test_path4_not_homogeneous():
    assert not is_homogeneous_graph(path_graph(4))
    assert not brute_force_homogeneous(path_graph(4))


def test_complete_graphs_homogeneous():
    for n in (2, 3, 5):
        assert is_homogeneous_graph(complete_graph(n))


def test_homogeneity_matches_brute_force_all_small_graphs():
    pairs_by_p = {p: list(itertools.combinations(range(1, p + 1), 2)) for p in (4, 5, 6)}
    labels_by_p = {p: [str(i) for i in range(1, p + 1)] for p in (4, 5, 6)}
    for p in (4, 5, 6):
        pairs = pairs_by_p[p]
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.build(labels_by_p[p], edges)
            assert is_homogeneous_graph(g) == brute_force_homogeneous(g), edges
