import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest

import homcone as hc
from homcone.cli import main
from homcone.errors import ScopeError, ShapeError
from homcone.graphs import (
    AUTOMORPHISM_ORDER_LIMIT,
    SUBGROUP_ORDER_LIMIT,
    Graph,
    Permutation,
    PermutationGroup,
    _cayley_table,
    _coset_closure,
    _cyclic_masks,
    _members,
    _minimal_generators,
    automorphism_group,
    enumerate_subgroups,
    graph_from_dict,
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


def composed_table(elems):
    """Multiplication table of sorted, closed elements by Permutation.compose."""
    index = {e: i for i, e in enumerate(elems)}
    return [[index[a.compose(b)] for b in elems] for a in elems]


def table_closure(table, gens):
    """Bitmask of the subgroup generated by the element indices in gens,
    closed from the identity (index 0) by a search over products."""
    mask, frontier = 1, [0]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = table[a][g]
                if not mask >> c & 1:
                    mask |= 1 << c
                    new.append(c)
        frontier = new
    return mask


def greedy_generators(table, mask):
    """Greedy generating set: each round adds the candidate (by descending
    element order, then index) whose closure with the chosen ones is
    strictly largest, closing every candidate from the identity."""

    def order(i):
        return table_closure(table, [i]).bit_count()

    candidates = sorted(_members(mask & ~1), key=lambda i: (-order(i), i))
    chosen, current = [], 1
    while current != mask:
        best, best_closed = None, current
        for e in candidates:
            if current >> e & 1:
                continue
            closed = table_closure(table, chosen + [e])
            if closed.bit_count() > best_closed.bit_count():
                best, best_closed = e, closed
        chosen.append(best)
        current = best_closed
    return tuple(chosen)


def every_subgroup_extension(group):
    """Bitmasks of all subgroups by cyclic extension of every subgroup found:
    each new subgroup H is grown by every element outside it, skipping the
    rest of gH and Hg once g is tried, until a round finds nothing new."""
    elems, table = group.cayley
    subs = {1: ()}
    frontier = [1]
    while frontier:
        new = []
        for h in frontier:
            members = _members(h)
            tried = h
            for g in range(len(elems)):
                if tried >> g & 1:
                    continue
                gens = subs[h] + (g,)
                k = _coset_closure(table, h, members, gens)
                if k not in subs:
                    subs[k] = gens
                    new.append(k)
                row = table[g]
                for x in members:
                    tried |= 1 << row[x] | 1 << table[x][g]
        frontier = new
    return set(subs)


def subgroup_masks(group, subs):
    index = {e: i for i, e in enumerate(group.cayley[0])}
    return {sum(1 << index[e] for e in h.elements) for h in subs}


def relabelled(g, rng):
    images = list(range(1, g.vertex_count + 1))
    rng.shuffle(images)
    return Graph.build(
        [g.labels[images.index(v)] for v in range(1, g.vertex_count + 1)],
        [(images[i - 1], images[j - 1]) for i, j in g.edges],
    )


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


@pytest.mark.parametrize("edge", [(1.7, 2.2), (True, 3), (1, 2, 3), (1,), "12", 3, (None, 2)])
def test_graph_build_refuses_edge_that_is_not_an_integer_pair(edge):
    with pytest.raises(ValueError, match=r"edge .* is not a pair of integer vertex indices"):
        Graph.build("abc", [(1, 2), edge])


def test_graph_build_accepts_numpy_integer_indices():
    g = Graph.build("abc", [(np.int64(3), np.int32(1)), np.array([1, 2])])
    assert g.edge_list() == [(1, 2), (1, 3)]
    assert all(type(v) is int for e in g.edges for v in e)


@pytest.mark.parametrize("labels, shown", [
    ([["x"], "b"], r"\['x'\]"), ([1, 2], "1"), (["a", None], "None"), ([b"a", "b"], "b'a'"),
])
def test_graph_build_refuses_label_that_is_not_a_string(labels, shown):
    with pytest.raises(ValueError, match=rf"vertex label {shown} is not a string"):
        Graph.build(labels, [])


@pytest.mark.parametrize("labels", [["a", "b", "a"], ["a", np.str_("a")], "aba"])
def test_graph_build_refuses_repeated_label(labels):
    with pytest.raises(ValueError, match="vertex label 'a' is repeated"):
        Graph.build(labels, [])


def test_graph_build_accepts_numpy_string_labels():
    g = Graph.build(np.array(["x", "y"]), [(1, 2)])
    assert g.labels == ("x", "y")
    assert all(type(s) is str for s in g.labels)


def test_graph_build_reads_a_str_as_its_characters():
    assert Graph.build("abcd", [(1, 2)]).labels == ("a", "b", "c", "d")


def test_graph_from_dict_refuses_string_labels():
    with pytest.raises(ValueError, match="'labels' must be a list of strings, got 'abcde'"):
        graph_from_dict({"labels": "abcde", "edges": []})


@pytest.mark.parametrize("labels, edges, message", [
    # 0-based K6 edges: unchecked, they gave 120 automorphisms where S6 has 720
    (tuple("abcdef"), frozenset(itertools.combinations(range(6), 2)),
     r"edge \(0,\d\) outside 1\.\.6"),
    (("a", "b", "a"), frozenset(), "vertex label 'a' is repeated"),
    (("a", 1), frozenset(), "vertex label 1 is not a string"),
    ((), frozenset(), "at least one vertex"),
    (["a", "b"], frozenset(), "a Graph holds a tuple of labels and a frozenset of edges"),
    (("a", "b"), {(1, 2)}, "a Graph holds a tuple of labels and a frozenset of edges"),
    (("a", "b"), frozenset({(2, 1)}), r"edge \(2, 1\) is not a tuple \(i, j\) with i < j"),
    (("a", "b"), frozenset({(1, 1)}), "self-loop at vertex 1"),
    (("a", "b"), frozenset({(1, 2.0)}), "is not a pair of integer vertex indices"),
])
def test_graph_constructor_refuses_what_build_refuses(labels, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(labels, edges)


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


def test_group_membership_reads_one_set():
    group = automorphism_group(complete_graph(4))
    assert all(sigma in group for sigma in group.elements)
    tau = Permutation.from_cycle_string("(1 2)", 4)
    assert tau not in PermutationGroup.generate(4, [Permutation.from_cycle_string("(1 2 3 4)", 4)])
    # the set is built on the first test and read by every later one
    assert group._element_set is group._element_set


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


def test_automorphism_order_limit():
    # Aut(K7) has order 5040, the limit itself; K8 (order 40320) stops
    # during the search, before an |Aut|^2 multiplication table is built.
    assert AUTOMORPHISM_ORDER_LIMIT >= 5040
    t0 = time.perf_counter()
    with pytest.raises(ScopeError, match="more than 5040"):
        automorphism_group(complete_graph(8))
    assert time.perf_counter() - t0 < 1.0


def test_aut_past_order_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "k8.json"
    path.write_text(json.dumps(
        {"labels": [str(i) for i in range(1, 9)],
         "edges": [list(e) for e in itertools.combinations(range(1, 9), 2)]}
    ))
    t0 = time.perf_counter()
    assert main(["aut", "--graph", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "5040" in captured.err


def test_subgroups_past_order_limit_exits_2(tmp_path, capsys):
    # Aut(K7) (order 5040) is within the automorphism limit but past the
    # enumeration limit (720): refused on its order, before the 5040 x 5040
    # table
    path = tmp_path / "k7.json"
    path.write_text(json.dumps(
        {"labels": [str(i) for i in range(1, 8)],
         "edges": [list(e) for e in itertools.combinations(range(1, 8), 2)]}
    ))
    t0 = time.perf_counter()
    assert main(["subgroups", "--graph", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "limited to order 720 (got 5040)" in captured.err


def test_aut_k6_line_pinned(tmp_path, capsys):
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(
        {"labels": [str(i) for i in range(1, 7)],
         "edges": [list(e) for e in itertools.combinations(range(1, 7), 2)]}
    ))
    assert main(["aut", "--graph", str(path)]) == 0
    assert capsys.readouterr().out == "order 720; generators (2 3)(4 5 6), (1 2)(3 4 5)\n"


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
    # S6 has order 720, the limit itself; S6 x C2 on 8 points (order 1440)
    # is refused on its order, before its multiplication table is built.
    s6_gens = [Permutation.from_cycle_string("(1 2)", 8),
               Permutation.from_cycle_string("(1 2 3 4 5 6)", 8)]
    s6 = PermutationGroup.generate(8, s6_gens)
    assert s6.order == SUBGROUP_ORDER_LIMIT == 720
    assert len(enumerate_subgroups(s6)) == 1455  # exactly at the limit still works
    bigger = PermutationGroup.generate(8, s6_gens + [Permutation.from_cycle_string("(7 8)", 8)])
    assert bigger.order == 1440
    with pytest.raises(ScopeError, match="limited to order 720 [(]got 1440[)]"):
        enumerate_subgroups(bigger)
    assert "cayley" not in vars(bigger)


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
WINDMILL = Graph.build([str(i) for i in range(1, 8)], WINDMILL_EDGES)


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
# the multiplication table (K6's before the double-coset skip); pins the list
# order and the greedy generators.
SUBGROUP_LISTING_SHA256 = {
    "butterfly": "ac39b12e7c8c3b584655b9c60850a5a3d9f32c4cc0f1e18db5e03133fe4899e5",
    "K4": "01ba8ddc8cd545071af962b255b94523de86f4576a0d08cb51d7bae3666a6d1a",
    "star": "e4970188eb0f2f6933258e7085f438af4bfe29b2b4de97f643388f338700cc93",
    "windmill": "30e455235784e4d059cfade4c384a0905bbfd7228b91b2a9950938e9333a1da0",
    "K5": "70785cab29a60121c1ef5496a0ab8deaab864ff2ee14f6af53f640416c16f8e2",
    "K6": "4097a884205aceae6b9d88d03ee1c08e76f5ee998b773cacf3e7013130e98a70",
}


@pytest.mark.parametrize("name", list(SUBGROUP_LISTING_SHA256))
def test_subgroup_listing_pinned(name, tmp_path, capsys):
    graph = {
        "butterfly": hc.butterfly_graph(),
        "K4": complete_graph(4),
        "star": Graph.build([str(i) for i in range(1, 6)], STAR_EDGES),
        "windmill": Graph.build([str(i) for i in range(1, 8)], WINDMILL_EDGES),
        "K5": complete_graph(5),
        "K6": complete_graph(6),
    }[name]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(
        {"labels": list(graph.labels), "edges": [list(e) for e in graph.edge_list()]}
    ))
    assert main(["subgroups", "--graph", str(path)]) == 0
    listing = capsys.readouterr().out
    assert hashlib.sha256(listing.encode()).hexdigest() == SUBGROUP_LISTING_SHA256[name]


LATTICE_GRAPHS = {
    "butterfly": hc.butterfly_graph(),
    "K4": complete_graph(4),
    "star": Graph.build([str(i) for i in range(1, 6)], STAR_EDGES),
    "windmill": WINDMILL,
}


@pytest.mark.parametrize(
    "graph, seed",
    [(g, seed) for g in LATTICE_GRAPHS.values() for seed in range(1, 6)]
    + [(complete_graph(5), None)],
    ids=[f"{name}-{seed}" for name in LATTICE_GRAPHS for seed in range(1, 6)] + ["K5"],
)
def test_class_representatives_match_every_subgroup_extension(graph, seed):
    # a relabelling reorders the elements, so the table indices, the
    # conjugation generators and the search order all change
    if seed is not None:
        graph = relabelled(graph, random.Random(seed))
    group = automorphism_group(graph)
    subs = enumerate_subgroups(group)
    assert len(subs) == len({h.elements for h in subs})
    assert subgroup_masks(group, subs) == every_subgroup_extension(group)


@pytest.mark.parametrize("graph", [WINDMILL, complete_graph(5)], ids=["windmill", "K5"])
def test_subgroups_closed_under_conjugation(graph):
    group = automorphism_group(graph)
    got = {frozenset(h.elements) for h in enumerate_subgroups(group)}
    for x in group.elements:
        x_inv = x.inverse()
        for h in got:
            assert frozenset(x_inv.compose(k).compose(x) for k in h) in got


def test_k6_lattice_classes():
    group = automorphism_group(complete_graph(6))
    subs = [frozenset(h.elements) for h in enumerate_subgroups(group)]
    assert len(subs) == 1455
    # conjugacy classes as orbits under the group's generators, by
    # Permutation.compose
    left, classes = set(subs), 0
    while left:
        orbit = [left.pop()]
        for h in orbit:
            for s in group.generators:
                image = frozenset(s.inverse().compose(k).compose(s) for k in h)
                if image in left:
                    left.discard(image)
                    orbit.append(image)
        classes += 1
    assert classes == 56


def test_subgroups_of_group_without_generators():
    # conjugation by no generators leaves every subgroup its own class,
    # and every subgroup is still reached
    elements = automorphism_group(WINDMILL).elements
    bare = PermutationGroup(degree=7, generators=(), elements=elements)
    assert subgroup_masks(bare, enumerate_subgroups(bare)) == every_subgroup_extension(bare)
    assert len(enumerate_subgroups(bare)) == 98


def test_subgroups_do_not_depend_on_the_group_generators():
    # the conjugation maps come from group.generators; any generating list
    # reaches the same subgroups, each with generators picked on the table
    named = hc.butterfly_subgroups()["G10"]
    aut = automorphism_group(hc.butterfly_graph())
    assert [g.cycle_string() for g in named.generators] == ["(1 2)", "(1 5 2 4)"]
    assert [g.cycle_string() for g in aut.generators] == ["(1 4 2 5)", "(4 5)"]
    assert [(h.elements, h.generators) for h in enumerate_subgroups(named)] == [
        (h.elements, h.generators) for h in enumerate_subgroups(aut)]


def test_subgroups_reject_non_closed_elements():
    # Not a group: (1 2 3) composed with itself is missing.
    e = Permutation.identity(3)
    rot = Permutation.from_cycle_string("(1 2 3)", 3)
    fake = PermutationGroup(degree=3, generators=(), elements=(e, rot))
    with pytest.raises(ValueError):
        enumerate_subgroups(fake)
    # two subgroups of order 2, whose product is missing; and no identity
    swaps = [Permutation.from_cycle_string(c, 3) for c in ("(1 2)", "(2 3)")]
    with pytest.raises(ValueError, match="is missing"):
        _cayley_table([e, *swaps])
    with pytest.raises(ValueError, match="the identity is missing"):
        _cayley_table([rot, rot.compose(rot)])
    # a generator outside the elements, which the constructor takes as given
    outside = PermutationGroup(degree=3, generators=(rot,), elements=(e, swaps[0]))
    with pytest.raises(ValueError, match=r"generator \(1 2 3\) is not an element of the group"):
        enumerate_subgroups(outside)


# ---------------------------------------------------------------------------
# the multiplication table and the searches on it, against plain oracles

def test_cached_table_matches_fresh_table(butterfly):
    for g in (butterfly, complete_graph(4), complete_graph(5), WINDMILL):
        group = automorphism_group(g)
        elems, table = group.cayley
        assert (elems, table) == _cayley_table(group.elements)
        assert elems == group.elements and table == composed_table(elems)
        assert "cayley" in vars(group)  # handed over, not built again
    # a group built from generators builds its table on first use
    grp = PermutationGroup.generate(5, [Permutation.from_cycle_string("(1 5 2 4)", 5)])
    assert grp.cayley == (grp.elements, composed_table(grp.elements))
    assert PermutationGroup.trivial(1).cayley == ((Permutation((1,)),), [[0]])


@pytest.mark.parametrize(
    "graph",
    [WINDMILL, complete_graph(5)],
    ids=["windmill", "K5"],
)
def test_coset_closure_matches_closure_from_identity(graph):
    group = automorphism_group(graph)
    elems, table = group.cayley
    index = {e: i for i, e in enumerate(elems)}
    subs = enumerate_subgroups(group)
    rng = random.Random(12)
    for _ in range(300):
        h = rng.choice(subs)
        mask = sum(1 << index[e] for e in h.elements)
        gens = tuple(index[e] for e in h.generators)
        assert table_closure(table, gens) == mask
        new = tuple(rng.randrange(len(elems)) for _ in range(rng.randint(1, 2)))
        got = _coset_closure(table, mask, _members(mask), gens + new)
        assert got == table_closure(table, gens + new)


@pytest.mark.parametrize(
    "graph",
    [WINDMILL, complete_graph(5)],
    ids=["windmill", "K5"],
)
def test_minimal_generators_match_plain_greedy(graph):
    group = automorphism_group(graph)
    elems, table = group.cayley
    index = {e: i for i, e in enumerate(elems)}
    cyclic = _cyclic_masks(table)
    assert cyclic == [table_closure(table, [e]) for e in range(len(elems))]
    for h in enumerate_subgroups(group):
        mask = sum(1 << index[e] for e in h.elements)
        assert _minimal_generators(table, cyclic, mask) == greedy_generators(table, mask)


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


def test_homogeneity_matches_brute_force_random_graphs():
    rng = random.Random(20221016)
    verdicts = []
    for _ in range(1500):
        p = rng.randint(7, 9)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(1, p + 1), 2) if rng.random() < density]
        g = Graph.build([str(i) for i in range(1, p + 1)], edges)
        verdict = is_homogeneous_graph(g)
        assert verdict == brute_force_homogeneous(g), edges
        verdicts.append(verdict)
    # both answers well represented, so neither side is checked only vacuously
    assert 200 < sum(verdicts) < 1300


def disjoint_union(*graphs):
    labels, edges, offset = [], [], 0
    for g in graphs:
        labels += [f"{offset + i}" for i in range(1, g.vertex_count + 1)]
        edges += [(i + offset, j + offset) for i, j in g.edges]
        offset += g.vertex_count
    return Graph.build(labels, edges)


@pytest.mark.parametrize("graph, expected", [
    (Graph.build(["a"], []), True),
    (Graph.build("abcde", []), True),
    (disjoint_union(complete_graph(3), complete_graph(2)), True),
    (disjoint_union(complete_graph(3), path_graph(3), Graph.build(["a"], [])), True),
    (disjoint_union(complete_graph(3), path_graph(4)), False),
    (disjoint_union(path_graph(2), Graph.build("abcd", [(1, 2), (2, 3), (3, 4), (4, 1)])), False),
    (Graph.build("abcde", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]), False),
])
def test_homogeneity_edge_cases(graph, expected):
    assert is_homogeneous_graph(graph) == brute_force_homogeneous(graph) == expected
