import itertools
import math
import random

import numpy as np
import pytest

import homcone as hc
from homcone.errors import DomainError, InvarianceError, ShapeError, UsageError
from homcone.graphs import (
    Graph,
    Permutation,
    PermutationGroup,
    automorphism_group,
    enumerate_subgroups,
)
from homcone.invariant import build_invariant_space, same_space, span_coords
from homcone.realization import full_sym_structure
from homcone.selection import Model, dedupe_models

from closed_forms import golden_by_id


def element_orbits_and_basis(g, group):
    """Cell orbits from every group element, and the orthonormal basis built
    one orbit matrix at a time: the construction that reads each element."""
    cells = [(i, i) for i in range(1, g.vertex_count + 1)] + g.edge_list()
    seen, orbits = set(), []
    for cell in cells:
        if cell in seen:
            continue
        orbit = set()
        for sigma in group.elements:
            i, j = sigma(cell[0]), sigma(cell[1])
            orbit.add((min(i, j), max(i, j)))
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda orb: orb[0])
    p = g.vertex_count
    mats = []
    for orbit in orbits:
        b = np.zeros((p, p))
        if orbit[0][0] == orbit[0][1]:
            w = 1.0 / np.sqrt(len(orbit))
            for i, _ in orbit:
                b[i - 1, i - 1] = w
        else:
            w = 1.0 / np.sqrt(2.0 * len(orbit))
            for i, j in orbit:
                b[i - 1, j - 1] = w
                b[j - 1, i - 1] = w
        mats.append(b)
    return tuple(orbits), np.array(mats)


def relabeled(g, rng):
    """The graph with its vertices renamed by a random permutation."""
    perm = list(range(1, g.vertex_count + 1))
    rng.shuffle(perm)
    return Graph.build(g.labels, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def perm_matrix(sigma):
    p = sigma.degree
    m = np.zeros((p, p))
    for i in range(1, p + 1):
        m[sigma(i) - 1, i - 1] = 1.0
    return m


def orbit_average_projection(space, y):
    """Independent projection oracle: group-average, then zero non-edge cells."""
    g, group = space.graph, space.group
    acc = np.zeros_like(y)
    for sigma in group.elements:
        pm = perm_matrix(sigma)
        acc += pm @ y @ pm.T
    acc /= group.order
    out = np.zeros_like(acc)
    for i in range(g.vertex_count):
        out[i, i] = acc[i, i]
    for i, j in g.edge_list():
        out[i - 1, j - 1] = acc[i - 1, j - 1]
        out[j - 1, i - 1] = acc[j - 1, i - 1]
    return out


@pytest.fixture(scope="module")
def spans(spaces):
    """Every kind of orthonormal span: the ten butterfly invariant spaces, the
    full symmetric block form on 3 vertices and two golden block forms."""
    golden = golden_by_id()
    return [*spaces.values(), full_sym_structure(3), golden["G3"].structure,
            golden["G7"].structure]


EXPECTED_DIMS = {
    "G1": 11, "G2": 9, "G3": 6, "G4": 9, "G5": 6,
    "G6": 7, "G7": 4, "G8": 7, "G9": 4, "G10": 4,
}


def test_dimensions(spaces, butterfly):
    dims = {k: s.dim for k, s in spaces.items()}
    assert dims == EXPECTED_DIMS
    # trivial group: one coordinate per vertex and per edge
    assert dims["G1"] == butterfly.vertex_count + len(butterfly.edges)


def test_basis_orthonormal(spaces):
    for space in spaces.values():
        gram = np.einsum("aij,bij->ab", space.basis, space.basis)
        assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-12


def test_basis_invariance_and_support(spaces, butterfly):
    for space in spaces.values():
        for b in space.basis:
            for sigma in space.group.elements:
                for i in range(1, 6):
                    for j in range(1, 6):
                        assert b[sigma(i) - 1, sigma(j) - 1] == b[i - 1, j - 1]
            for i, j in itertools.combinations(range(1, 6), 2):
                if not butterfly.has_edge(i, j):
                    assert b[i - 1, j - 1] == 0.0


def test_identity_in_span(spaces):
    for space in spaces.values():
        coords, norms = span_coords(space.point_map, np.eye(5)[None], "identity")
        assert coords.shape == (space.dim, 1) and norms == [math.sqrt(5.0)]
        np.testing.assert_allclose(space.from_coords(coords[:, 0]), np.eye(5), atol=1e-15)


def test_span_coords_accepts_the_span_and_refuses_what_leaves_it(spans):
    rng = np.random.default_rng(17)
    for space in spans:
        cs = rng.standard_normal((3, space.dim))
        ys = np.array([space.from_coords(c) for c in cs])
        coords, norms = span_coords(space.point_map, ys, "point")
        np.testing.assert_allclose(coords, cs.T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(norms, np.linalg.norm(cs, axis=1), rtol=1e-14)
        for j, y in enumerate(ys):
            # a point's column of the stack is its stack of one
            alone, norm = span_coords(space.point_map, y[None], "point")
            np.testing.assert_allclose(coords[:, j], alone[:, 0], rtol=0, atol=1e-14)
            assert norm == [norms[j]]
        off = rng.standard_normal((space.p, space.p))
        off = 1e-6 * (off - space.project(off))
        with pytest.raises(DomainError, match=r"^point is not in the space \(residual"):
            span_coords(space.point_map, (ys[0] + off)[None], "point")
        ys[2] += off
        with pytest.raises(DomainError,
                           match=r"^point 2 of 3: point is not in the space \(residual"):
            span_coords(space.point_map, ys, "point")
        with pytest.raises(ShapeError, match=rf"point must be {space.p}x{space.p}, got \(1, 1\)"):
            span_coords(space.point_map, np.ones((2, 1, 1)), "point")
        with pytest.raises(ShapeError, match="point must be"):
            span_coords(space.point_map, np.eye(space.p + 1)[None], "point")
        p = space.p
        with pytest.raises(ShapeError, match=rf"point must be {p}x{p}, got \({p},\)"):
            span_coords(space.point_map, ys[0], "point")
        with pytest.raises(ShapeError, match="^point stack is empty$"):
            span_coords(space.point_map, np.empty((0, p, p)), "point")


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e300])
def test_span_coords_checks_a_stack_of_points_at_any_scale(spaces, butterfly, scale):
    # each point's column of the stack is its stack of one, and a point that
    # leaves a span is refused at any scale: squared residuals of a 1e300
    # point would overflow
    adjacency = np.zeros((5, 5))
    for i, j in butterfly.edge_list():
        adjacency[i - 1, j - 1] = adjacency[j - 1, i - 1] = 1.0
    # I + t A is invariant under every automorphism, so it lies in every span
    ys = scale * np.array([np.eye(5) + t * adjacency for t in (0.1, -0.3, 0.7)])
    off = ys.copy()
    # (1,4) is not an edge; below norm 1 the bound is SPAN_TOL itself
    off[1, 0, 3] = off[1, 3, 0] = max(1e-6 * scale, 1e-9)
    for space in spaces.values():
        coords, norms = span_coords(space.point_map, ys, "point")
        assert coords.shape == (space.dim, 3)
        np.testing.assert_allclose(norms, [np.linalg.norm(y / scale) * scale for y in ys],
                                   rtol=1e-14)
        for j, y in enumerate(ys):
            alone, _ = span_coords(space.point_map, y[None], "point")
            np.testing.assert_allclose(coords[:, j], alone[:, 0], rtol=1e-14)
        with pytest.raises(DomainError,
                           match=r"^point 1 of 3: point is not in the space \(residual"):
            span_coords(space.point_map, off, "point")
        with pytest.raises(DomainError, match=r"^point is not in the space \(residual"):
            span_coords(space.point_map, off[1:2], "point")


def test_span_coords_checks_every_point_finite_before_any_membership(spaces):
    off = np.eye(5)
    off[0, 3] = off[3, 0] = 1.0  # (1, 4) is not an edge
    bad = np.eye(5)
    bad[2, 2] = math.nan
    for ys, j in (([off, bad], 1), ([bad, off], 0)):
        with pytest.raises(DomainError, match=rf"^point {j} of 2: point has a non-finite entry nan "
                                              r"at \[2, 2\]$"):
            span_coords(spaces["G1"].point_map, ys, "point")
    # every norm finite, their sum not: no point is refused for it
    huge = 1e308 * np.eye(5)[None] / math.sqrt(5.0)
    _, norms = span_coords(spaces["G1"].point_map, np.concatenate([huge, huge]), "point")
    assert norms == [pytest.approx(1e308, rel=1e-14)] * 2


def test_project_identity(spaces):
    for space in spaces.values():
        assert np.allclose(space.project(np.eye(5)), np.eye(5), atol=1e-14)


def test_project_single_diag_cell_orbit(spaces):
    # unit mass at cell (1,1) spreads over the orbit {1,2} under the vertex swap
    e11 = np.zeros((5, 5))
    e11[0, 0] = 1.0
    got = spaces["G2"].project(e11)
    expected = np.zeros((5, 5))
    expected[0, 0] = expected[1, 1] = 0.5
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(got, orbit_average_projection(spaces["G2"], e11), atol=1e-14)


def test_project_kills_non_edge_cells(spaces):
    e14 = np.zeros((5, 5))
    e14[0, 3] = e14[3, 0] = 1.0
    assert np.allclose(spaces["G1"].project(e14), 0.0, atol=1e-14)


def test_projection_matches_orbit_average_oracle(spaces):
    rng = np.random.default_rng(11)
    for space in spaces.values():
        for _ in range(100):
            a = rng.standard_normal((5, 5))
            y = a + a.T
            assert np.max(np.abs(space.project(y) - orbit_average_projection(space, y))) < 1e-12


def test_projection_self_adjoint(spans):
    rng = np.random.default_rng(12)
    for space in spans:
        for _ in range(10):
            u = rng.standard_normal((space.p, space.p))
            u = u + u.T
            v = rng.standard_normal((space.p, space.p))
            v = v + v.T
            lhs = np.sum(space.project(u) * v)
            rhs = np.sum(u * space.project(v))
            assert abs(lhs - rhs) < 1e-10


def test_projection_idempotent(spans):
    rng = np.random.default_rng(13)
    for space in spans:
        a = rng.standard_normal((space.p, space.p))
        y = space.project(a + a.T)
        assert np.allclose(space.project(y), y, atol=1e-13)


def test_same_space_merges(spaces):
    assert same_space(spaces["G6"], spaces["G8"])
    assert same_space(spaces["G7"], spaces["G9"])
    assert same_space(spaces["G7"], spaces["G10"])
    assert not same_space(spaces["G1"], spaces["G2"])
    assert not same_space(spaces["G3"], spaces["G5"])


def test_space_classes(spaces):
    # distinct spans among the ten subgroup spaces
    reps = []
    for key in sorted(spaces):
        if not any(same_space(spaces[key], spaces[r]) for r in reps):
            reps.append(key)
    assert len(reps) == 7


def mutual_projection_residual(z1, z2):
    """Largest distance from a basis element of either space to the other span."""
    worst = 0.0
    for a, b in ((z1, z2), (z2, z1)):
        coords = np.einsum("bij,aij->ab", b.basis, a.basis)
        rebuilt = np.einsum("ab,bij->aij", coords, b.basis)
        worst = max(worst, float(np.max(np.linalg.norm(a.basis - rebuilt, axis=(1, 2)))))
    return worst


@pytest.mark.parametrize(
    ("p", "edges", "classes"),
    [
        (4, list(itertools.combinations(range(1, 5), 2)), 22),  # K4
        (5, [(1, j) for j in range(2, 6)], 15),  # star K_{1,4}
        (7, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)], 31),
    ],
    ids=["K4", "star", "windmill"],
)
def test_same_space_agrees_with_projection_residuals(p, edges, classes):
    g = Graph.build([str(i) for i in range(1, p + 1)], edges)
    spaces = [build_invariant_space(g, h) for h in enumerate_subgroups(automorphism_group(g))]
    reps = []
    for i, z in enumerate(spaces):
        for w in spaces[:i]:
            assert same_space(z, w) == (mutual_projection_residual(z, w) <= 1e-10)
        if all(mutual_projection_residual(z, r) > 1e-10 for r in reps):
            reps.append(z)
    assert len(reps) == classes


def numbered_graph(p, edges):
    return Graph.build([str(i) for i in range(1, p + 1)], edges)


LATTICE_GRAPHS = {
    "butterfly": hc.butterfly_graph(),
    "K4": numbered_graph(4, itertools.combinations(range(1, 5), 2)),
    "star": numbered_graph(5, [(1, j) for j in range(2, 6)]),
    "windmill": numbered_graph(
        7, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (1, 6), (1, 7), (6, 7)]
    ),
    "K5": numbered_graph(5, itertools.combinations(range(1, 6), 2)),
}


@pytest.mark.parametrize("name", list(LATTICE_GRAPHS))
def test_generator_orbits_match_element_orbits(name):
    """Every space of the lattice, and of a relabelled copy, matches the
    element-by-element construction; building and deduplicating the spaces
    builds no basis, which is made on first read."""
    base = LATTICE_GRAPHS[name]
    for g in (base, relabeled(base, random.Random(name))):
        subgroups = enumerate_subgroups(automorphism_group(g))
        spaces = [build_invariant_space(g, h) for h in subgroups]
        dedupe_models([Model(f"H{i}", z) for i, z in enumerate(spaces, start=1)])
        for z in spaces:
            assert "basis" not in vars(z) and "flat" not in vars(z)
        for h, space in zip(subgroups, spaces):
            orbits, basis = element_orbits_and_basis(g, h)
            assert space.orbits == orbits
            assert space.dim == len(orbits) and space.p == g.vertex_count
            assert np.array_equal(space.basis, basis)
            assert not space.basis.flags.writeable


def test_same_space_compares_graphs_by_value():
    edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
    g1 = Graph.build(list("abcd"), edges)
    g2 = Graph.build(list("abcd"), list(reversed(edges)))
    assert g1 is not g2 and g1 == g2
    swap = PermutationGroup.generate(4, [Permutation.from_cycle_string("(1 2)", 4)])
    trivial = PermutationGroup.trivial(4)
    assert same_space(build_invariant_space(g1, swap), build_invariant_space(g2, swap))
    assert same_space(build_invariant_space(g1, trivial), build_invariant_space(g2, trivial))
    assert not same_space(build_invariant_space(g1, swap), build_invariant_space(g2, trivial))


def test_same_space_usage_error(spaces):
    other = Graph.build(["a", "b"], [(1, 2)])
    z = build_invariant_space(other, PermutationGroup.trivial(2))
    with pytest.raises(UsageError):
        same_space(spaces["G1"], z)


def test_non_subgroup_raises_invariance_error(butterfly):
    bad = PermutationGroup.generate(5, [Permutation.from_cycle_string("(1 4)", 5)])
    with pytest.raises(InvarianceError) as info:
        build_invariant_space(butterfly, bad)
    sigma, (i, j) = info.value.permutation, info.value.edge
    assert sigma == bad.generators[0]
    assert butterfly.has_edge(i, j) and not butterfly.has_edge(sigma(i), sigma(j))


def test_project_shape_error(spaces):
    with pytest.raises(ShapeError):
        spaces["G1"].project(np.eye(4))
    # a flat or column vector with p^2 entries is not read as a matrix
    for span in (spaces["G1"], hc.full_sym_structure(5)):
        for bad in (np.ones(25), np.ones((25, 1))):
            with pytest.raises(ShapeError):
                span.coords(bad)
            with pytest.raises(ShapeError):
                span.project(bad)


def test_degree_mismatch(butterfly):
    with pytest.raises(ShapeError):
        build_invariant_space(butterfly, PermutationGroup.trivial(4))


def test_coords_round_trip(spans):
    rng = np.random.default_rng(14)
    for space in spans:
        v = rng.standard_normal(space.dim)
        assert np.allclose(space.coords(space.from_coords(v)), v, atol=1e-13)
