import itertools
import random

import numpy as np
import pytest

import homcone as hc
from homcone.errors import InvarianceError, ShapeError, UsageError
from homcone.graphs import (
    Graph,
    Permutation,
    PermutationGroup,
    automorphism_group,
    enumerate_subgroups,
)
from homcone.invariant import build_invariant_space, project, same_space
from homcone.realization import full_sym_structure

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
        assert space.residual_from(np.eye(5)) < 1e-12


def test_project_identity(spaces):
    for space in spaces.values():
        assert np.allclose(project(space, np.eye(5)), np.eye(5), atol=1e-14)


def test_project_single_diag_cell_orbit(spaces):
    # unit mass at cell (1,1) spreads over the orbit {1,2} under the vertex swap
    e11 = np.zeros((5, 5))
    e11[0, 0] = 1.0
    got = project(spaces["G2"], e11)
    expected = np.zeros((5, 5))
    expected[0, 0] = expected[1, 1] = 0.5
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(got, orbit_average_projection(spaces["G2"], e11), atol=1e-14)


def test_project_kills_non_edge_cells(spaces):
    e14 = np.zeros((5, 5))
    e14[0, 3] = e14[3, 0] = 1.0
    assert np.allclose(project(spaces["G1"], e14), 0.0, atol=1e-14)


def test_projection_matches_orbit_average_oracle(spaces):
    rng = np.random.default_rng(11)
    for space in spaces.values():
        for _ in range(100):
            a = rng.standard_normal((5, 5))
            y = a + a.T
            assert np.max(np.abs(project(space, y) - orbit_average_projection(space, y))) < 1e-12


def test_projection_self_adjoint(spans):
    rng = np.random.default_rng(12)
    for space in spans:
        for _ in range(10):
            u = rng.standard_normal((space.p, space.p))
            u = u + u.T
            v = rng.standard_normal((space.p, space.p))
            v = v + v.T
            lhs = np.sum(project(space, u) * v)
            rhs = np.sum(u * project(space, v))
            assert abs(lhs - rhs) < 1e-10


def test_projection_idempotent(spans):
    rng = np.random.default_rng(13)
    for space in spans:
        a = rng.standard_normal((space.p, space.p))
        y = project(space, a + a.T)
        assert np.allclose(project(space, y), y, atol=1e-13)


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
    base = LATTICE_GRAPHS[name]
    for g in (base, relabeled(base, random.Random(name))):
        for h in enumerate_subgroups(automorphism_group(g)):
            space = build_invariant_space(g, h)
            orbits, basis = element_orbits_and_basis(g, h)
            assert space.orbits == orbits
            assert np.array_equal(space.basis, basis)


def test_same_space_usage_error(spaces):
    other = Graph.build(["a", "b"], [(1, 2)])
    z = build_invariant_space(other, PermutationGroup.trivial(2))
    with pytest.raises(UsageError):
        same_space(spaces["G1"], z)


def test_non_subgroup_raises_invariance_error(butterfly):
    bad = PermutationGroup.generate(5, [Permutation.from_cycle_string("(1 4)", 5)])
    with pytest.raises(InvarianceError) as info:
        build_invariant_space(butterfly, bad)
    assert info.value.permutation is not None
    assert info.value.edge is not None


def test_project_shape_error(spaces):
    with pytest.raises(ShapeError):
        project(spaces["G1"], np.eye(4))
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
