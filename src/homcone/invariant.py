"""Group-invariant symmetric matrix spaces attached to a graph.

For a graph and a subgroup of its automorphisms, the space collects the
symmetric matrices that are invariant under simultaneous row/column
permutation by every group element and vanish on non-adjacent off-diagonal
cells.  It is fixed by the group orbits of the diagonal and edge cells, so
``InvariantSpace`` stores that orbit partition and compares spaces by it.
Its orthonormal basis under the trace inner product tr(xy), one normalized
orbit indicator per orbit, is built on first use.  Coordinates and
projections live in ``OrthonormalSpan``, which the realized block
structures share: it flattens the basis once into an (N, p^2) matrix B,
so coordinates are B vec(x), a point is B^T c, and the projection is
B^T B vec(x), each one or two matrix products; ``span_coords``, the one
membership check, takes a stack of points through the span's
``point_map``, B stacked over I - B^T B.  An invariant space also reads
its support, the cells where some basis matrix is nonzero, and plans an
elimination along it (``perfect_elimination``): the vertices by ascending
closed-neighbourhood size, ties by index.  On a
homogeneous graph the closed neighbourhoods of adjacent vertices are
nested, so the later neighbours of every vertex are pairwise adjacent and
the order is a perfect elimination order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvarianceError, ShapeError, UsageError
from .graphs import Graph, PermutationGroup

SPAN_TOL = 1e-10


def finite_norm(m: np.ndarray, what: str) -> float:
    """Frobenius norm of the float array m, by ``math.hypot``, which scales
    instead of overflowing and raises no floating-point warning.

    DomainError names the first non-finite entry of m, or says that the
    norm itself overflows."""
    norm = math.hypot(*m.reshape(-1).tolist())
    if math.isfinite(norm):
        return norm
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        cell = tuple(int(i) for i in bad[0])
        raise DomainError(f"{what} has a non-finite entry {m[cell]} at {list(cell)}")
    raise DomainError(f"{what} is too large: its norm overflows")


def in_stack(message: str, j: int, m: int) -> str:
    """message about point j of a stack of m points: prefixed "point j of
    m: " when the stack holds more than one point."""
    return message if m == 1 else f"point {j} of {m}: {message}"


def span_coords(linear_map: np.ndarray, ys, what: str) -> tuple:
    """Coordinates of a stack of points of one span, checked against its
    ``point_map``.

    ``linear_map`` stacks the span's N coordinate rows over its p^2
    residual rows.  ys is a stack of m >= 1 p x p points, and the result is
    their (N, m) coordinates, one point a column, and the list of their m
    norms.

    ShapeError names the shape of the points if it is not p x p, and
    refuses an empty stack.  Every point's finiteness is checked, by
    ``finite_norm``, before any point's membership.  A point whose residual
    from the span has a norm above its bound, SPAN_TOL times max(1, norm),
    raises DomainError.  An error about a point of a stack of m > 1 starts
    "point j of m: " (``in_stack``), j the first such point.  Every norm is
    taken by ``math.hypot``, so none overflows; one over all the residuals,
    against the smallest bound, settles the usual case in which every point
    is within the span.
    """
    p = math.isqrt(linear_map.shape[1])
    ys = np.asarray(ys, dtype=float)
    if ys.shape[1:] != (p, p):
        raise ShapeError(f"{what} must be {p}x{p}, got {ys.shape[1:]}")
    m = len(ys)
    if not m:
        raise ShapeError(f"{what} stack is empty")
    flat = ys.reshape(m, -1)
    norms = [math.hypot(*point) for point in flat.tolist()]
    if not math.isfinite(sum(norms)):  # a norm is not finite, or only their sum
        for j, point in enumerate(ys):
            finite_norm(point, in_stack(what, j, m))
    # one point a column: numpy multiplies by a transposed view of several
    # points several times more slowly at these sizes
    v = linear_map @ (flat.T if m == 1 else np.ascontiguousarray(flat.T))
    dim = len(v) - p * p
    if not math.hypot(*v[dim:].ravel().tolist()) <= SPAN_TOL * max(1.0, min(norms)):
        for j, norm in enumerate(norms):
            residual = math.hypot(*v[dim:, j].tolist())
            if residual > SPAN_TOL * max(1.0, norm):
                raise DomainError(in_stack(
                    f"{what} is not in the space (residual {residual:.3e})", j, m))
    return v[:dim], norms


def project_onto(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the span of an orthonormal stack of
    matrices under (a|b) = tr(a b^T)."""
    return np.einsum("a,aij->ij", np.einsum("aij,ij->a", stack, x), stack)


class EliminationGroup(NamedTuple):
    """The m ``vertices`` of a perfect elimination order that have k later
    neighbours, with those neighbours as row-major flat cells of a p x p
    matrix: ``column`` (m, k) holds the cells (l, v) over the later
    neighbours l of v, and ``block`` (m, k, k) the cells (l, l') among
    them."""

    vertices: np.ndarray
    column: np.ndarray
    block: np.ndarray


class OrthonormalSpan:
    """Coordinates and projections for a subclass's orthonormal ``basis``
    stack (N, p, p) under the trace inner product, taken through its
    row-major flattening ``flat``."""

    @cached_property
    def flat(self) -> np.ndarray:
        """The basis as a C-contiguous (N, p^2) matrix: row a is vec(B_a)."""
        basis = self.basis
        return np.ascontiguousarray(basis.reshape(basis.shape[0], -1))

    @cached_property
    def point_map(self) -> np.ndarray:
        """Coordinate rows B stacked over residual rows I - B^T B.

        Applied to vec(y) it gives the coordinates of y, then the residual
        of y from the span; its norm is that of y.
        """
        flat = self.flat
        resid = np.eye(flat.shape[1]) - flat.T @ flat
        return np.ascontiguousarray(np.vstack([flat, resid]))

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the projection of the p x p matrix x onto the space."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p, self.p):
            raise ShapeError(f"expected a {self.p}x{self.p} matrix, got {x.shape}")
        return self.flat @ x.reshape(-1)

    def from_coords(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=float) @ self.flat).reshape(self.p, self.p)

    def project(self, y: np.ndarray) -> np.ndarray:
        return self.from_coords(self.coords(y))


@dataclass(frozen=True, eq=False)
class InvariantSpace(OrthonormalSpan):
    """Invariant subspace, defined by its cell orbits: ``orbits`` holds the
    1-based (i, j) cells, i <= j, of each orbit, sorted, ordered by first
    cell.  The orthonormal ``basis`` under the trace inner product and its
    flattening ``flat`` are built from the orbits on first use."""

    graph: Graph
    group: PermutationGroup
    orbits: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.orbits)

    @property
    def p(self) -> int:
        return self.graph.vertex_count

    @cached_property
    def basis(self) -> np.ndarray:
        """Read-only (N, p, p) stack: basis element a is the indicator of
        orbit a, symmetrized and scaled to unit trace norm."""
        basis = np.zeros((self.dim, self.p, self.p))
        for b, orbit in zip(basis, self.orbits):
            diagonal = orbit[0][0] == orbit[0][1]
            w = 1.0 / math.sqrt(len(orbit) if diagonal else 2.0 * len(orbit))
            for i, j in orbit:
                b[i - 1, j - 1] = b[j - 1, i - 1] = w
        basis.setflags(write=False)
        return basis

    @cached_property
    def support(self) -> np.ndarray:
        """The p x p cells where some basis matrix is nonzero."""
        return np.any(self.flat != 0.0, axis=0).reshape(self.p, self.p)

    @cached_property
    def perfect_elimination(self) -> tuple[EliminationGroup, ...] | None:
        """The support's elimination plan, grouped by the number of later
        neighbours, or None if the order is not a perfect elimination order
        (the support is then not chordal along it, as on a 4-cycle).

        The vertices are taken by ascending closed-neighbourhood size in the
        support, ties by index; the diagonal counts as supported."""
        p = self.p
        adjacent = self.support | np.eye(p, dtype=bool)
        order = np.argsort(adjacent.sum(axis=1), kind="stable")
        by_count: dict[int, list[tuple[int, list[int]]]] = {}
        for pos, v in enumerate(order):
            later = [int(w) for w in order[pos + 1:] if adjacent[v, w]]
            if not adjacent[np.ix_(later, later)].all():
                return None
            by_count.setdefault(len(later), []).append((int(v), later))
        groups = []
        for k, members in sorted(by_count.items()):
            vertices = np.array([v for v, _ in members], dtype=np.intp)
            later = np.array([l for _, l in members], dtype=np.intp).reshape(len(members), k)
            groups.append(EliminationGroup(
                vertices=vertices,
                column=later * p + vertices[:, None],
                block=later[:, :, None] * p + later[:, None, :],
            ))
        return tuple(groups)


def _cell_orbits(g: Graph, group: PermutationGroup):
    """Orbits of the diagonal and edge cells (i <= j) under the group, each
    sorted, ordered by first cell.  Each orbit is a search from one cell
    that applies the group's generators, which generate every element.
    Every generator meets every edge cell once, so the search also raises
    InvarianceError if one maps an edge to a non-edge."""
    edges = g.edges
    # each generator's images, padded so that 1-based vertices index them
    images = [(0, *sigma.images) for sigma in group.generators]
    cells = [(i, i) for i in range(1, g.vertex_count + 1)] + sorted(edges)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for cell in cells:
        if cell in seen:
            continue
        seen.add(cell)
        orbit = [cell]
        for i, j in orbit:
            for im in images:
                a, b = im[i], im[j]
                image = (a, b) if a <= b else (b, a)
                if image in seen:
                    continue
                if a != b and image not in edges:
                    sigma = group.generators[images.index(im)]
                    raise InvarianceError(
                        f"permutation {sigma.cycle_string()} maps edge ({i},{j}) to "
                        f"non-edge ({a},{b}); not an automorphism",
                        permutation=sigma,
                        edge=(i, j),
                    )
                seen.add(image)
                orbit.append(image)
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def build_invariant_space(g: Graph, group: PermutationGroup) -> InvariantSpace:
    """Construct the invariant space for a subgroup of the graph automorphisms.

    Raises InvarianceError if a generator of the group is not an
    automorphism (a group maps edges to edges iff its generators do)."""
    p = g.vertex_count
    if group.degree != p:
        raise ShapeError(f"group degree {group.degree} != vertex count {p}")
    return InvariantSpace(graph=g, group=group, orbits=_cell_orbits(g, group))


def same_space(z1: InvariantSpace, z2: InvariantSpace) -> bool:
    """True iff the two spans coincide.

    Each basis element is the normalized indicator of one cell orbit, so two
    spaces on one graph span the same matrices exactly when their canonical
    orbit partitions are equal.  The graphs are compared by identity first,
    and by value only when they are different objects; spaces on different
    graphs raise UsageError.
    """
    if z1.graph is not z2.graph and z1.graph != z2.graph:
        raise UsageError("spaces live on different graphs")
    return z1.orbits == z2.orbits
