"""Block matrix realizations of homogeneous cones.

A realization is a partition of the matrix size into blocks n_1..n_r plus a
family of subspaces V[l,k] of n_l x n_k matrices (1 <= k < l <= r) subject
to three closure axioms.  The realized space consists of symmetric matrices
with scalar diagonal blocks and off-diagonal blocks in the subspaces.  The
lower triangular matrices of the same shape with positive diagonal scalars
act simply transitively on the realized cone by congruence, which gives:

* a generalized Cholesky factorization of dual points (factor_T), run on
  the point's orthonormal coordinates through a per-structure plan of slot
  offsets and structure constants, in plain floats,
* closed forms for the determinant functional and its Hessian determinant
  (delta_phi_fast): twice the log determinant of the factor, and a power
  of its diagonal scalars whose exponents (the multidegree) are counted
  from the dimensions of the off-diagonal subspaces, and
* the gamma-type integral of the cone in closed form (log_gamma_v).

An invariant space is hooked up to a realization by an orthogonal
conjugation (conjugate_space), which is an isometry for the trace inner
product, so all functionals computed in realized coordinates agree with
their definitions on the original space.  ``realize`` derives the
conjugation and the block structure of any invariant space of a
homogeneous graph from the eigenspaces of one generic element, and
returns them only once both checks pass.  Projection, conjugation,
coordinates and the block-form membership residual are then all linear in
the point, so the resulting Realization composes them into fixed matrices,
built on first use: ``point_map`` takes vec(y) of a point of the space to
its realized coordinates stacked over its residual from the block form,
and ``scale_map`` does the same for projection(D) / 2 of a prior scale D.
Scoring a model is one matrix-vector product and the float factorization.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import (
    CapabilityError,
    ConjugationError,
    DomainError,
    DualMembershipError,
    ShapeError,
)
from .invariant import SPAN_TOL, InvariantSpace, OrthonormalSpan, project_onto

AXIOM_TOL = 1e-12
BASIS_GRAM_TOL = 1e-10
# a pivot at or below this multiple of its block's diagonal coefficient is
# rounding noise left by cancellation: the point is on or past the boundary
PIVOT_RTOL = 16.0 * sys.float_info.epsilon
# realize: the seed of the generic element's coordinates, the relative gap
# below which two of its eigenvalues on an orbit are one, and the singular
# value at or below which a V[l,k] spanning direction is rounding
REALIZE_SEED = 20240601
EIGEN_GAP_RTOL = 1e-8
RANK_TOL = 1e-10


class FactorPlan(NamedTuple):
    """What the factorization and the gamma integral read of a structure,
    built once.

    ``slots`` holds the (start, stop) range of each off-diagonal slot's
    coordinates, in ``offdiag_slots`` order.  ``steps`` runs over the block
    rows k = r..1; each is (k, row, bilinear) with ``row`` the (slot of
    V[k,i], i) pairs of row k and ``bilinear`` the (slot of V[i,j], slot of
    V[k,i], slot of V[k,j], C) updates, where C[e][a][b] =
    (A^{ij}_e | (A^{ki}_a)^T A^{kj}_b) as nested lists.  The gamma integral
    at exponent alpha is ``gamma_const - alpha * n_log_n`` plus
    lgamma(n_k alpha + offset_k) over the (n_k, offset_k) pairs of
    ``lgamma_args``, with offset_k = q(k) / 2 + 1.
    """

    slots: tuple[tuple[int, int], ...]
    steps: tuple[tuple, ...]
    gamma_const: float
    n_log_n: float
    lgamma_args: tuple[tuple[int, float], ...]


class VStructure(OrthonormalSpan):
    """Block sizes plus orthonormal bases of the off-diagonal subspaces.

    ``subspaces`` maps a pair (l, k) with 1 <= k < l <= r to a stack of
    n_l x n_k matrices that is orthonormal under (A|B) = tr(A B^T).  Pairs
    that are absent (or mapped to an empty stack) denote the zero subspace.
    Coordinates and projections are taken over the realized space's
    ``basis``; ``point_map`` adds the residual from the realized space.
    """

    def __init__(self, block_sizes, subspaces=None):
        self.block_sizes = tuple(int(n) for n in block_sizes)
        if not self.block_sizes or any(n <= 0 for n in self.block_sizes):
            raise ValueError(f"block sizes must be positive: {self.block_sizes}")
        self.r = len(self.block_sizes)
        self.p = sum(self.block_sizes)
        offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self._start = {k: int(offsets[k - 1]) for k in range(1, self.r + 1)}
        subs: dict[tuple[int, int], np.ndarray] = {}
        for (l, k), mats in (subspaces or {}).items():
            l, k = int(l), int(k)
            if not 1 <= k < l <= self.r:
                raise ValueError(f"subspace index ({l},{k}) out of range for r={self.r}")
            arr = np.asarray(mats, dtype=float)
            if arr.ndim == 2:
                arr = arr[None, :, :]
            if arr.size == 0:
                continue
            nl, nk = self.block_sizes[l - 1], self.block_sizes[k - 1]
            if arr.shape[1:] != (nl, nk):
                raise ShapeError(
                    f"subspace ({l},{k}) basis must be {nl}x{nk}, got {arr.shape[1:]}"
                )
            gram = np.einsum("aij,bij->ab", arr, arr)
            if np.max(np.abs(gram - np.eye(arr.shape[0]))) > BASIS_GRAM_TOL:
                raise ValueError(f"subspace ({l},{k}) basis is not orthonormal")
            subs[(l, k)] = arr
        self.subspaces = subs
        self.dim = self.r + sum(a.shape[0] for a in subs.values())

    # -- layout ------------------------------------------------------------

    def block_slice(self, k: int) -> slice:
        s = self._start[k]
        return slice(s, s + self.block_sizes[k - 1])

    def block(self, x: np.ndarray, l: int, k: int) -> np.ndarray:
        return x[self.block_slice(l), self.block_slice(k)]

    def dim_of(self, l: int, k: int) -> int:
        arr = self.subspaces.get((l, k))
        return 0 if arr is None else arr.shape[0]

    def q(self, k: int) -> int:
        """Total dimension of the subspaces below diagonal block k."""
        return sum(self.dim_of(l, k) for l in range(k + 1, self.r + 1))

    def offdiag_slots(self) -> list[tuple[int, int]]:
        return sorted(self.subspaces.keys(), key=lambda lk: (lk[1], lk[0]))

    # -- orthonormal basis of the realized space ---------------------------

    @cached_property
    def basis(self) -> np.ndarray:
        mats = []
        for k in range(1, self.r + 1):
            b = np.zeros((self.p, self.p))
            sl = self.block_slice(k)
            b[sl, sl] = np.eye(self.block_sizes[k - 1]) / math.sqrt(self.block_sizes[k - 1])
            mats.append(b)
        for l, k in self.offdiag_slots():
            for a in self.subspaces[(l, k)]:
                b = np.zeros((self.p, self.p))
                b[self.block_slice(l), self.block_slice(k)] = a / math.sqrt(2.0)
                b[self.block_slice(k), self.block_slice(l)] = a.T / math.sqrt(2.0)
                mats.append(b)
        out = np.array(mats)
        out.setflags(write=False)
        return out

    @cached_property
    def plan(self) -> FactorPlan:
        """Coordinate offsets, update lists and structure constants of factor_T."""
        order = self.offdiag_slots()
        index = {lk: s for s, lk in enumerate(order)}
        slots, start = [], self.r
        for lk in order:
            slots.append((start, start + self.dim_of(*lk)))
            start = slots[-1][1]
        subs = self.subspaces
        steps = []
        for k in range(self.r, 0, -1):
            row = [(index[(k, j)], j) for j in range(1, k) if (k, j) in index]
            bilinear = [
                (
                    index[(i, j)],
                    s_ki,
                    s_kj,
                    np.einsum(
                        "euv,awu,bwv->eab", subs[(i, j)], subs[(k, i)], subs[(k, j)]
                    ).tolist(),
                )
                for s_ki, i in row
                for s_kj, j in row
                if j < i and (i, j) in index
            ]
            steps.append((k, row, bilinear))
        sizes = self.block_sizes
        qs = [self.q(k) for k in range(1, self.r + 1)]
        return FactorPlan(
            slots=tuple(slots),
            steps=tuple(steps),
            gamma_const=0.5 * (self.dim - self.r) * math.log(2.0 * math.pi)
            - sum((qk + 1) / 2.0 * math.log(nk) for nk, qk in zip(sizes, qs)),
            n_log_n=sum(nk * math.log(nk) for nk in sizes),
            lgamma_args=tuple((nk, qk / 2.0 + 1.0) for nk, qk in zip(sizes, qs)),
        )

    @cached_property
    def point_map(self) -> np.ndarray:
        """Coordinate rows B stacked over residual rows I - B^T B.

        Applied to vec(y) it gives the coordinates of y, then the residual
        of y from the realized space; its norm is that of y.
        """
        flat = self.flat
        resid = np.eye(flat.shape[1]) - flat.T @ flat
        return np.ascontiguousarray(np.vstack([flat, resid]))

    # -- congruence action -------------------------------------------------

    @cached_property
    def multidegree(self) -> tuple[int, ...]:
        """Integer exponents of the diagonal scalars in det of the congruence action.

        Scaling diagonal scalar k of t by s multiplies the diagonal basis
        element of block k by s^2 and every basis element of V[l,k] (l > k)
        and of V[k,j] (j < k) by s, so the exponent at block k is
        2 + q_k + sum_{j<k} dim V[k,j].
        """
        return tuple(
            2 + self.q(k) + sum(self.dim_of(k, j) for j in range(1, k))
            for k in range(1, self.r + 1)
        )


def full_sym_structure(p: int) -> VStructure:
    """Canonical realization of the full symmetric cone: p scalar blocks."""
    subs = {(l, k): np.ones((1, 1, 1)) for k in range(1, p + 1) for l in range(k + 1, p + 1)}
    return VStructure([1] * p, subs)


def ray_structure(p: int) -> VStructure:
    """The ray of multiples of the identity: one block of size p."""
    return VStructure([p], {})


# ---------------------------------------------------------------------------
# axiom validation


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    where: tuple
    residual: float
    detail: str


@dataclass
class VStructureReport:
    violations: dict[str, list[AxiomViolation]]

    @property
    def passed(self) -> bool:
        return all(not v for v in self.violations.values())


def validate_vstructure(structure: VStructure) -> VStructureReport:
    """Check the three closure axioms, reporting every witnessed failure.

    V1: the symmetrized product of two basis elements of V[l,k] is a multiple
    of the identity.  For blocks j < k < l, V2: V[l,j] V[k,j]^T lies in
    V[l,k], and V3: V[l,k] V[k,j] lies in V[l,j]; a missing subspace is {0}.
    """
    report: dict[str, list[AxiomViolation]] = {"V1": [], "V2": [], "V3": []}
    subs = structure.subspaces

    def check(axiom: str, where: tuple, residual, detail: str) -> None:
        if residual > AXIOM_TOL:
            report[axiom].append(AxiomViolation(axiom, where, float(residual), detail))

    for (l, k), arr in sorted(subs.items()):
        nl = structure.block_sizes[l - 1]
        for i, j in combinations_with_replacement(range(arr.shape[0]), 2):
            prod = arr[i] @ arr[j].T + arr[j] @ arr[i].T
            check(
                "V1",
                (l, k, i, j),
                np.linalg.norm(prod - (np.trace(prod) / nl) * np.eye(nl)),
                f"symmetrized product of basis elements {i},{j} of "
                f"V[{l},{k}] is not a multiple of the identity",
            )
    for j, k, l in combinations(range(1, structure.r + 1), 3):
        # (axiom, left factor, right factor, where: target block and the third)
        for axiom, a_key, b_key, where, transpose in (
            ("V2", (l, j), (k, j), (l, k, j), True),
            ("V3", (l, k), (k, j), (l, j, k), False),
        ):
            a_arr, b_arr = subs.get(a_key), subs.get(b_key)
            if a_arr is None or b_arr is None:
                continue
            span = subs.get(where[:2])
            for ia, a in enumerate(a_arr):
                for ib, b in enumerate(b_arr):
                    c = a @ b.T if transpose else a @ b
                    check(
                        axiom,
                        (*where, ia, ib),
                        np.linalg.norm(c if span is None else c - project_onto(span, c)),
                        f"V[{a_key[0]},{a_key[1]}]#{ia} times V[{b_key[0]},{b_key[1]}]"
                        f"#{ib}{'^T' if transpose else ''} leaves V[{where[0]},{where[1]}]",
                    )
    return VStructureReport(violations=report)


# ---------------------------------------------------------------------------
# triangular group


@dataclass(frozen=True, eq=False)
class TriangularElement:
    """Lower triangular group element: positive diagonal scalars plus blocks."""

    structure: VStructure
    diag: tuple[float, ...]
    blocks: tuple[tuple[tuple[int, int], np.ndarray], ...]

    def matrix(self) -> np.ndarray:
        v = self.structure
        t = np.zeros((v.p, v.p))
        for k in range(1, v.r + 1):
            sl = v.block_slice(k)
            t[sl, sl] = self.diag[k - 1] * np.eye(v.block_sizes[k - 1])
        for (l, k), b in self.blocks:
            t[v.block_slice(l), v.block_slice(k)] = b
        return t


def _factor_coords(
    structure: VStructure, point_map: np.ndarray, y: np.ndarray
) -> tuple[list[float], list[list[float]]]:
    """Diagonal scalars and slot coefficients of the triangular factor.

    ``point_map`` carries vec(y) to the realized coordinates stacked over
    the residual from the realized space: the structure's own point_map
    for a realized point, or a Realization's map for a point of the
    original space.  The coefficients are those of each T[k,j] in the
    orthonormal basis of V[k,j], listed in ``offdiag_slots`` order.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (structure.p, structure.p):
        raise ShapeError(f"expected {structure.p}x{structure.p}, got {y.shape}")
    v = point_map @ y.reshape(-1)
    resid = v[structure.dim:]
    if math.sqrt(resid @ resid) > SPAN_TOL * max(1.0, math.sqrt(v @ v)):
        raise DomainError("point is not in the realized space")
    plan = structure.plan
    c = v[: structure.dim].tolist()
    sizes = structure.block_sizes
    d = [c[k] / math.sqrt(n) for k, n in enumerate(sizes)]
    floor = [PIVOT_RTOL * max(dk, 0.0) for dk in d]
    b = [[x / math.sqrt(2.0) for x in c[lo:hi]] for lo, hi in plan.slots]
    diag = [0.0] * structure.r
    t: list[list[float]] = [[] for _ in plan.slots]
    for k, row, bilinear in plan.steps:
        dk = d[k - 1]
        if not dk > floor[k - 1]:
            raise DualMembershipError(
                f"factorization breakdown at block {k}: pivot {dk:.6g} "
                f"<= {floor[k - 1]:.3g}"
            )
        tk = math.sqrt(dk)
        diag[k - 1] = tk
        for s, i in row:
            t[s] = [x / tk for x in b[s]]
            d[i - 1] -= sum(x * x for x in t[s]) / sizes[i - 1]
        for s_ij, s_ki, s_kj, const in bilinear:
            tki, tkj, bij = t[s_ki], t[s_kj], b[s_ij]
            for e, ce in enumerate(const):
                bij[e] -= sum(
                    x * sum(cv * z for cv, z in zip(cea, tkj))
                    for x, cea in zip(tki, ce)
                )
    return diag, t


def _log_delta_phi(structure: VStructure, diag: list[float]) -> tuple[float, float]:
    log_diag = [math.log(t) for t in diag]
    log_delta_value = 2.0 * sum(n * lt for n, lt in zip(structure.block_sizes, log_diag))
    log_det_rho = sum(s * lt for s, lt in zip(structure.multidegree, log_diag))
    return log_delta_value, -log_det_rho


def factor_T(structure: VStructure, y: np.ndarray) -> TriangularElement:
    """Unique triangular element with projection(T^T T) equal to the dual point y.

    Block back-substitution from the last block row upward, on the
    orthonormal coordinates of y: the diagonal coefficient of block k is
    d_k = c_k / sqrt(n_k) and the V[l,k] coefficients are c / sqrt(2).  Peel
    t_k = sqrt(d_k), divide it out of row k, then subtract |t_ki|^2 / n_i
    from d_i and the projection of t_ki^T t_kj onto V[i,j] from b_ij, which
    the structure's plan holds as structure constants.  A pivot that is not
    above PIVOT_RTOL times its block's diagonal coefficient raises
    DualMembershipError: y is past the boundary of the dual cone, or on it
    up to rounding.
    """
    diag, coeffs = _factor_coords(structure, structure.point_map, y)
    blocks = tuple(
        (lk, np.einsum("a,aij->ij", np.asarray(tc), structure.subspaces[lk]))
        for lk, tc in zip(structure.offdiag_slots(), coeffs)
    )
    return TriangularElement(structure=structure, diag=tuple(diag), blocks=blocks)


def delta_phi_fast(structure: VStructure, y: np.ndarray) -> tuple[float, float]:
    """(log delta, log phi) at a dual point of the realized cone.

    log delta is twice the log determinant of the triangular factor; log phi
    is minus the log determinant of its congruence action, a pure power of
    the diagonal scalars with the structure's multidegree.  Both read only
    the factor's diagonal scalars.
    """
    diag, _ = _factor_coords(structure, structure.point_map, y)
    return _log_delta_phi(structure, diag)


def log_gamma_v(structure: VStructure, alpha: float) -> float:
    """Log of the gamma-type integral of the realized cone at exponent alpha."""
    if alpha < 0:
        raise DomainError(f"gamma integral needs alpha >= 0, got {alpha}")
    plan = structure.plan
    total = plan.gamma_const - alpha * plan.n_log_n
    for nk, offset in plan.lgamma_args:
        total += math.lgamma(nk * alpha + offset)
    return total


# ---------------------------------------------------------------------------
# conjugation between an invariant space and a realized space


@dataclass(frozen=True, eq=False)
class Realization:
    """Orthogonal change of coordinates carrying a space onto a block form.

    Holds the conjugating matrix u, with u^T y u in the realized space for
    every y in the original space, the block structure, and the original
    space's flattened basis.  Build it with conjugate_space, which checks
    that.  Scoring reads two linear maps of vec(y), built on first use:
    with K = u^T (x) u^T (so K vec(y) = vec(u^T y u)) and B the realized
    flattened basis, ``point_map`` stacks B K over (I - B^T B) K, the
    realized coordinates over the residual from the block form; and
    ``scale_map`` folds in the space's projector P and the halving of a
    prior scale, point_map P / 2.
    """

    u: np.ndarray
    structure: VStructure
    space_flat: np.ndarray  # (N, p^2): the original space's basis, one row each

    @cached_property
    def point_map(self) -> np.ndarray:
        u_t = self.u.T
        return self.structure.point_map @ np.kron(u_t, u_t)

    @cached_property
    def scale_map(self) -> np.ndarray:
        return 0.5 * (self.point_map @ (self.space_flat.T @ self.space_flat))

    def log_gamma(self, alpha: float) -> float:
        return log_gamma_v(self.structure, alpha)

    def log_delta_phi(self, y: np.ndarray) -> tuple[float, float]:
        """(log delta, log phi) at a point y of the original space."""
        diag, _ = _factor_coords(self.structure, self.point_map, y)
        return _log_delta_phi(self.structure, diag)

    def log_delta_phi_at_scale(self, scale: np.ndarray) -> tuple[float, float]:
        """(log delta, log phi) at projection(scale) / 2, the point at which a
        prior with scale matrix ``scale`` is scored."""
        diag, _ = _factor_coords(self.structure, self.scale_map, scale)
        return _log_delta_phi(self.structure, diag)


def conjugate_space(
    space: InvariantSpace, u: np.ndarray, structure: VStructure
) -> Realization:
    """Verify that conjugation by u maps the space onto the realized space.

    Checks orthogonality of u, membership of every conjugated basis element
    in the block form, and equality of dimensions.  An orthogonal u is an
    isometry for the trace inner product, so together these make
    conjugation a coordinate isometry between the two spaces.
    """
    u = np.asarray(u, dtype=float)
    p = space.p
    if u.shape != (p, p) or structure.p != p:
        raise ShapeError(
            f"conjugation size mismatch: space p={p}, u {u.shape}, "
            f"structure p={structure.p}"
        )
    ortho_resid = float(np.linalg.norm(u.T @ u - np.eye(p)))
    if ortho_resid > 1e-12:
        raise ConjugationError(f"u is not orthogonal (residual {ortho_resid:.3e})")
    for a, bmat in enumerate(space.basis):
        resid = structure.residual_from(u.T @ bmat @ u)
        if resid > SPAN_TOL:
            raise ConjugationError(
                f"conjugated basis element {a} leaves the block form "
                f"(residual {resid:.3e})",
                basis_index=a,
            )
    if structure.dim != space.dim:
        raise ConjugationError(
            f"dimension mismatch: space has {space.dim}, block form has {structure.dim}"
        )
    return Realization(u=u, structure=structure, space_flat=space.flat)


# ---------------------------------------------------------------------------
# deriving a realization from the space


def realize(space: InvariantSpace) -> Realization:
    """A checked block realization of the space, derived from one generic element.

    The element's coordinates come from ``random.Random(REALIZE_SEED)``.
    Each vertex orbit O contributes the eigenspaces of x[O,O] as blocks,
    eigenvalues closer than EIGEN_GAP_RTOL times the largest magnitude on
    O being one.  Blocks are ordered by their orbit's closed neighbourhood
    size |N[v]|, ascending, so the largest neighbourhood comes last; on a
    homogeneous graph the neighbourhoods along every edge are nested, which
    puts each vertex's later neighbours in one clique.  V[l,k] is the row
    space of the (l,k) blocks of u^T B_a u over the space's basis, by SVD,
    dropping singular values at or below RANK_TOL (the B_a have unit norm).
    The structure must pass validate_vstructure and conjugate_space, else
    CapabilityError naming the group's generators.
    """
    rng = random.Random(REALIZE_SEED)
    return _realize_at(space, [rng.gauss(0.0, 1.0) for _ in range(space.dim)])


def _realize_at(space: InvariantSpace, coords) -> Realization:
    """``realize`` with the generic element given by its coordinates."""
    x = space.from_coords(coords)
    nbhd = [len(space.graph.neighbors(v)) + 1 for v in range(1, space.p + 1)]
    orbits = sorted(([i - 1 for i, _ in orb] for orb in space.orbits if orb[0][0] == orb[0][1]),
                    key=lambda orbit: nbhd[orbit[0]])
    columns = []
    for orbit in orbits:
        values, vectors = np.linalg.eigh(x[np.ix_(orbit, orbit)])
        gap = EIGEN_GAP_RTOL * np.max(np.abs(values))
        cuts = [0, *(i for i in range(1, len(values)) if values[i] - values[i - 1] > gap),
                len(values)]
        for lo, hi in zip(cuts, cuts[1:]):
            col = np.zeros((space.p, hi - lo))
            col[orbit] = vectors[:, lo:hi]
            columns.append(col)
    u = np.hstack(columns)
    sizes = [c.shape[1] for c in columns]
    start = np.cumsum([0, *sizes])
    conj = u.T @ space.basis @ u
    subspaces = {}
    for k, l in combinations(range(1, len(sizes) + 1), 2):
        blocks = conj[:, start[l - 1]:start[l], start[k - 1]:start[k]]
        _, s, vt = np.linalg.svd(blocks.reshape(space.dim, -1), full_matrices=False)
        rank = int(np.sum(s > RANK_TOL))
        if rank:
            subspaces[(l, k)] = vt[:rank].reshape(rank, *blocks.shape[1:])
    structure = VStructure(sizes, subspaces)
    gens = ", ".join(g.cycle_string() for g in space.group.generators) or "e"
    if not validate_vstructure(structure).passed:
        raise CapabilityError(f"no block realization for the group generated by {gens}: "
                              f"the derived blocks {sizes} break the axioms")
    try:
        return conjugate_space(space, u, structure)
    except ConjugationError as exc:
        raise CapabilityError(f"no block realization for the group generated by "
                              f"{gens}: {exc}") from None
