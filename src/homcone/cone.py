"""Generic numeric evaluation of cone maps on an invariant space.

The primal cone is the intersection of the space with the positive definite
matrices; the dual cone is the set of points with positive pairing against
the closed primal cone.  The central object is the map sending a dual point
y to the unique primal maximizer of exp(-tr(xy)) det(x), computed here by a
damped Newton iteration on the convex objective tr(xy) - log det x.  From
that map everything else follows: the determinant functional, its Hessian
in basis coordinates, and the square-root-determinant factor, all carried
by the solution ``psi`` returns.  ``psi_stack`` solves a stack of dual
points on one space in one Newton loop, and ``psi`` is its stack of one.
The Newton iteration runs on the orthonormal coordinates of the space.  With x = L L^T and each basis
element B_a transformed by congruence, C_a = L^{-1} B_a L^{-T}, the
gradient is coords(y) - tr(C_a) and the metric at x,
tr(B_a x^{-1} B_b x^{-1}), is the Gram matrix <C_a, C_b> of the flattened
C_a; a trial point becomes a matrix only for its Cholesky factor.
``metric_matrix`` keeps the Kronecker form of that metric as the
reference.  For a stack of points every step up to the line search is
one stacked numpy call over the points still iterating: the factors'
inverses, the congruences, the metrics and their Cholesky factors, and
the Newton steps.  The line search runs point by point, since the points
need different step lengths.  A point leaves the loop when its gradient
passes the test, so a stack costs as many iterations as its slowest
point and each point as many as it would alone.

The iteration starts at the inverse of the max-determinant positive
definite completion of the point, built along the perfect elimination order
of the space's support.  On an invariant space of a homogeneous graph, a
pattern space whose support is chordal, that start is the solution, and
the first iteration only certifies its gradient; a pivot of the completion
that is not positive certifies instead that the point is outside the open
dual cone.  Any other span, or a support with no perfect elimination
order, starts Newton from a multiple of the identity, as does a start
whose Cholesky factor fails.  The start reads the point's entries alone
and never calls a realization; a stack's starts take one stacked solve
per group of the elimination order.

All determinant work is done in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DualMembershipError, ShapeError
from .invariant import InvariantSpace, in_stack, span_coords

GRAD_TOL = 1e-11
MAX_ITER = 100
ARMIJO_C = 1e-4

# Optional sink for per-iteration Newton records, set by the CLI when verbose.
_trace_sink = None


def set_newton_trace(sink) -> None:
    """Install a callable receiving one dict per point and Newton iteration
    (or None): ``iteration``, ``gradient_norm``, ``halvings`` and ``point``,
    as ``psi_stack`` describes them."""
    global _trace_sink
    _trace_sink = sink


@dataclass
class PsiResult:
    """Converged solution of the inverse-projection map at a dual point, with
    the functionals read off it: log delta, log phi and the metric at x_star,
    the Hessian of -log det there restricted to the space (whose inverse is
    the Hessian of -log delta at y).

    ``psi`` solves at y / scale, scale the Frobenius norm of y, and keeps
    the metric at that normalized point, ``normalized_metric``; ``metric``
    multiplies it by scale^2 when read, so a point whose metric overflows
    in its own units still gives a finite solution, residual and
    functionals.  ``residual`` is the Frobenius norm of
    projection(x_star^{-1}) - projection(y), in the units of y: the
    gradient norm of the last iterate times scale."""

    x_star: np.ndarray
    coords: np.ndarray
    iterations: int
    residual: float
    log_delta: float
    log_phi: float
    normalized_metric: np.ndarray
    scale: float

    @property
    def metric(self) -> np.ndarray:
        """The metric at x_star: scale^2 times the normalized metric."""
        return (self.scale * self.scale) * self.normalized_metric


def _cholesky_or_none(x: np.ndarray):
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return None


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * sum(map(math.log, chol.diagonal().tolist()))


def metric_matrix(space: InvariantSpace, w: np.ndarray) -> np.ndarray:
    """Matrix of u -> projection of (w u w) in the orthonormal basis.

    Entry (a, b) is tr(B_a w B_b w) = vec(B_a)^T (w (x) w) vec(B_b).  With w
    the inverse of a primal point x this is the Hessian of -log det at x
    restricted to the space.  This Kronecker form is the reference for the
    Gram form ``psi`` computes its metric in; ``psi`` does not call it.
    """
    p = space.p
    w_kron_w = (w[:, None, :, None] * w[None, :, None, :]).reshape(p * p, p * p)
    flat = space.flat
    m = flat @ w_kron_w @ flat.T
    return 0.5 * (m + m.T)


def _solve_each(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of linear systems taken one at a time, NaN
    where a block is singular."""
    out = np.full(rhs.shape, np.nan)
    for i in np.ndindex(blocks.shape[:-2]):
        try:
            out[i] = np.linalg.solve(blocks[i], rhs[i])
        except np.linalg.LinAlgError:
            pass  # a singular block: no positive pivot
    return out


def _completion_start(space: InvariantSpace, yn: np.ndarray) -> np.ndarray | None:
    """Coordinates of the inverse of the max-determinant completion of each
    p x p point of yn, over its leading axes, or None when the space's
    support has no perfect elimination order.

    Along the order, vertex v with later neighbours L gives
    b_v = yn_LL^{-1} yn_Lv, the pivot d_v = yn_vv - yn_vL b_v and
    u_v = e_v - b_v, and the inverse completion is
    K = sum_v u_v u_v^T / d_v (Grone, Johnson, Sa and Wolkowicz 1984).  The
    vertices with equally many later neighbours are solved as one stack,
    over every point of yn at once; the pivots are read off the u_v at the
    end, d_v = sum over l of yn_lv (u_v)_l.  An invariant space is a
    pattern space,
    so K lies in the space and solves projection(K^{-1}) = yn; every pivot
    is positive exactly when every clique block of yn is positive definite,
    which is membership in the open dual cone, so a failed pivot raises
    DualMembershipError, naming the first such point of a stack.
    """
    groups = space.perfect_elimination
    if groups is None:
        return None
    p = space.p
    lead = yn.shape[:-2]
    flat_y = yn.reshape(-1, p * p)  # one point a row
    flat_b = np.zeros(flat_y.shape)
    for group in groups:
        if not group.column.shape[1]:
            continue  # no later neighbour: u_v = e_v
        # b as (..., k, 1) columns, which numpy 1.24 and 2 read alike; they
        # read a (..., k) right-hand side differently
        y_col = flat_y.take(group.column[..., None], axis=1)
        block = flat_y.take(group.block, axis=1)
        try:
            b = np.linalg.solve(block, y_col)
        except np.linalg.LinAlgError:  # some block is singular
            b = _solve_each(block, y_col)
        flat_b[:, group.column] = b[..., 0]
    u = np.eye(p) - flat_b.reshape(-1, p, p)  # column v is u_v
    # d_v = yn_vv - yn_vL b_v = sum over l of yn_lv (u_v)_l
    d = (flat_y.reshape(-1, p, p) * u).sum(axis=1)
    if not (d > 0.0).all():
        raise DualMembershipError(in_stack(
            "a clique block is not positive definite; point is not in the open "
            "dual cone", int((~(d > 0.0)).any(axis=1).argmax()), len(d)))
    k = (u / d[:, None, :]) @ u.transpose(0, 2, 1)
    # one row vector a point, so that each point's product is the same
    # whatever the stack around it
    return (k.reshape(-1, 1, p * p) @ space.flat.T).reshape(*lead, -1)


def psi_stack(space: InvariantSpace, ys) -> list[PsiResult]:
    """Solve projection(x^{-1}) = y at each point y of the (m, p, p) stack
    ys, one PsiResult per point, in one Newton loop over the stack.

    Each point is solved on its Frobenius-normalized copy (the map is
    homogeneous of degree -1), with Newton steps on tr(xy) - log det x and
    a backtracking line search that enforces positive definiteness plus
    Armijo decrease.  A collapsed line search or stalled iteration
    certifies that the point is outside the open dual cone.

    One ``span_coords`` call checks every point's finiteness and
    membership in the span before any point's trace is tested.  On an
    invariant space the iteration starts at the inverse max-determinant
    completion of each normalized point (``_completion_start``, one stacked
    solve per elimination group), which solves the equation when the
    support is chordal, so one iteration checks the gradients against
    GRAD_TOL and stops; a failed pivot of that completion raises
    DualMembershipError before any Newton step.  Any other span, a support
    with no perfect elimination order (a 4-cycle, say), or a point whose
    start has no Cholesky factor starts at a multiple of the identity.

    The iterates and the normalized points are carried as coordinates, so
    tr(xy) is their dot product and the gradient's Frobenius norm is its
    coordinate norm.  Each iteration inverts the Cholesky factors L of the
    iterates of the points still above GRAD_TOL, as one stack, and
    transforms the whole basis with each, C_a = L^{-1} B_a L^{-T}.  With
    w = x^{-1} = L^{-T} L^{-1}, coords(w)_a = tr(C_a) gives the gradient,
    and tr(B_a w B_b w) = <C_a, C_b> gives the metric as the Gram matrix of
    the flattened C_a.  The metrics' Cholesky factors must exist (else the
    iteration has diverged); the Newton steps are one stacked solve against
    the metrics.  The line search runs point by point, and the accepted
    trial point's factor and objective value carry over to the next
    iteration.  A point leaves the loop when its gradient passes the test,
    and the functionals in its result are read off its last factor and
    metric.  Its residual, the norm of projection(x_star^{-1}) minus the
    projection of y, is the gradient norm times scale, so none of them
    overflows; the result keeps the normalized metric, and rescaling x by
    1/scale multiplies it by scale^2 when ``PsiResult.metric`` is read.

    Every error is about one point, the first one that raises it; its
    message starts "point j of m: ", j the point's index in ys, when the
    stack holds more than one point.  A point outside the open dual cone
    raises DualMembershipError; one off the span or with a non-finite entry
    raises DomainError (from ``span_coords``); no convergence within
    MAX_ITER iterations raises ConvergenceError, with that point's
    iterations and residual.  A stack that is not (m, p, p) with m >= 1
    raises ShapeError.  The trace sink, when set, receives one record per
    point still iterating per iteration: ``iteration``, ``gradient_norm``,
    ``point`` (its index in ys) and ``halvings``, the number of times the
    line search halved the step that produced the iterate (0 at the start).
    """
    ys = np.asarray(ys, dtype=float)
    p, dim = space.p, space.dim
    if ys.ndim != 3 or not len(ys):
        raise ShapeError(f"dual points must be a nonempty (m, {p}, {p}) stack, "
                         f"got shape {ys.shape}")
    m = len(ys)
    coords, scales = span_coords(space.point_map, ys, "dual argument")
    yn, yc = np.empty(ys.shape), np.empty((m, dim))
    for j, (y, c, scale) in enumerate(zip(ys, coords.T, scales)):
        if y.trace() <= 0.0:
            raise DualMembershipError(in_stack("trace must be positive on the dual cone", j, m))
        np.divide(y, scale, out=yn[j])
        np.divide(c, scale, out=yc[j])
    basis, flat = space.basis, space.flat
    xc = _completion_start(space, yn) if isinstance(space, InvariantSpace) else None
    x = None if xc is None else (xc[:, None] @ flat).reshape(m, p, p)
    chol = None if x is None else _cholesky_or_none(x)
    if chol is None:
        identity = (p / np.trace(yn, axis1=1, axis2=2))[:, None] * space.coords(np.eye(p))
        if x is not None:  # keep the completion wherever its factor exists
            kept = [j for j in range(m) if _cholesky_or_none(x[j]) is not None]
            identity[kept] = xc[kept]
        xc = identity
        x = (xc[:, None] @ flat).reshape(m, p, p)
        chol = np.linalg.cholesky(x)  # positive definite
    points = list(range(m))  # the indices in ys of the points still iterating
    halvings = [0] * m
    f = None
    results = [None] * m
    for iteration in range(1, MAX_ITER + 1):
        chol_inv = np.linalg.inv(chol)
        congruent = (chol_inv[:, None] @ basis @ chol_inv.transpose(0, 2, 1)[:, None]).reshape(
            len(points), dim, p * p)
        coords_w = congruent[..., :: p + 1].sum(axis=2)  # traces of the C_a
        grad = yc - coords_w
        grad_norm = [math.hypot(*g) for g in grad.tolist()]
        if _trace_sink is not None:
            for j, g, h in zip(points, grad_norm, halvings):
                _trace_sink({"iteration": iteration, "gradient_norm": g,
                             "halvings": h, "point": j})
        metric = congruent @ congruent.transpose(0, 2, 1)
        m_chol = _cholesky_or_none(metric)
        if m_chol is None:
            # the metric only degenerates when the iterate runs to the cone
            # boundary or to infinity, i.e. the objective has no minimizer
            i = next(i for i, mi in enumerate(metric) if _cholesky_or_none(mi) is None)
            raise DualMembershipError(in_stack(
                "iteration diverged; point is not in the open dual cone", points[i], m))
        going = [g > GRAD_TOL for g in grad_norm]
        for i, j in enumerate(points):
            if not going[i]:
                scale = scales[j]
                results[j] = PsiResult(
                    x_star=x[i] / scale,
                    coords=xc[i] / scale,
                    iterations=iteration,
                    residual=grad_norm[i] * scale,
                    log_delta=p * math.log(scale) - _logdet_from_chol(chol[i]),
                    log_phi=-0.5 * _logdet_from_chol(m_chol[i]) - dim * math.log(scale),
                    normalized_metric=metric[i],
                    scale=scale,
                )
        if not any(going):
            return results
        if not all(going):
            points = [j for j, g in zip(points, going) if g]
            halvings = [h for h, g in zip(halvings, going) if g]
            grad_norm = [n for n, g in zip(grad_norm, going) if g]
            x, xc, chol, yc, grad, metric = (a[going] for a in (x, xc, chol, yc, grad, metric))
            f = None if f is None else f[going]
        step = -np.linalg.solve(metric, grad[..., None])[..., 0]
        slope = (grad * step).sum(axis=1).tolist()
        if f is None:  # the starts' objective values, first read here
            f = (xc * yc).sum(axis=1) - 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        for i in range(len(points)):
            # near the optimum the predicted decrease drops below the
            # resolution of f itself; the noise floor keeps the line
            # search from stalling
            f_i = float(f[i])
            noise = 16.0 * np.finfo(float).eps * max(1.0, abs(f_i))
            t, halvings[i] = 1.0, 0
            while True:
                cand = xc[i] + t * step[i]
                cand_x = (cand @ flat).reshape(p, p)
                cand_chol = _cholesky_or_none(cand_x)
                if cand_chol is not None:
                    f_cand = float(cand @ yc[i]) - _logdet_from_chol(cand_chol)
                    if f_cand <= f_i + ARMIJO_C * t * slope[i] + noise:
                        break
                t *= 0.5
                halvings[i] += 1
                if t < 1e-14:
                    raise DualMembershipError(in_stack(
                        "line search collapsed; point is not in the open dual cone",
                        points[i], m))
            x[i], xc[i], chol[i], f[i] = cand_x, cand, cand_chol, f_cand
    raise ConvergenceError(
        in_stack(f"no convergence after {MAX_ITER} iterations "
                f"(gradient norm {grad_norm[0]:.3e})", points[0], m),
        iterations=MAX_ITER,
        residual=grad_norm[0] * scales[points[0]],
    )


def psi(space: InvariantSpace, y: np.ndarray) -> PsiResult:
    """Solve projection(x^{-1}) = y for positive definite x in the space:
    ``psi_stack`` on the stack of the one point y.

    The solve runs on y / scale, scale the Frobenius norm of y; on an
    invariant space it starts at the inverse max-determinant completion of
    that point, which solves the equation when the support is chordal, so
    one iteration certifies its gradient, and a failed pivot raises
    DualMembershipError before any Newton step.  Errors are as
    ``psi_stack`` gives them, without a point index.
    """
    return psi_stack(space, np.asarray(y, dtype=float)[None])[0]


def log_delta(space: InvariantSpace, y: np.ndarray) -> float:
    """log of the reciprocal determinant of the primal solution at y."""
    return psi(space, y).log_delta


def hessian_matrix(space: InvariantSpace, y: np.ndarray) -> np.ndarray:
    """Hessian of -log(delta) at y in the orthonormal basis (symmetric PD).

    Computed as the inverse of the metric matrix at the primal solution,
    which is the derivative identity obtained by differentiating
    projection(x^{-1}) = y along the map, at the normalized point, then
    divided by scale^2, so that it underflows where the metric overflows.
    """
    res = psi(space, y)
    s = np.linalg.inv(res.normalized_metric) / res.scale / res.scale
    return 0.5 * (s + s.T)


def log_phi(space: InvariantSpace, y: np.ndarray) -> float:
    """log of the square root determinant of the Hessian of -log(delta)."""
    return psi(space, y).log_phi


def in_primal_cone(space: InvariantSpace, x: np.ndarray) -> bool:
    """Membership in the open primal cone, via symmetric factorization."""
    x = np.asarray(x, dtype=float)
    span_coords(space.point_map, x[None], "primal candidate")
    return _cholesky_or_none(x) is not None


def in_dual_cone(space: InvariantSpace, y: np.ndarray) -> bool:
    """Membership in the open dual cone, certified by a converged interior
    solve; a point off the space or with a non-finite entry is not a
    candidate and raises DomainError."""
    try:
        psi(space, y)
    except (DualMembershipError, ConvergenceError):
        return False
    return True
