"""Independent verification engine: Monte Carlo cone integrals.

The importance sampler estimates integrals of exp(-tr(xy)) det(x)^alpha over
the primal cone of an invariant space.  For every alpha >= 0 the proposal
is one multivariate Student-t in basis coordinates whose centre and
covariance are the first two moments of the normalized integrand, read off
the Newton solution at y: the mean alpha psi(y) - grad log phi(y) and the
covariance alpha H(y) + hess log phi(y), with H the Hessian of -log delta.
Matching the moments, not the mode, keeps the proposal on the bulk of the
integrand when alpha is small, where the density piles up against the
cone's boundary and has no interior mode at alpha = 0.  The polynomial
tails dominate the exponentially decaying integrand, which keeps the
importance weights bounded (a Gaussian proposal is biased low in finite
samples here because rare huge weights in its thin tails go unsampled).
Proposals landing outside the cone get weight zero, which keeps the
estimator unbiased.

A draw is x = mu + s R z in basis coordinates, with z standard normal,
s = sqrt(df / u) and u chi-squared with df degrees of freedom, so every
linear function of x is affine in z with the same s.  Once per integral
mu and R are pushed through the map E from coordinates to the planned
matrix entries and through c(y), the coordinates of y; a block of draws
then needs only the entries E mu + s (E R) z and the linear term
tr(xy) = mu . c(y) + s (z . R^T c(y)), and never forms x.

Cone membership and the log-determinant come from one symmetric elimination
(LDL^T without pivoting) run across the sample axis: by Sylvester's
criterion a symmetric matrix is positive definite exactly when every pivot
is positive, and then log det is the sum of the pivots' logs.  The
elimination runs on every draw unmasked and reads the pivots once at the
end, so a draw off the cone may fill its own column with infinities and
NaNs, which never reach another column.  The elimination is planned once
per integral from the support pattern of the space's basis, the cells
where some basis matrix is nonzero, so it works on matrix entries alone
and calls neither the Newton solve nor any realization.  The vertices are
eliminated by ascending closed-neighbourhood size in that pattern, ties by
index.  On a homogeneous graph the closed neighbourhoods of adjacent
vertices are nested, so this is a perfect elimination order: no
structurally zero entry fills in.  A symbolic pass lists the entries that
can be nonzero (with their fill, on a pattern that is not chordal) and,
for each pivot, the updates whose multiplier can be nonzero; every skipped
update would subtract an exact zero.  Each planned entry is a contiguous
row over the samples and every update is one array operation on such a
row.

Sampling is chunked, each chunk's seed spawned from the master seed as the
chunk starts, and chunk sums merged in a fixed order, so estimates are
reproducible for a given (seed, samples) pair.  Everything after the draws
runs on column blocks of a chunk small enough for the elimination's rows to
stay in cache, built in one buffer reused by every block; the weights of
the whole chunk are summed at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import cone
from .errors import DomainError, DualMembershipError, ScopeError
from .invariant import InvariantSpace

MC_DIM_LIMIT = 7
DEFAULT_SAMPLES = 2_000_000
DEFAULT_SEED = 0xC0FFEE
CHUNK = 250_000
PROPOSAL_DF = 6.0
ESS_WARN_FRACTION = 0.01
# draws per column block of a chunk: 8 k doubles (64 KiB) per planned entry
_BLOCK = 8_192


@dataclass
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int
    effective_samples: float
    warning: str | None = None


def _estimate_from_sums(sum_w: float, sum_w2: float, n: int, seed: int) -> McEstimate:
    mean = sum_w / n
    var = max(sum_w2 / n - mean * mean, 0.0)
    ess = (sum_w * sum_w / sum_w2) if sum_w2 > 0 else 0.0
    warning = None
    if ess < ESS_WARN_FRACTION * n:
        warning = (
            f"effective sample size {ess:.1f} is below "
            f"{ESS_WARN_FRACTION:.0%} of {n} draws; the variance estimate "
            "may be unreliable"
        )
    return McEstimate(
        value=float(mean),
        std_error=float(np.sqrt(var / n)),
        samples=n,
        seed=seed,
        effective_samples=float(ess),
        warning=warning,
    )


@dataclass(frozen=True)
class _EliminationPlan:
    """Symbolic LDL^T of a symmetric support pattern, in elimination order.

    ``cols`` holds the flat cell i * p + j of each entry the elimination
    reads or writes, one row each: the pattern's upper triangle plus its
    fill, sorted by the elimination positions of (i, j).  ``steps`` holds
    one (diagonal row, eliminations) pair per pivot, where each elimination
    is (row of the multiplier's entry, its (target row, source row)
    updates): target -= multiplier * source.
    """

    cols: np.ndarray
    steps: tuple


def _elimination_plan(pattern: np.ndarray) -> _EliminationPlan:
    """The entries and updates of a symmetric elimination on a p x p pattern.

    The vertices are taken by ascending closed-neighbourhood size, ties by
    index; the diagonal is always planned.  Pivot k eliminates into each
    pair (i, j) of its later neighbours, which fills (i, j) in if the
    pattern lacks it, so the plan is exact for every pattern.
    """
    pattern = np.asarray(pattern, dtype=bool) | np.eye(len(pattern), dtype=bool)
    p = len(pattern)
    order = np.argsort(pattern.sum(axis=1), kind="stable")
    nz = pattern[np.ix_(order, order)]
    later = []
    for k in range(p):
        nbrs = [i for i in range(k + 1, p) if nz[k, i]]
        for i in nbrs:
            nz[i, nbrs] = True
        later.append(nbrs)
    entries = [(a, b) for a in range(p) for b in range(a, p) if nz[a, b]]
    row = {e: r for r, e in enumerate(entries)}
    steps = tuple(
        (row[k, k], tuple(
            (row[k, i], tuple((row[i, j], row[k, j]) for j in nbrs if j >= i))
            for i in nbrs
        ))
        for k, nbrs in enumerate(later)
    )
    cols = np.array([order[a] * p + order[b] for a, b in entries], dtype=np.intp)
    return _EliminationPlan(cols, steps)


def _pivot_logdet(rows: np.ndarray, plan: _EliminationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Positive-definiteness and log det of a batch of symmetric matrices.

    ``rows`` holds the planned entries, one row per entry of ``plan.cols``
    and one column per matrix; it is overwritten.  Returns (pd, logdet) with
    logdet = 0 where pd is False.  The elimination runs on every column with
    no masking, and pd and log det are read from the diagonal rows once at
    the end: pivot k's row takes no update after step k, so it ends holding
    that pivot, and a matrix is positive definite exactly when all its
    pivots are positive.  A column past a pivot that is not positive may
    divide by zero, overflow or turn to NaN; only its own column changes,
    and the floating-point errors are ignored inside this call alone.
    """
    m = rows.shape[1]
    f = np.empty(m)
    tmp = np.empty(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for diag, eliminations in plan.steps:
            d = rows[diag]
            for ki, updates in eliminations:
                np.divide(rows[ki], d, out=f)
                for ij, kj in updates:
                    np.multiply(f, rows[kj], out=tmp)
                    rows[ij] -= tmp
        pd = np.ones(m, dtype=bool)
        logdet = np.zeros(m)
        for diag, _ in plan.steps:
            d = rows[diag]
            pd &= d > 0.0
            logdet += np.log(d)
    return pd, np.where(pd, logdet, 0.0)


@dataclass(frozen=True)
class _AffineIntegrand:
    """The log integrand alpha log det x - tr(xy) along the draws
    x = mu + s R z, in basis coordinates.

    ``entries_mu`` (a column) and ``entries_root`` are mu and R through the
    planned-entry map E = space.flat[:, plan.cols].T, and ``trace_mu`` and
    ``trace_root`` are mu and R through c(y) = ``y_coords``: a draw's
    planned entries are entries_mu + s (entries_root z) and its tr(xy) is
    trace_mu + s (z . trace_root).  mu, root and y_coords are kept for a
    route that forms x itself.
    """

    plan: _EliminationPlan
    alpha: float
    mu: np.ndarray
    root: np.ndarray
    y_coords: np.ndarray
    entries_mu: np.ndarray
    entries_root: np.ndarray
    trace_mu: float
    trace_root: np.ndarray


def _block_log_f(integrand: _AffineIntegrand, z: np.ndarray, s: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Log integrand at the draws x = mu + s R z of one block, one per row
    of z; -inf outside the open primal cone.

    ``rows`` (one row per planned entry, one column per draw) receives the
    draws' planned entries and is overwritten by the elimination.
    """
    np.matmul(integrand.entries_root, z.T, out=rows)
    rows *= s
    rows += integrand.entries_mu
    pd, logdet = _pivot_logdet(rows, integrand.plan)
    trace = integrand.trace_mu + s * (z @ integrand.trace_root)
    return np.where(pd, integrand.alpha * logdet - trace, -np.inf)


def _student_t_log_norm(df: float, dim: int, log_det_root: float) -> float:
    return float(
        math.lgamma((df + dim) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * dim * np.log(df * np.pi)
        - log_det_root
    )


def _proposal_moments(
    space: InvariantSpace, alpha: float, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and a square root of the covariance, in basis coordinates, of the
    density proportional to exp(-tr(xy)) det(x)^alpha on the primal cone.

    With log I = const - alpha log delta(y) + log phi(y), the mean is
    -grad log I = alpha psi(y) - grad log phi(y) and the covariance is
    hess log I = alpha H(y) + hess log phi(y), H the inverse of the metric.
    The derivatives of log phi = -1/2 log det M(x) are taken analytically at
    the Newton solution x = psi(y) = L L^T.  They are formed in the basis
    D_k that orthonormalizes the congruent images C_a = L^{-1} B_a L^{-T}
    (C = R^T D by a QR factorization, so M = R^T R), where the metric is the
    identity and every term is of order one whatever the conditioning of y:
    with T_ijk = tr(D_i D_j D_k) and Q_ijkl = tr(D_i D_j D_k D_l), log phi
    has gradient g_k = T_iik in x, x-Hessian 2 T_cab T_dab - (Q_adac +
    Q_aadc + Q_aacd), and the inverse map x(y) has Jacobian -H and second
    derivative 2 H T[H., H.].  Then mean = alpha psi(y) + R^{-1} g and
    covariance = R^{-1} K R^{-T}, with K = alpha I + (x-Hessian) + 2 T g.
    Returns (mean, R^{-1} chol(K)); raises DualMembershipError when K is not
    numerically positive definite.
    """
    res = cone.psi(space, y)
    chol_inv = np.linalg.inv(np.linalg.cholesky(res.x_star))
    congruent = chol_inv @ space.basis @ chol_inv.T
    q, r = np.linalg.qr(congruent.reshape(space.dim, -1).T)
    d = q.T.reshape(congruent.shape)
    pair = d[:, None] @ d[None, :]  # D_i D_j
    t3 = np.einsum("abij,cji->abc", pair, d)
    t4 = np.einsum("abij,cdji->abcd", pair, pair)
    g = np.einsum("aac->c", t3)
    k = (
        alpha * np.eye(space.dim)
        + 2.0 * np.einsum("abc,abd->cd", t3, t3)
        - np.einsum("adac->cd", t4)
        - np.einsum("aadc->cd", t4)
        - np.einsum("aacd->cd", t4)
        + 2.0 * np.einsum("a,abc->bc", g, t3)
    )
    try:
        chol_k = np.linalg.cholesky(0.5 * (k + k.T))
    except np.linalg.LinAlgError:
        chol_k = None
    if chol_k is None or not np.isfinite(chol_k).all():
        raise DualMembershipError(
            "the integrand's moment covariance is not positive definite; "
            "the point is too close to the boundary of the dual cone"
        )
    mean = alpha * res.coords + np.linalg.solve(r, g)
    return mean, np.linalg.solve(r, chol_k)


def mc_cone_integral(
    space: InvariantSpace,
    alpha: float,
    y: np.ndarray,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> McEstimate:
    """Importance-sampling estimate of the cone integral at a dual point.

    The proposal is one multivariate Student-t with PROPOSAL_DF degrees of
    freedom whose centre and covariance are the integrand's own mean and
    covariance (``_proposal_moments``); its scale matrix is that covariance
    times (df - 2) / df, drawn through a square root that need not be
    triangular.  Raises what ``cone.psi`` raises at y, and
    DualMembershipError when the covariance is not numerically positive
    definite.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {samples!r}") from None
    if samples < 2:
        # a standard error needs at least two draws
        raise DomainError(f"sample count must be >= 2, got {samples}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n_dim = space.dim
    if n_dim > MC_DIM_LIMIT:
        raise ScopeError(
            f"Monte Carlo integration is limited to {MC_DIM_LIMIT} dimensions "
            f"(got {n_dim}); variance is not controlled beyond that"
        )
    if not (math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"integrand exponent must be finite and >= 0, got {alpha}")
    y = np.asarray(y, dtype=float)
    y_coords = space.coords(y)
    df = PROPOSAL_DF
    mu, cov_root = _proposal_moments(space, alpha, y)
    root = cov_root * math.sqrt((df - 2.0) / df)  # a square root of the t scale
    log_norm = _student_t_log_norm(df, n_dim, np.linalg.slogdet(root)[1])
    plan = _elimination_plan(space.support)
    entries = space.flat[:, plan.cols].T
    integrand = _AffineIntegrand(
        plan, alpha, mu, root, y_coords,
        entries_mu=(entries @ mu)[:, None],
        entries_root=entries @ root,
        trace_mu=float(mu @ y_coords),
        trace_root=root.T @ y_coords,
    )
    rows = np.empty((len(plan.cols), min(_BLOCK, samples)))

    master = np.random.SeedSequence(seed)
    sum_w = 0.0
    sum_w2 = 0.0
    for done in range(0, samples, CHUNK):
        # spawning one child per chunk yields the children spawn(n_chunks) would
        (child,) = master.spawn(1)
        m = min(CHUNK, samples - done)
        rng = np.random.Generator(np.random.PCG64(child))
        z = rng.standard_normal((m, n_dim))
        u = 2.0 * rng.standard_gamma(df / 2.0, m)
        w = np.empty(m)
        for lo in range(0, m, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            zb, ub = z[block], u[block]
            mahal = np.einsum("ij,ij->i", zb, zb) * df / ub
            log_q = log_norm - 0.5 * (df + n_dim) * np.log1p(mahal / df)
            log_f = _block_log_f(integrand, zb, np.sqrt(df / ub), rows[:, :len(zb)])
            w[block] = np.exp(log_f - log_q)
        sum_w += float(np.sum(w))
        sum_w2 += float(np.sum(w * w))
    return _estimate_from_sums(sum_w, sum_w2, samples, seed)
