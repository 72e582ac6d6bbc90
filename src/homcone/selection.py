"""Model scoring: normalizing constants, posteriors, and fitted concentrations.

The normalizing constant of the conjugate prior with shape parameter
``delta`` and positive definite scale matrix D factors, on each model cone,
into a gamma-type integral at exponent (delta-2)/2 times the value of the
square-root-Hessian functional at the projected point D/2 times a power of
the determinant functional there.  Posterior probabilities over a family of
models on the same graph are ratios of such constants with the data scatter
folded into the scale and the effective sample size added to the shape.
A model is an invariant space with its labels; the block realization that
scoring needs is derived from the space on first use (``realize``) and kept
with the model, so models that are only built and deduplicated cost no
realization.

Everything is carried in log space and normalized by log-sum-exp; at the
sample sizes of interest the plain values overflow doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import NamedTuple

import numpy as np

from .butterfly import butterfly_graph, butterfly_subgroups
from .errors import DomainError, DualMembershipError, IntegrabilityError, ShapeError, UsageError
from .graphs import Graph
from .invariant import InvariantSpace, build_invariant_space, finite_norm, same_space
from .realization import Realization, log_delta_phi_at_scales, realize

SYMMETRY_RTOL = 1e-9
PSD_RTOL = 1e-9


def _check_symmetric(m: np.ndarray, what: str) -> None:
    """DomainError, from ``finite_norm``, unless the square matrix m is
    finite, ShapeError unless it is symmetric to SYMMETRY_RTOL relative to
    its largest entry."""
    finite_norm(m, what)
    largest = np.max(np.abs(m), initial=0.0)
    if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_RTOL * largest:
        raise ShapeError(f"{what} must be symmetric")


@dataclass(frozen=True)
class Hyperparams:
    """Prior shape (> 2) and symmetric positive definite prior scale matrix."""

    delta: float
    scale: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise DomainError(f"prior shape must be finite, got {self.delta}")
        if not self.delta > 2.0:
            raise IntegrabilityError(
                f"prior shape must exceed 2 for the normalizing integral, got {self.delta}"
            )
        scale = np.asarray(self.scale, dtype=float)
        object.__setattr__(self, "scale", scale)
        if scale.ndim != 2 or scale.shape[0] != scale.shape[1]:
            raise ShapeError(f"scale matrix must be square, got {scale.shape}")
        _check_symmetric(scale, "scale matrix")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            raise DomainError("scale matrix must be positive definite") from None


@dataclass(frozen=True)
class DataSummary:
    """Finite scatter matrix plus raw and degrees-of-freedom-corrected sample
    sizes, 1 <= n_effective <= n_raw; anything else raises DomainError."""

    scatter: np.ndarray
    n_effective: int
    n_raw: int

    def __post_init__(self):
        finite_norm(self.scatter, "scatter")
        if not 1 <= self.n_effective <= self.n_raw:
            raise DomainError(f"need 1 <= n_effective <= n_raw, "
                              f"got {self.n_effective} and {self.n_raw}")


@dataclass(frozen=True, eq=False)
class Model:
    """A candidate symmetry model: an invariant space and its labels.

    ``_origin`` is the model a merged model was made from
    (``dedupe_models``); the merged model shares its realization.
    """

    label: str
    space: InvariantSpace
    merged_labels: tuple[str, ...] = ()
    _origin: Model | None = field(default=None, repr=False)

    def all_labels(self) -> tuple[str, ...]:
        return self.merged_labels if self.merged_labels else (self.label,)

    @cached_property
    def realization(self) -> Realization:
        """The space's block realization, derived on first use and shared
        with the model this one was merged from."""
        if self._origin is not None:
            return self._origin.realization
        return realize(self.space)


@dataclass
class ModelRecord:
    model_id: str
    merged_labels: tuple[str, ...]
    dim: int
    log_I_prior: float
    log_I_posterior: float
    log_score: float
    probability: float


@dataclass
class SelectionReport:
    records: list[ModelRecord]
    winner_id: str

    def to_json_dict(self) -> dict:
        return {"winner": self.winner_id, "models": [asdict(r) for r in self.records]}

    def render_table(self) -> str:
        merged = ["+".join(r.merged_labels) for r in self.records]
        width = max([16] + [len(m) for m in merged])
        lines = [
            f"{'model':<8}{'merged':<{width}}{'dim':>4}  "
            f"{'log_I_prior':>14}{'log_I_post':>16}{'log_score':>14}{'prob':>7}"
        ]
        for r, labels in zip(self.records, merged):
            lines.append(
                f"{r.model_id:<8}{labels:<{width}}{r.dim:>4}  "
                f"{r.log_I_prior:>14.4f}{r.log_I_posterior:>16.4f}"
                f"{r.log_score:>14.4f}{r.probability:>7.2f}"
            )
        lines.append(f"winner: {self.winner_id}")
        return "\n".join(lines)


def summarize_data(rows, center: bool = True) -> DataSummary:
    """Scatter matrix of observation rows, optionally column-centered.

    Centering costs one degree of freedom: the effective sample size drops
    by one while the raw count is kept for reporting.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"observations must be a 2-d array, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ShapeError("need at least 2 observations")
    if center:
        x = x - x.mean(axis=0, keepdims=True)
        n_eff = n - 1
    else:
        n_eff = n
    return DataSummary(scatter=x.T @ x, n_effective=n_eff, n_raw=n)


def scatter_summary(scatter, n_raw: int, centered: bool) -> DataSummary:
    """Summary of a caller-supplied scatter: it must also be symmetric and
    have no eigenvalue below -PSD_RTOL times the largest magnitude."""
    scatter = np.asarray(scatter, dtype=float)
    if scatter.ndim != 2 or scatter.shape[0] != scatter.shape[1]:
        raise ShapeError(f"scatter must be square, got {scatter.shape}")
    _check_symmetric(scatter, "scatter")
    eig = np.linalg.eigvalsh(scatter)
    if eig.size and eig[0] < -PSD_RTOL * np.max(np.abs(eig)):
        raise DomainError(f"scatter has eigenvalue {eig[0]:.3g}; it must be positive "
                          "definite, or semidefinite if rows are fewer than vertices")
    n_eff = n_raw - 1 if centered else n_raw
    return DataSummary(scatter=scatter, n_effective=n_eff, n_raw=n_raw)


def _scatter_from_json(data) -> DataSummary:
    """Summary of a parsed JSON scatter object: a 'scatter' matrix, an
    integer 'n_raw' and a boolean 'centered'; anything else is a ValueError."""
    try:
        scatter, n_raw, centered = data["scatter"], data["n_raw"], data["centered"]
        if isinstance(n_raw, bool) or not isinstance(n_raw, int):
            raise ValueError(f"scatter object's 'n_raw' must be an integer, got {n_raw!r}")
        if not isinstance(centered, bool):
            raise ValueError(f"scatter object's 'centered' must be a boolean, got {centered!r}")
        return scatter_summary(scatter, n_raw, centered)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scatter object needs 'scatter', 'n_raw', 'centered': {exc}") from exc


def load_scatter_json(path) -> DataSummary:
    with open(path, "r", encoding="utf-8") as fh:
        return _scatter_from_json(json.load(fh))


def exam_marks_summary() -> DataSummary:
    """The built-in examination-marks scatter (88 students, 5 subjects)."""
    text = resources.files("homcone").joinpath("data/exam_marks.json").read_text()
    return _scatter_from_json(json.loads(text))


def build_models(graph: Graph, groups) -> list[Model]:
    """One model per distinct invariant space of the named subgroups.

    ``groups`` maps names to subgroups of the graph's automorphisms, in
    order.  Subgroups whose spaces have equal orbit partitions share a
    model, labelled by the first of their names and merging all of them.
    """
    classes: dict[tuple, tuple[InvariantSpace, list[str]]] = {}
    for name, group in groups.items():
        space = build_invariant_space(graph, group)
        classes.setdefault(space.orbits, (space, []))[1].append(name)
    return [Model(names[0], space, tuple(names)) for space, names in classes.values()]


@lru_cache(maxsize=1)
def build_butterfly_models() -> tuple[Model, ...]:
    """The seven distinct models of the built-in benchmark, G1..G7, built
    once per process; each derives its realization on first use."""
    return tuple(build_models(butterfly_graph(), butterfly_subgroups()))


class LogITerms(NamedTuple):
    """The three factors of a log normalizing constant at gamma exponent alpha."""

    alpha: float
    log_gamma: float
    log_delta: float
    log_phi: float

    @property
    def log_I(self) -> float:
        return self.log_gamma + self.log_phi - self.alpha * self.log_delta


def score_terms(models, hypers) -> list[list[LogITerms]]:
    """The factors of each model's log normalizing constant under each
    hyperparameter set, one row per model.

    This is the one scoring route.  All three factors come from the block
    realization: the gamma factor at exponent (delta - 2) / 2 from its block
    sizes and subspace dimensions, and the determinant functionals at the
    projected point scale / 2 from the triangular factor and the multidegree.
    One product with the models' stacked scale map takes every scale matrix
    straight to the realized coordinates of every model's point
    (``realization.log_delta_phi_at_scales``); each realization checked its
    block form where it was built, so no point is checked against it again.
    The ``hypers`` are taken as already validated; a scale of the wrong size
    raises ShapeError naming its shape, and no ``hypers`` give one empty row
    per model.
    """
    alphas = [(h.delta - 2.0) / 2.0 for h in hypers]
    ldlp = log_delta_phi_at_scales([m.realization for m in models], [h.scale for h in hypers])
    return [
        [LogITerms(a, m.realization.log_gamma(a), ld, lp) for a, (ld, lp) in zip(alphas, row)]
        for m, row in zip(models, ldlp)
    ]


def log_I_terms(model: Model, hyper: Hyperparams) -> LogITerms:
    """Factors of the conjugate prior's log normalizing constant on the model
    cone: the scoring route with one model and one scale.

    ``hyper`` is taken as already validated; a scale of the wrong size
    raises ShapeError.
    """
    return score_terms([model], [hyper])[0][0]


def log_I(model: Model, delta: float, scale) -> float:
    """Log normalizing constant of the conjugate prior on the model cone.

    One-shot wrapper that validates (delta, scale) and calls log_I_terms.
    """
    return log_I_terms(model, Hyperparams(delta=delta, scale=scale)).log_I


def dedupe_models(models) -> list[Model]:
    """Merge models whose invariant spaces coincide, combining their labels.

    A merged model takes its realization from the first model of its class,
    so scoring the merged list again realizes no space a second time.
    """
    kept: list[Model] = []
    for m in models:
        for i, existing in enumerate(kept):
            if same_space(existing.space, m.space):
                labels = existing.all_labels() + tuple(
                    l for l in m.all_labels() if l not in existing.all_labels()
                )
                kept[i] = Model(existing.label, existing.space, labels,
                                existing._origin or existing)
                break
        else:
            kept.append(m)
    return kept


def posterior(models, data: DataSummary, hyper: Hyperparams) -> SelectionReport:
    """Posterior probabilities over the distinct model classes, uniform prior.

    Each class is scored by the log ratio of posterior to prior normalizing
    constants, with the scatter added to the scale matrix and the effective
    sample size added to the shape; probabilities come out of log-sum-exp.
    The posterior Hyperparams is built once, so a scatter that makes the
    posterior scale indefinite raises DomainError before any scoring; every
    model is then scored at both scales from one stacked product.
    """
    models = dedupe_models(models)  # UsageError unless all share one graph
    if not models:
        raise UsageError("no models supplied")
    p = models[0].space.p
    if data.scatter.shape != (p, p):
        raise ShapeError(f"scatter is {data.scatter.shape}, graph has {p} vertices")
    if hyper.scale.shape != (p, p):
        raise ShapeError(f"prior scale is {hyper.scale.shape}, graph has {p} vertices")
    post = Hyperparams(
        delta=hyper.delta + data.n_effective, scale=hyper.scale + data.scatter
    )
    terms = score_terms(models, [hyper, post])
    priors = [prior.log_I for prior, _ in terms]
    posts = [post_terms.log_I for _, post_terms in terms]
    scores = [b - a for a, b in zip(priors, posts)]
    scores_arr = np.array(scores)
    shifted = scores_arr - scores_arr.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    records = [
        ModelRecord(
            model_id=m.label,
            merged_labels=m.all_labels(),
            dim=m.space.dim,
            log_I_prior=priors[i],
            log_I_posterior=posts[i],
            log_score=scores[i],
            probability=float(probs[i]),
        )
        for i, m in enumerate(models)
    ]
    winner = max(records, key=lambda r: r.probability)
    return SelectionReport(records=records, winner_id=winner.model_id)


def fit_concentration(model: Model, data: DataSummary) -> np.ndarray:
    """Symmetry-projected concentration estimate for the model.

    Inverts the averaged scatter (scatter / n_effective) and orthogonally
    projects the resulting concentration matrix onto the model's invariant
    space: non-edge cells are zeroed and cells in one group orbit are
    averaged.  Zeros at non-edges and the group symmetry therefore hold
    exactly by construction.  This matches the reference concentration
    tables for the examination-marks benchmark; the maximizer of the
    restricted likelihood is available as fit_concentration_mle.
    An averaged scatter with no inverse, its smallest eigenvalue at most
    p eps times its largest, raises DomainError naming its rank.
    """
    averaged = np.asarray(data.scatter, dtype=float) / data.n_effective
    eig = np.linalg.eigvalsh(averaged)
    tol = len(eig) * np.finfo(float).eps * eig[-1]
    if not eig[0] > tol:
        raise DomainError(f"averaged scatter has rank {(eig > tol).sum()} of {len(eig)}: no inverse")
    return model.space.project(np.linalg.inv(averaged))


def fit_concentration_mle(model: Model, data: DataSummary) -> np.ndarray:
    """Maximizer of the symmetry-restricted Gaussian likelihood.

    Solves projection(K^{-1}) = projection(scatter / n_effective) over the
    model cone, so the fitted inverse matches the averaged scatter on every
    free cell of the model.  The solution is read in closed form off the
    triangular factor of the model's realization (``Realization.psi``), at
    the averaged scatter's coordinates in the space, which need no
    membership check.  A projected averaged scatter outside the open dual
    cone of the model raises DualMembershipError: the likelihood then has
    no maximizer.
    """
    coords = model.space.coords(np.asarray(data.scatter, dtype=float) / data.n_effective)
    try:
        return model.realization._psi_at(coords)
    except DualMembershipError as exc:
        raise DualMembershipError(
            f"the projected averaged scatter is not in the open dual cone of model "
            f"{model.label}, so the likelihood has no maximizer ({exc})") from None
