"""Experiment harness: data handling, training drivers, evaluation, reports.

Four training methods share one yardstick. Two-stage methods fit a linear
Gaussian model, project, and fit a feature mixture; unified methods take
the assembled hierarchical model and continue with EM whose maximization
step is the exact closed form. Every reported log-likelihood is the
observable density of the assembled hierarchical model, so trajectories
and cross-validation scores are directly comparable across methods.

All four methods run one restart loop. Each fit computes the data's mean,
centred covariance and mean observable statistic once
(`linear_gaussian.data_moments`) and rejects a zero-variance coordinate
there, before any restart. Restart ``r`` runs a two-stage fit on seed
``cfg.seed + r`` from those shared moments; a unified method continues
its assembled model with ``cfg.hmog_iters`` EM iterations. The restart
with the strictly greatest final train log-likelihood wins, so ties go to
the lowest index. A DomainError in stage 1, stage 2 or unified EM (a
restart that collapses onto a degenerate mixture) skips that restart; any
other error, such as a ValueError, propagates. When every restart fails,
the fit raises ``DomainError("all N restarts failed; last error: ...")``.

Stage 1 runs on those moments alone: one `lgm_moment_pass` per step
scores the current model and yields the next E-step target. Stage 2 keeps
the likelihood model fixed, so each restart computes the feature shifts
and the statistics of the projections once and scores every mixture step
through the posterior kernel; unified EM carries each iteration's fused
posterior pass into the next.

All randomness flows through explicitly seeded generators; identical
inputs produce identical reports and identical serialized artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import __version__
from .families import DomainError, MultivariateNormal, Structure, _cholesky
from .hierarchical import (
    Hmog,
    assemble_hmog,
    hmog_classify_batch,
    hmog_em_iteration,
    hmog_log_densities,
    hmog_mean_log_likelihood_from_terms,
    hmog_sample,
)
from .linear_gaussian import (
    DataMoments,
    LinearGaussianModel,
    data_moments,
    lgm_backward,
    lgm_from_standard,
    lgm_moment_pass,
    lgm_project_batch,
)
from .mixture import (
    MixtureModel,
    mixture_forward,
    mog_em_step_from_statistics,
    mog_from_standard,
    mog_posteriors,
    mog_statistics,
)
from .optim import AdamConfig

__all__ = [
    "Dataset",
    "FitConfig",
    "StageTrace",
    "FitReport",
    "CvCell",
    "CvReport",
    "METHODS",
    "load_csv",
    "default_synthetic_hmog",
    "gen_synthetic",
    "init_lgm",
    "init_mog",
    "fit_two_stage",
    "fit_hmog",
    "fit_model",
    "cross_validate",
    "score_classification",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "export_report",
    "report_to_dict",
    "canonical_json",
]

METHODS = ("two_stage_pca", "two_stage_fa", "hmog_pca", "hmog_fa")

def _structure(method: str) -> Structure:
    """Observable noise structure of a method: shared (PCA) or per-coordinate (FA)."""
    return Structure.ISOTROPIC if method.endswith("pca") else Structure.DIAGONAL


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Numeric observations with optional ground-truth cluster labels."""

    points: NDArray
    labels: NDArray | None = None
    feature_names: tuple[str, ...] | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite entries")
        if self.labels is not None:
            if len(self.labels) != len(self.points):
                raise ValueError("labels length disagrees with points")
            if np.any(self.labels < 1):
                raise ValueError("labels must be positive integers")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, indices: NDArray) -> "Dataset":
        labels = self.labels[indices] if self.labels is not None else None
        return Dataset(self.points[indices], labels, self.feature_names, self.label_names)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Parse a rectangular numeric CSV with an optional header row.

    A header is detected when the first row has any non-numeric cell. With
    ``label_column`` set, that column is extracted and its distinct values
    are mapped onto ``1..L`` in sorted order. Malformed input raises
    ValueError pinpointing the row and column.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    width = len(rows[0])
    has_header = not all(_numeric(cell) for cell in rows[0])
    header = [cell.strip() for cell in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ValueError(f"{path}: no data rows")

    label_index = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        label_index = header.index(label_column)

    points = []
    raw_labels = []
    for r, row in enumerate(data_rows, start=2 if has_header else 1):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        values = []
        for c, cell in enumerate(row):
            if c == label_index:
                raw_labels.append(cell.strip())
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {r}, column {c + 1}: {cell!r}"
                ) from None
        points.append(values)

    matrix = np.asarray(points, dtype=float)
    labels = None
    label_names = None
    if label_index is not None:
        names = sorted(set(raw_labels))
        index = {name: i + 1 for i, name in enumerate(names)}
        labels = np.asarray([index[name] for name in raw_labels], dtype=int)
        label_names = tuple(names)
    feature_names = None
    if header is not None:
        feature_names = tuple(
            name for c, name in enumerate(header) if c != label_index
        )
    return Dataset(matrix, labels, feature_names, label_names)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def default_synthetic_hmog(clusters: int, latent_dim: int, obs_dim: int) -> Hmog:
    """Ground-truth model whose cluster axis is near-orthogonal to the top variance.

    Clusters separate along the first feature axis, loaded onto the first
    observable coordinate, while the last observable coordinate carries
    noise with three times the variance of any loaded coordinate; the top
    eigenvector of the observable covariance is therefore (near-)
    perpendicular to the direction along which cluster membership changes
    (|cos| well under 0.1 in samples). The first loading column leans
    slightly (0.05) into the noise axis: an exactly axis-aligned loading
    leaves the factor-analysis likelihood flat over a ridge of loadings,
    which makes two-stage behaviour depend only on initialization noise;
    the small lean pins the identified loading scale while preserving the
    stated geometry.
    """
    if obs_dim < latent_dim + 1:
        raise ValueError("default ground truth needs obs_dim >= latent_dim + 1")
    offsets = 5.0 * (np.arange(clusters) - (clusters - 1) / 2.0)
    means = np.zeros((clusters, latent_dim))
    means[:, 0] = offsets
    covs = np.broadcast_to(
        0.25 * np.eye(latent_dim), (clusters, latent_dim, latent_dim)
    ).copy()
    mog = mog_from_standard(np.full(clusters, 1.0 / clusters), means, covs)

    loading = np.zeros((obs_dim, latent_dim))
    loading[:latent_dim, :latent_dim] = np.eye(latent_dim)
    loading[-1, 0] = 0.05
    eta_y, _, _ = mixture_forward(mog)
    mu_y, h_yy = mog.lat.split_mean(eta_y)
    feature_cov = h_yy - np.outer(mu_y, mu_y)
    loaded_var = np.diag(loading @ feature_cov @ loading.T)
    # Graded noise keeps residual eigenvalues distinct, so over-sized fits
    # (latent_dim above the true factor count) stay away from the rank
    # boundary of the isotropic-noise family.
    noise = 0.1 * np.arange(1, obs_dim + 1, dtype=float)
    noise[-1] = 3.0 * float(np.max(loaded_var[:-1] + noise[0]))
    lgm = lgm_from_standard(np.zeros(obs_dim), noise, loading, Structure.DIAGONAL)
    return assemble_hmog(lgm, mog)


def gen_synthetic(model: Hmog, count: int, seed: int) -> Dataset:
    """Ancestral sample from a ground-truth model, cluster indices as labels."""
    rng = np.random.default_rng(seed)
    xs, _, zs = hmog_sample(model, count, rng)
    return Dataset(points=xs, labels=zs)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def init_lgm(
    data: NDArray, latent_dim: int, structure: Structure, seed: int
) -> LinearGaussianModel:
    """Empirical-moment initialization with a small random loading.

    Mean and (isotropic or per-coordinate) variance come from the data;
    the loading matrix is uniform in [-0.01, 0.01].
    """
    data = np.asarray(data, dtype=float)
    if len(data) < 2:
        raise ValueError("initialization needs at least two samples")
    return _initial_lgm(
        data.mean(axis=0), data.var(axis=0), latent_dim, structure, seed
    )


def _check_variances(variances: NDArray) -> None:
    if np.any(variances <= 0.0):
        bad = int(np.flatnonzero(variances <= 0.0)[0])
        raise DomainError(f"zero-variance coordinate {bad}")


def _initial_lgm(
    mean: NDArray, variances: NDArray, latent_dim: int, structure: Structure, seed: int
) -> LinearGaussianModel:
    """`init_lgm` from the data's mean and per-coordinate variances."""
    _check_variances(variances)
    if structure is Structure.ISOTROPIC:
        noise = float(variances.mean())
    elif structure is Structure.DIAGONAL:
        noise = variances
    else:
        noise = np.diag(variances)
    rng = np.random.default_rng(seed)
    loading = rng.uniform(-0.01, 0.01, size=(len(mean), latent_dim))
    return lgm_from_standard(mean, noise, loading, structure)


def init_mog(projected: NDArray, clusters: int, seed: int) -> MixtureModel:
    """Mixture initialization around a single fitted normal.

    Fits one normal to the projections, draws each component mean from it,
    gives every component its covariance, and uses uniform weights.
    """
    projected = np.asarray(projected, dtype=float)
    if len(projected) < 2:
        raise ValueError("initialization needs at least two samples")
    mu = projected.mean(axis=0)
    centered = projected - mu
    sigma = centered.T @ centered / len(projected)
    lower = _cholesky(sigma, "projected data covariance")
    rng = np.random.default_rng(seed)
    means = mu + rng.standard_normal((clusters, projected.shape[1])) @ lower.T
    covs = np.broadcast_to(sigma, (clusters, *sigma.shape)).copy()
    return mog_from_standard(np.full(clusters, 1.0 / clusters), means, covs)


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    """Training configuration shared by all four methods.

    ``adam`` is deprecated and ignored: the unified maximization step is
    exact and has no learning rate or step budget.
    """

    method: str
    latent_dim: int
    clusters: int
    stage1_iters: int = 100
    stage2_iters: int = 100
    hmog_iters: int = 800
    adam: AdamConfig = AdamConfig()
    restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.latent_dim < 1 or self.clusters < 1:
            raise ValueError("latent_dim and clusters must be >= 1")
        if min(self.stage1_iters, self.stage2_iters) < 1 or self.hmog_iters < 0:
            raise ValueError("iteration counts must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @property
    def structure(self) -> Structure:
        return _structure(self.method)

    @property
    def unified(self) -> bool:
        return self.method.startswith("hmog")


@dataclass(frozen=True)
class StageTrace:
    """Log-likelihood trajectory of one training stage."""

    name: str
    log_likelihoods: tuple[float, ...]


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: best-restart trajectory and bookkeeping."""

    method: str
    latent_dim: int
    clusters: int
    seed: int
    restart_index: int
    wall_time_s: float
    stages: tuple[StageTrace, ...]
    final_train_log_likelihood: float

    @property
    def trajectory(self) -> list[float]:
        out: list[float] = []
        for stage in self.stages:
            out.extend(stage.log_likelihoods)
        return out


@dataclass(frozen=True)
class CvCell:
    """Cross-validation scores of one grid cell."""

    latent_dim: int
    clusters: int
    fold_scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_scores))

    @property
    def std(self) -> float:
        if len(self.fold_scores) < 2:
            return 0.0
        return float(np.std(self.fold_scores, ddof=1))


@dataclass(frozen=True)
class CvReport:
    """Cross-validation results over a (latent_dim, clusters) grid."""

    method: str
    folds: int
    seed: int
    cells: tuple[CvCell, ...]

    def cell(self, latent_dim: int, clusters: int) -> CvCell:
        for entry in self.cells:
            if entry.latent_dim == latent_dim and entry.clusters == clusters:
                return entry
        raise KeyError(f"no cell ({latent_dim}, {clusters})")


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------


def _fit_moments(points: NDArray, cfg: FitConfig) -> DataMoments:
    """The data moments every restart of one fit shares.

    Degenerate data (fewer than two points, fewer coordinates than latent
    dimensions, or a coordinate without variance) fails here, before any
    restart: projections of n-dimensional data span at most n feature
    dimensions, so no restart of a larger latent space can succeed.
    """
    if len(points) < 2:
        raise ValueError("initialization needs at least two samples")
    if cfg.latent_dim > points.shape[1]:
        raise ValueError(
            f"latent_dim {cfg.latent_dim} exceeds the data dimension {points.shape[1]}"
        )
    moments = data_moments(MultivariateNormal(points.shape[1], cfg.structure), points)
    _check_variances(np.diag(moments.covariance))
    return moments


def _two_stage_single(
    data: NDArray, cfg: FitConfig, seed: int, moments: DataMoments
) -> tuple[LinearGaussianModel, MixtureModel, Hmog, list[float], list[float]]:
    """One two-stage restart; trajectories are assembled-model likelihoods.

    Stage 1 runs on the moments of ``data`` alone: each step is one
    `lgm_moment_pass`, which scores the current model and yields the next
    step's target. The assembled model returned is the one that scored
    the last stage-2 entry.
    """
    lgm = _initial_lgm(
        moments.mean, np.diag(moments.covariance), cfg.latent_dim, cfg.structure, seed
    )
    stage1 = []
    try:
        current = lgm_moment_pass(lgm, moments)
        for _ in range(cfg.stage1_iters):
            lgm = lgm_backward(lgm.obs, lgm.lat, *current.target)
            current = lgm_moment_pass(lgm, moments)
            stage1.append(current.mean_log_likelihood)
    except DomainError as exc:
        raise DomainError(f"stage 1 EM failed: {exc}") from exc

    projected = lgm_project_batch(lgm, data)
    mog = init_mog(projected, cfg.clusters, seed)
    # The conditional p(x | y) and the projections are fixed from here on:
    # the feature shifts x @ W and the statistics of the projections are
    # computed once, and the mean observable statistic comes with the moments.
    shifts = data @ lgm.interaction
    features = mog_statistics(mog.lat, projected)
    stage2 = []
    try:
        for _ in range(cfg.stage2_iters):
            mog = mog_em_step_from_statistics(mog, *features)
            model = assemble_hmog(lgm, mog)
            stage2.append(
                hmog_mean_log_likelihood_from_terms(model, shifts, moments.statistic)
            )
    except DomainError as exc:
        raise DomainError(f"stage 2 EM failed: {exc}") from exc
    return lgm, mog, model, stage1, stage2


def _points(data: Dataset | NDArray) -> NDArray:
    return data.points if isinstance(data, Dataset) else np.asarray(data, dtype=float)


def _fit(
    data: Dataset | NDArray, cfg: FitConfig, unified: bool
) -> tuple[LinearGaussianModel, MixtureModel, Hmog, FitReport]:
    """The restart loop of every method (see the module docstring).

    Returns the winning restart's two-stage pair, its final assembled
    model (after unified EM when ``unified``) and the report.
    """
    points = _points(data)
    start = time.perf_counter()
    moments = _fit_moments(points, cfg)
    best = None
    failure: Exception | None = None
    for restart in range(cfg.restarts):
        try:
            lgm, mog, model, *stages = _two_stage_single(
                points, cfg, cfg.seed + restart, moments
            )
            if unified:
                stages.append([])
                current = None
                try:
                    for _ in range(cfg.hmog_iters):
                        model, diag = hmog_em_iteration(
                            model, points, posterior_pass=current
                        )
                        current = diag.posterior_pass
                        stages[-1].append(diag.log_likelihood_after)
                except DomainError as exc:
                    raise DomainError(f"unified EM failed: {exc}") from exc
        except DomainError as exc:
            # A restart that walks into a degenerate attractor (component
            # collapse) is a failed local attempt; keep the survivors.
            failure = exc
            continue
        final = (stages[-1] or stages[-2])[-1]  # stage 2 is never empty
        if best is None or final > best[0]:
            best = (final, restart, lgm, mog, model, stages)
    if best is None:
        raise DomainError(f"all {cfg.restarts} restarts failed; last error: {failure}")
    final, restart, lgm, mog, model, stages = best
    return lgm, mog, model, FitReport(
        method=cfg.method, latent_dim=cfg.latent_dim, clusters=cfg.clusters,
        seed=cfg.seed, restart_index=restart,
        wall_time_s=time.perf_counter() - start,
        stages=tuple(
            StageTrace(name, tuple(values))
            for name, values in zip(("stage1", "stage2", "unified"), stages)
        ),
        final_train_log_likelihood=final,
    )


def fit_two_stage(
    data: Dataset | NDArray, cfg: FitConfig
) -> tuple[LinearGaussianModel, MixtureModel, FitReport]:
    """Two-stage training: likelihood model EM, project, mixture EM.

    Stage-1 entries score the likelihood model itself (its own feature
    prior); stage-2 entries score the assembled hierarchical model after
    each mixture step.
    """
    lgm, mog, _, report = _fit(data, cfg, unified=False)
    return lgm, mog, report


def fit_hmog(data: Dataset | NDArray, cfg: FitConfig) -> tuple[Hmog, FitReport]:
    """Unified training: two-stage initialization, then joint EM.

    Each restart continues its assembled two-stage model with
    ``cfg.hmog_iters`` EM iterations whose maximization step is exact, so
    the final train log-likelihood never falls below the two-stage value.
    Each iteration hands its fused posterior pass to the next, so an
    iteration scores the data once.
    """
    _, _, model, report = _fit(data, cfg, unified=True)
    return model, report


def fit_model(data: Dataset | NDArray, cfg: FitConfig) -> tuple[Hmog, FitReport]:
    """Fit by any method, always returning the assembled hierarchical model."""
    _, _, model, report = _fit(data, cfg, cfg.unified)
    return model, report


# ---------------------------------------------------------------------------
# Cross-validation and classification scoring
# ---------------------------------------------------------------------------


def cross_validate(
    data: Dataset | NDArray,
    cfg: FitConfig,
    folds: int = 5,
    grid: list[tuple[int, int]] | None = None,
) -> CvReport:
    """K-fold cross-validation of held-out observable log-likelihood.

    Folds are contiguous blocks of a seeded shuffle; every point is held
    out exactly once. Each grid cell refits with its own deterministic
    seed offset and scores the held-out fold through the assembled model.
    """
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    points = _points(data)
    if len(points) < folds:
        raise ValueError("need at least as many samples as folds")
    if grid is None:
        grid = [(cfg.latent_dim, cfg.clusters)]
    rng = np.random.default_rng(cfg.seed)
    permutation = rng.permutation(len(points))
    fold_indices = np.array_split(permutation, folds)
    smallest_fold = min(len(fold) for fold in fold_indices)

    cells = []
    for cell_index, (latent_dim, clusters) in enumerate(grid):
        if smallest_fold < clusters:
            raise ValueError(
                f"fold of {smallest_fold} points smaller than {clusters} clusters"
            )
        scores = []
        for fold in range(folds):
            test_idx = fold_indices[fold]
            train_idx = np.concatenate(
                [fold_indices[f] for f in range(folds) if f != fold]
            )
            sub_cfg = replace(
                cfg,
                latent_dim=latent_dim,
                clusters=clusters,
                seed=cfg.seed + 1009 * cell_index + 31 * fold,
            )
            model, _ = fit_model(points[train_idx], sub_cfg)
            scores.append(float(np.mean(hmog_log_densities(model, points[test_idx]))))
        cells.append(CvCell(latent_dim, clusters, tuple(scores)))
    return CvReport(method=cfg.method, folds=folds, seed=cfg.seed, cells=tuple(cells))


def _posteriors(model, points: NDArray) -> NDArray:
    """Cluster posteriors, one column per cluster, for either model flavor."""
    if isinstance(model, Hmog):
        return hmog_classify_batch(model, points)
    lgm, mog = model
    return mog_posteriors(mog, lgm_project_batch(lgm, points))


def score_classification(
    model,
    train: Dataset,
    test: Dataset | None = None,
    multi_label_clusters: bool = False,
) -> float:
    """Cluster-to-label classification accuracy.

    ``model`` is either an assembled hierarchical model (probabilistic
    classification) or an ``(lgm, mog)`` pair (two-stage classification:
    project, then index posterior). Each cluster is assigned its majority
    training label; with ``multi_label_clusters`` the direction flips and
    each label is assigned its best-covering cluster, so one cluster may
    represent several labels. A cluster (or, with ``multi_label_clusters``,
    a label) without training points has no match, so its test points
    count as misclassified. Accuracy is evaluated on ``test`` (defaults to
    the training data).
    """
    if train.labels is None:
        raise ValueError("training data has no labels")
    test = test if test is not None else train
    if test.labels is None:
        raise ValueError("test data has no labels")

    posteriors = _posteriors(model, train.points)
    num_labels = int(max(train.labels.max(), test.labels.max()))
    counts = np.zeros((posteriors.shape[1], num_labels), dtype=int)
    np.add.at(counts, (np.argmax(posteriors, axis=1), train.labels - 1), 1)

    test_clusters = np.argmax(_posteriors(model, test.points), axis=1)
    # Cluster -1 and label 0 match nothing.
    if multi_label_clusters:
        cluster_of_label = np.where(counts.any(axis=0), np.argmax(counts, axis=0), -1)
        return float(np.mean(test_clusters == cluster_of_label[test.labels - 1]))
    label_of_cluster = np.where(counts.any(axis=1), np.argmax(counts, axis=1) + 1, 0)
    return float(np.mean(label_of_cluster[test_clusters] == test.labels))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def canonical_json(payload) -> str:
    """Deterministic JSON rendering; float repr is shortest round-trip."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_to_dict(model: Hmog, method: str, seed: int) -> dict:
    """Serialize a hierarchical model to the interchange schema."""
    n = model.obs.dim
    return {
        "method": method,
        "dims": {"n": n, "m": model.lat.dim, "k": model.num_clusters},
        "params": {
            "theta_x_mu": model.obs_params[:n].tolist(),
            "theta_xx": model.obs_params[n:].tolist(),
            "theta_y": model.lat_params.tolist(),
            "theta_z": model.cat_params.tolist(),
            "theta_xy": model.obs_interaction.tolist(),
            "theta_yz": model.lat_interaction.tolist(),
        },
        "meta": {"seed": seed, "version": __version__},
    }


def _block(params: dict, name: str, shape: tuple[int, ...]) -> NDArray:
    """One parameter block of a model payload, checked against its shape."""
    if name not in params:
        raise ValueError(f"params.{name}: missing")
    try:
        value = np.asarray(params[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"params.{name}: not a numeric array ({exc})") from None
    if value.shape != shape:
        raise ValueError(f"params.{name}: shape {value.shape}, expected {shape}")
    return value


def model_from_dict(payload: dict) -> Hmog:
    """Rebuild a hierarchical model from the interchange schema.

    The payload, its ``dims`` and its ``params`` must be objects, the
    method one of `METHODS`, and every parameter block must have the
    length its structure and ``dims`` imply; a violation raises
    ValueError naming the offending field. Non-finite entries, a
    non-negative observable second-order block or a component whose joint
    precision is not positive-definite raise DomainError (a ValueError)
    naming the block or component, here rather than at first use.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"model: expected an object, got {type(payload).__name__}")
    method = payload.get("method")
    if method not in METHODS:
        raise ValueError(f"method: unknown {method!r}; choose from {METHODS}")
    dims, params = payload.get("dims", {}), payload.get("params", {})
    for name, value in (("dims", dims), ("params", params)):
        if not isinstance(value, dict):
            raise ValueError(f"{name}: expected an object, got {type(value).__name__}")
    for key in ("n", "m", "k"):
        if type(dims.get(key)) is not int or dims[key] < 1:  # a JSON true is an int too
            raise ValueError(f"dims.{key}: expected a positive integer, got {dims.get(key)!r}")
    n, m, k = dims["n"], dims["m"], dims["k"]
    obs = MultivariateNormal(n, _structure(method))
    lat = MultivariateNormal(m, Structure.FULL)
    model = Hmog(
        obs=obs,
        lat=lat,
        obs_params=np.concatenate(
            [_block(params, "theta_x_mu", (n,)),
             _block(params, "theta_xx", (obs.param_dim - n,))]
        ),
        lat_params=_block(params, "theta_y", (lat.param_dim,)),
        cat_params=_block(params, "theta_z", (k - 1,)),
        obs_interaction=_block(params, "theta_xy", (n, m)),
        lat_interaction=_block(params, "theta_yz", (lat.param_dim, k - 1)),
    )
    model.prepared  # validate the domain now
    return model


def save_model(model: Hmog, method: str, seed: int, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(model_to_dict(model, method, seed)))


def load_model(path) -> Hmog:
    with open(path, encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))


def report_to_dict(report: FitReport | CvReport) -> dict:
    """JSON-ready view of a report; wall time is excluded for bit-stability."""
    if isinstance(report, FitReport):
        return {
            "type": "fit_report",
            "method": report.method,
            "latent_dim": report.latent_dim,
            "clusters": report.clusters,
            "seed": report.seed,
            "restart_index": report.restart_index,
            "final_train_log_likelihood": report.final_train_log_likelihood,
            "stages": [
                {"name": stage.name, "log_likelihoods": list(stage.log_likelihoods)}
                for stage in report.stages
            ],
        }
    return {
        "type": "cv_report",
        "method": report.method,
        "folds": report.folds,
        "seed": report.seed,
        "cells": [
            {
                "latent_dim": cell.latent_dim,
                "clusters": cell.clusters,
                "fold_scores": list(cell.fold_scores),
                "mean": cell.mean,
                "std": cell.std,
            }
            for cell in report.cells
        ],
    }


def _trajectory_csv(report: FitReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["iteration", "log_likelihood"])
    for iteration, value in enumerate(report.trajectory, start=1):
        writer.writerow([iteration, repr(value)])
    return buffer.getvalue()


def _grid_csv(report: CvReport) -> str:
    """Rectangular grid of mean held-out log-likelihoods."""
    latent_dims = sorted({cell.latent_dim for cell in report.cells})
    cluster_counts = sorted({cell.clusters for cell in report.cells})
    lookup = {(cell.latent_dim, cell.clusters): cell for cell in report.cells}
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["latent_dim"] + [f"k={k}" for k in cluster_counts])
    for m in latent_dims:
        row: list = [m]
        for k in cluster_counts:
            cell = lookup.get((m, k))
            row.append(repr(cell.mean) if cell is not None else "")
        writer.writerow(row)
    return buffer.getvalue()


def export_report(report: FitReport | CvReport, path, format: str = "json") -> None:
    """Serialize a report; JSON re-exports byte-identically after reload."""
    if format == "json":
        text = canonical_json(report_to_dict(report))
    elif format == "csv":
        text = (
            _trajectory_csv(report)
            if isinstance(report, FitReport)
            else _grid_csv(report)
        )
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
