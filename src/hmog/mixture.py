"""Mixtures of Gaussians as conjugated harmoniums.

A mixture couples a full-covariance Gaussian over the feature variable
with a categorical index: component 1 lives at the base natural
parameters and component ``z > 1`` at the base shifted by column ``z - 2``
of the interaction matrix. Conjugation parameters are exact by
construction, which gives closed-form densities, posteriors, and EM.

Each model holds its stacked component factors in `MixtureModel.prepared`,
seeded by the backward map (below) or factored on first use with one
stacked `families._cholesky`; the kernel reads the whitening maps in one
stacked layout and its transpose. Everything evaluated under
per-sample first-order shifts of the base (the shape of every feature
posterior of a hierarchical model) is one kernel pass over those factors:
one product of the stacked whitening maps with the shifts, a max-shift
log-sum-exp over the component logits that flushes terms under e^-700 to
0, and then only the outputs its caller reads: log-partitions, index
posteriors, posterior feature means, or log-partitions and feature means
with the data-summed per-component statistics. Inside the kernel the
points run along the last (contiguous) axis of every temporary: whitened
terms (k m, B), logits and posteriors (k, B), so each per-component
reduction is a sum of whole rows and nothing is transposed or copied
between steps. Every batch streams through one loop over fixed blocks of
``BLOCK_ROWS`` points in their order: per-point outputs are written block
by block, and the data sums are added up across blocks in that fixed
order, so no temporary grows with the batch beyond the outputs and results
stay bit-stable. The conjugation parameters are read off the same factors.
Mixture EM on observed features (stage 2 of two-stage training) keeps the
same layout: the feature statistics are stored one column per point, and
the (k, N) index logits come from one product with them.

Component conversions are stacked: the forward map and `mog_to_standard`
read every component's mean and covariance off the prepared factors. The
backward map and `mog_from_standard` factor all component covariances
``Sigma_z = C_z C_z^T`` with one stacked Cholesky, take the categorical
parameters from the moments they hold, and return the model prepared
from those same factors.

A component that is not positive-definite (a collapsed one, say) raises
DomainError naming it; nothing is regularized. Only `mog_sample`, which
draws each component's points in turn, and `_factor_components`, which
names a failure, visit components one at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .families import (
    Categorical,
    DomainError,
    MultivariateNormal,
    Structure,
    _check_shapes,
    _cholesky,
    _freeze,
    log_sum_exp,
    normalize_logits,
)
from .harmonium import ConjugationParams, Harmonium

__all__ = [
    "MixtureModel",
    "MixturePosterior",
    "PreparedMixture",
    "mixture_conjugation_parameters",
    "mixture_forward",
    "mixture_backward",
    "mixture_log_partition",
    "mixture_weights",
    "shifted_log_partition",
    "shifted_posteriors",
    "shifted_feature_means",
    "mixture_posterior_stats",
    "mog_log_densities",
    "mog_posteriors",
    "mog_statistics",
    "mog_em_step_from_statistics",
    "mog_em_step",
    "mog_from_standard",
    "mog_to_standard",
    "mog_sample",
    "as_harmonium",
]


@dataclass(frozen=True)
class MixtureModel:
    """Gaussian mixture in harmonium coordinates.

    ``base_params`` are the flat natural parameters of component 1;
    ``interaction`` has one column per non-reference component, holding the
    natural-parameter offset of that component; ``cat_params`` are the
    ``k - 1`` categorical natural parameters of the index variable. A
    block of the wrong shape raises ValueError naming it.
    """

    lat: MultivariateNormal
    base_params: NDArray
    cat_params: NDArray
    interaction: NDArray

    def __post_init__(self) -> None:
        _freeze(self, "base_params", "cat_params", "interaction")
        if self.lat.structure is not Structure.FULL:
            raise ValueError("mixture components use the full-covariance family")
        p, k = self.lat.param_dim, self.num_components - 1
        shapes = {"base_params": (p,), "cat_params": (k,), "interaction": (p, k)}
        _check_shapes(vars(self), shapes)

    @property
    def num_components(self) -> int:
        return len(self.cat_params) + 1

    @property
    def dim(self) -> int:
        return self.lat.dim

    @property
    def cat(self) -> Categorical:
        return Categorical(self.num_components)

    @functools.cached_property
    def prepared(self) -> "PreparedMixture":
        """Stacked component factors, seeded by the backward map or built on first use.

        `dataclasses.replace` yields a new model with its own factors.
        """
        return _prepare_mixture(self)


def as_harmonium(model: MixtureModel) -> Harmonium:
    """View the mixture as a harmonium (Gaussian observable, index latent)."""
    return Harmonium(
        obs=model.lat,
        lat=model.cat,
        obs_params=model.base_params,
        lat_params=model.cat_params,
        interaction=model.interaction,
    )


def mixture_conjugation_parameters(model: MixtureModel) -> ConjugationParams:
    """Exact conjugation parameters of a Gaussian mixture.

    ``rho0 = psi_Y(theta_Y)`` and ``rho_i = psi_Y(theta_Y + offset_i) -
    rho0`` for each non-reference component; the conjugation equation then
    holds with equality at every index. The component log-partitions are
    read off the model's prepared factors.
    """
    psi = model.prepared.log_partitions
    return ConjugationParams(rho=psi[1:] - psi[0], rho0=float(psi[0]))


def mixture_log_partition(model: MixtureModel) -> float:
    """Joint log-partition via conjugation: psi_Z(theta_Z + rho) + rho0."""
    conj = mixture_conjugation_parameters(model)
    return model.cat.log_partition(model.cat_params + conj.rho) + conj.rho0


def mixture_weights(model: MixtureModel) -> NDArray:
    """Marginal index probabilities, length ``num_components``."""
    conj = mixture_conjugation_parameters(model)
    return model.cat.probabilities(model.cat_params + conj.rho)


def mixture_forward(model: MixtureModel) -> tuple[NDArray, NDArray, NDArray]:
    """Forward mapping to mean coordinates.

    Returns ``(eta_Y, eta_Z, H_YZ)``: the Gaussian sufficient-statistic
    expectation (weighted over components), the index probabilities for
    components ``2..k``, and the cross expectation ``E[s_Y (x) s_Z]``,
    whose column for component ``z`` is that component's mean statistics
    scaled by its weight.
    """
    w = mixture_weights(model)
    means, covs = _component_moments(model)
    comp_means = model.lat.join_mean(means, covs + means[:, :, None] * means[:, None, :])
    return w @ comp_means, w[1:], (comp_means[1:] * w[1:, None]).T


def mixture_backward(
    lat: MultivariateNormal, eta_y: NDArray, eta_z: NDArray, cross: NDArray
) -> MixtureModel:
    """Backward mapping from mean coordinates to a MixtureModel.

    Inverts `mixture_forward`: recovers component weights and
    per-component moments and hands them to `_mixture_from_moments`. A
    component whose covariance loses positive-definiteness raises
    DomainError naming the first such component.
    """
    eta_z = np.asarray(eta_z, dtype=float)
    w1 = 1.0 - float(np.sum(eta_z))
    if w1 <= 0.0 or np.any(eta_z <= 0.0):
        raise DomainError("degenerate mixture weights in backward mapping")
    comp_means = np.vstack([(eta_y - cross.sum(axis=1)) / w1, (cross / eta_z).T])
    mu, second = lat.split_mean(comp_means)
    sigma = second - mu[:, :, None] * mu[:, None, :]
    return _mixture_from_moments(lat, mu, sigma, eta_z)


def _factor_components(matrices: NDArray, what: str) -> NDArray:
    """Lower Cholesky factors of a stack of component matrices (k, m, m).

    Only when the stacked factorization fails are the components factored
    one at a time, to raise DomainError ``component z <what> is not
    positive-definite``, with ``component`` set to ``z``, for the first
    that fails, a non-finite one included.
    """
    try:
        return _cholesky(matrices, what)
    except DomainError:
        for z, matrix in enumerate(matrices, start=1):
            try:
                _cholesky(matrix, what)
            except DomainError:
                error = DomainError(f"component {z} {what} is not positive-definite")
                error.component = z
                raise error from None
        raise


def _mixture_from_moments(
    lat: MultivariateNormal, mu: NDArray, sigma: NDArray, eta_z: NDArray
) -> MixtureModel:
    """The mixture of component means (k, m), covariances (k, m, m), weights 2..k.

    Prepared with ``whiten = C_z``, ``Sigma_z = C_z C_z^T``; ``theta_Z =
    to_natural(eta_z) - (psi_z - psi_1)`` solves the conjugation equation.
    """
    lower = _factor_components(sigma, "covariance")
    inv_lower = np.linalg.inv(lower)
    inverse = inv_lower.transpose(0, 2, 1) @ inv_lower
    offsets = (inv_lower @ mu[..., None])[..., 0]
    logdets = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    psi = 0.5 * np.sum(offsets**2, axis=1) + 0.5 * logdets
    naturals = lat.join_natural((inverse @ mu[..., None])[..., 0], -0.5 * inverse)
    base = naturals[0]
    model = MixtureModel(
        lat=lat,
        base_params=base,
        cat_params=Categorical(len(mu)).to_natural(eta_z) - (psi[1:] - psi[0]),
        interaction=(naturals[1:] - base).T,
    )
    vars(model)["prepared"] = _prepared(lower, offsets, logdets, model.cat_params)
    return model


# ---------------------------------------------------------------------------
# The prepared posterior kernel: every computation under first-order shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedMixture:
    """Stacked per-component factors of a mixture, built once per model.

    ``whiten[z - 1]`` is a square root of component ``z``'s covariance
    ``P_z^{-1} = whiten whiten^T`` (``P_z = -2 Theta_z``), so the quadratic
    form of a vector ``v`` is ``|whiten^T v|^2``.
    ``offsets`` stacks the whitened first-order blocks ``whiten[z - 1]^T
    theta_mu(z)`` (k m,); ``bias`` is the shift-free part of each index
    logit, ``theta_Z . s_Z(z) - 1/2 log|P_z|``; and ``log_partitions`` the
    unshifted component log-partitions.

    The kernel keeps points on the last axis: ``whiten_tall`` (k m, m)
    stacks the transposed maps, so that one product with shift columns
    (m, N) gives the whitened terms of every component, rows ``(z - 1) m``
    to ``z m - 1`` for component ``z``; its transpose sets the maps side by
    side and takes those rows back to feature space.
    """

    whiten: NDArray
    offsets: NDArray
    bias: NDArray
    log_partitions: NDArray
    whiten_tall: NDArray


def _prepared(whiten, offsets, logdets, cat_params) -> PreparedMixture:
    """The state from the ``whiten`` maps, offsets (k, m) and ``log|P_z^{-1}|``."""
    k, m = offsets.shape
    return PreparedMixture(
        whiten=whiten,
        offsets=offsets.reshape(k * m),
        bias=np.concatenate([[0.0], cat_params]) + 0.5 * logdets,
        log_partitions=0.5 * np.sum(offsets**2, axis=1) + 0.5 * logdets,
        whiten_tall=whiten.transpose(0, 2, 1).reshape(k * m, m),
    )


def _prepare_mixture(model: MixtureModel) -> PreparedMixture:
    """Factor every component precision with one stacked Cholesky.

    Raises DomainError for non-finite parameters, or naming the first
    component whose precision is not positive-definite.
    """
    m = model.dim
    naturals = np.vstack([model.base_params, model.base_params + model.interaction.T])
    if not (np.all(np.isfinite(naturals)) and np.all(np.isfinite(model.cat_params))):
        raise DomainError("non-finite mixture parameters")
    precisions = -2.0 * model.lat.split_natural(naturals)[1]
    lower = _factor_components(precisions, "precision")
    whiten = np.linalg.inv(lower).transpose(0, 2, 1)
    logdets = -2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    offsets = np.einsum("ki,kij->kj", naturals[:, :m], whiten)
    return _prepared(whiten, offsets, logdets, model.cat_params)


@dataclass(frozen=True)
class MixturePosterior:
    """The statistics pass of a mixture under per-sample first-order base shifts.

    ``log_partition`` is the shifted joint log-partition per sample (N,)
    and ``feature_means`` the posterior feature means E[y | .] (N, m). The
    data-summed statistics per component follow: ``weights`` (k,) is the
    summed responsibility and ``component_stats`` (k, s_Y) the summed
    responsibility-weighted flat Gaussian mean statistics, i.e. the flat
    packing of ``sum p mu`` and ``sum p mu mu^T + weight Sigma``. No
    per-sample statistic tensors are formed.
    """

    log_partition: NDArray
    feature_means: NDArray
    weights: NDArray
    component_stats: NDArray


# Rows of shifts per kernel block. A block's whitened terms and weighted
# moments, (k m, BLOCK_ROWS) each, stay cache-sized; much larger blocks make
# the pass bound by memory traffic. At k m = 40 and N = 1e5 (2-CPU x86_64,
# OpenBLAS on one thread, best of 24), 2048 rows beat 1024 by 3-12% on
# partition, posteriors and means, lose 8-10% on stats; 4096 is no faster.
BLOCK_ROWS = 2048


def _shifted_pass(model: MixtureModel, shifts: NDArray, need: str) -> list[NDArray]:
    """The posterior kernel, streamed over fixed blocks of rows.

    Returns the outputs of ``need``, each with the points on its last axis:
    ``"partition"`` the log-partitions (N,), ``"posteriors"`` the index
    posteriors (k, N), ``"means"`` the posterior feature means (m, N), and
    ``"stats"`` the log-partitions, the feature means and the three
    whitened sums of `_kernel_block`. The rows of ``shifts`` are taken
    ``BLOCK_ROWS`` at a time, in order (an empty batch is one empty block):
    per-point outputs are written block by block into their columns, and
    the sums are added up across blocks in that fixed order, from the
    first block's as they are. No temporary grows with N beyond the outputs.
    Shifts not of shape (N, m) raise ValueError.
    """
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 2 or shifts.shape[1] != model.dim:
        raise ValueError(f"expected shifts of dimension {model.dim}, got {shifts.shape}")
    prep, outputs, sums = model.prepared, None, None
    for start in range(0, max(len(shifts), 1), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        values, part = _kernel_block(prep, shifts[rows], need)
        if outputs is None:
            outputs = [np.empty((*value.shape[:-1], len(shifts))) for value in values]
        for output, value in zip(outputs, values):
            output[..., rows] = value
        if part is not None:
            sums = part if sums is None else [a + b for a, b in zip(sums, part)]
    return outputs if sums is None else [*outputs, *sums]


def _kernel_block(prep: PreparedMixture, shifts: NDArray, need: str):
    """One block of `_shifted_pass`: one GEMM, a max-shift log-sum-exp, sums.

    The points of the block run along the last axis of every temporary.
    The whitened first-order terms ``whiten_z^T (theta_mu(z) + shift)`` of
    all components, (k m, B), come from one product of the stacked
    transposed whitening maps with the block's shifts; half their squared
    norms, summed over each component's m rows, plus the bias are the
    index logits (k, B). Returns the block's per-point outputs of
    ``need`` and, for ``"stats"``, its summed responsibilities, whitened
    first moments and whitened outer products ``sum_n p u u^T`` per
    component.
    """
    k, m = prep.whiten.shape[:2]
    count = len(shifts)
    white = prep.whiten_tall @ shifts.T
    white += prep.offsets[:, None]
    white = white.reshape(k, m, count)
    logits = np.einsum("kmb,kmb->kb", white, white)
    logits *= 0.5
    logits += prep.bias[:, None]
    if need == "partition":
        return [log_sum_exp(logits)], None
    log_partition, probs = normalize_logits(logits)
    if need == "posteriors":
        return [probs], None

    weighted = probs[:, None, :] * white
    feature_means = prep.whiten_tall.T @ weighted.reshape(k * m, count)
    if need == "means":
        return [feature_means], None
    outer = np.matmul(weighted, white.transpose(0, 2, 1))
    sums = [np.sum(probs, axis=1), np.sum(weighted, axis=2), outer]
    return [log_partition, feature_means], sums


def _component_moments(model: MixtureModel) -> tuple[NDArray, NDArray]:
    """Component means ``whiten_z offsets_z`` and covariances ``whiten_z whiten_z^T``."""
    prep = model.prepared
    offsets = prep.offsets.reshape(model.num_components, model.dim)
    means = (prep.whiten @ offsets[:, :, None])[:, :, 0]
    return means, prep.whiten @ prep.whiten.transpose(0, 2, 1)


def shifted_log_partition(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Joint log-partition under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts, "partition")[0]


def shifted_posteriors(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Index posteriors (N, k) under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts, "posteriors")[0].T


def shifted_feature_means(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Posterior feature means (N, m) under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts, "means")[0].T


def mixture_posterior_stats(model: MixtureModel, shifts: NDArray) -> MixturePosterior:
    """The shifted pass with feature means and data-summed statistics."""
    log_partition, feature_means, weights, white_sum, outer = _shifted_pass(
        model, shifts, "stats"
    )
    # the weight times the identity that whitening turns the shared
    # covariance into
    outer += weights[:, None, None] * np.eye(model.dim)
    whiten = model.prepared.whiten
    first = np.einsum("kj,kij->ki", white_sum, whiten)
    second = whiten @ outer @ whiten.transpose(0, 2, 1)
    return MixturePosterior(
        log_partition=log_partition,
        feature_means=feature_means.T,
        weights=weights,
        component_stats=model.lat.join_mean(first, second),
    )


# ---------------------------------------------------------------------------
# Densities, posteriors, EM
# ---------------------------------------------------------------------------


def _index_logits(model: MixtureModel, stats: NDArray) -> NDArray:
    """Index logits (k, N) of statistic columns: zero, then ``theta_Z + Theta_YZ^T s``."""
    logits = np.zeros((model.num_components, stats.shape[1]))
    np.matmul(model.interaction.T, stats, out=logits[1:])
    logits[1:] += model.cat_params[:, None]
    return logits


def mog_log_densities(model: MixtureModel, ys: NDArray) -> NDArray:
    """log p(y) at a batch of points, through the conjugation identity."""
    ys = np.asarray(ys, dtype=float)
    stats = model.lat.sufficient_statistics(ys)
    return (
        stats @ model.base_params
        + log_sum_exp(_index_logits(model, stats.T))
        - mixture_log_partition(model)
        + model.lat.log_base_measure(ys)
    )


def mog_posteriors(model: MixtureModel, ys: NDArray) -> NDArray:
    """Index posteriors p(z | y) for a batch, shape ``(len(ys), k)``."""
    stats = model.lat.sufficient_statistics(np.asarray(ys, dtype=float))
    return normalize_logits(_index_logits(model, stats.T))[1].T


def mog_statistics(lat: MultivariateNormal, ys: NDArray) -> tuple[NDArray, NDArray]:
    """Feature sufficient statistics (s_Y, N), one column per point, and their mean.

    They are all mixture EM needs from the data, so a run of steps on
    fixed points computes them once (`mog_em_step_from_statistics`).
    """
    stats = lat.sufficient_statistics(ys)
    return stats.T, stats.mean(axis=0)


def mog_em_step_from_statistics(
    model: MixtureModel, stats: NDArray, mean_stats: NDArray
) -> MixtureModel:
    """One closed-form EM step on `mog_statistics` of the observed features.

    Index posteriors come from the categorical forward mapping of the
    `_index_logits`; their averages with the fixed statistics go to the
    mixture backward mapping. The training log-likelihood is
    nondecreasing. A component whose weighted covariance loses
    positive-definiteness raises DomainError naming it.
    """
    count = stats.shape[1]
    if count < model.num_components:
        raise ValueError("need at least as many samples as mixture components")
    posteriors = normalize_logits(_index_logits(model, stats))[1][1:]
    return mixture_backward(
        model.lat,
        mean_stats,
        posteriors.mean(axis=1),
        stats @ posteriors.T / count,
    )


def mog_em_step(model: MixtureModel, data: NDArray) -> MixtureModel:
    """One closed-form EM step on observed features.

    Computes `mog_statistics` of ``data`` and runs
    `mog_em_step_from_statistics` on them.
    """
    return mog_em_step_from_statistics(model, *mog_statistics(model.lat, data))


# ---------------------------------------------------------------------------
# Standard-form bridges and sampling
# ---------------------------------------------------------------------------


def mog_from_standard(
    mix_weights: NDArray, means: NDArray, covariances: NDArray
) -> MixtureModel:
    """Build a mixture from weights, component means, and covariances."""
    mix_weights = np.asarray(mix_weights, dtype=float)
    means = np.asarray(means, dtype=float)
    if np.any(mix_weights <= 0.0) or abs(float(np.sum(mix_weights)) - 1.0) > 1e-9:
        raise DomainError("mixture weights must be positive and sum to 1")
    lat = MultivariateNormal(means.shape[1], Structure.FULL)
    covariances = np.asarray(covariances, dtype=float)
    if covariances.shape != means.shape + (lat.dim,):
        raise ValueError(
            f"expected covariances of shape {means.shape + (lat.dim,)}, "
            f"got {covariances.shape}"
        )
    return _mixture_from_moments(lat, means, covariances, mix_weights[1:])


def mog_to_standard(model: MixtureModel) -> tuple[NDArray, NDArray, NDArray]:
    """Recover ``(weights, means, covariances)`` from a mixture."""
    return (mixture_weights(model), *_component_moments(model))


def mog_sample(
    model: MixtureModel, size: int, rng: np.random.Generator
) -> tuple[NDArray, NDArray]:
    """Ancestral draws ``(features, component indices)``; one stacked factoring."""
    conj = mixture_conjugation_parameters(model)
    zs = model.cat.sample(model.cat_params + conj.rho, size, rng)
    means, covs = _component_moments(model)
    lower = _cholesky(covs, "covariance")
    ys = np.empty((size, model.dim))
    for z in range(1, model.num_components + 1):
        mask = zs == z
        hits = int(np.count_nonzero(mask))
        if hits:
            draws = rng.standard_normal((hits, model.dim))
            ys[mask] = means[z - 1] + draws @ lower[z - 1].T
    return ys, zs
