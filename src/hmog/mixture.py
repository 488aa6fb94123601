"""Mixtures of Gaussians as conjugated harmoniums.

A mixture couples a full-covariance Gaussian over the feature variable
with a categorical index: component 1 lives at the base natural
parameters and component ``z > 1`` at the base shifted by column ``z - 2``
of the interaction matrix. Conjugation parameters are exact by
construction, which gives closed-form densities, posteriors, and EM.

Each model factors its component precisions once, with one stacked
`families._cholesky`, into `MixtureModel.prepared`. Everything evaluated under
per-sample first-order shifts of the base (the shape of every feature
posterior of a hierarchical model) is one kernel pass over those factors:
one product of the shifts with the stacked whitening maps, a max-shift
log-sum-exp over the component logits, and, on request, the posterior
feature means alone or with the data-summed per-component statistics. The
pass streams over fixed blocks of ``BLOCK_ROWS`` rows in their order:
per-point outputs are written block by block, and the data sums are added
up across blocks in that fixed order, so no temporary grows with the
batch beyond the outputs and results stay bit-stable from run to run. A
batch of at most ``BLOCK_ROWS`` rows is a single block and takes exactly
the operations of an unblocked pass. The conjugation parameters are read
off the same factors.

Component conversions are stacked: the forward map and `mog_to_standard`
read every component's mean and covariance off the prepared factors. The
backward map and `mog_from_standard` invert all component covariances
with one stacked `families._spd_inverse` and take the categorical
parameters from the moments they hold, ``psi_z = 1/2 mu_z . theta_mu(z) +
1/2 log|Sigma_z|``, with no candidate model to factor.

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
    _cholesky,
    _spd_inverse,
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
    "mog_observable_log_density",
    "mog_log_densities",
    "mog_mean_log_likelihood",
    "mog_posterior",
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
    ``k - 1`` categorical natural parameters of the index variable.
    """

    lat: MultivariateNormal
    base_params: NDArray
    cat_params: NDArray
    interaction: NDArray

    def __post_init__(self) -> None:
        if self.lat.structure is not Structure.FULL:
            raise ValueError("mixture components use the full-covariance family")
        expected = (self.lat.param_dim, len(self.cat_params))
        if self.interaction.shape != expected:
            raise ValueError(
                f"interaction shape {self.interaction.shape}, expected {expected}"
            )

    @property
    def num_components(self) -> int:
        return len(self.cat_params) + 1

    @property
    def dim(self) -> int:
        return self.lat.dim

    @property
    def cat(self) -> Categorical:
        return Categorical(self.num_components)

    def component_params(self, z: int) -> NDArray:
        """Flat natural parameters of component ``z`` (1-based)."""
        if not 1 <= z <= self.num_components:
            raise ValueError(f"component index {z} outside 1..{self.num_components}")
        if z == 1:
            return self.base_params.copy()
        return self.base_params + self.interaction[:, z - 2]

    @functools.cached_property
    def prepared(self) -> "PreparedMixture":
        """Stacked component factors, computed on first use and kept.

        The blocks must not be mutated in place after this is read;
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


def _factor_components(factor, matrices: NDArray, what: str):
    """``factor(matrices, what)`` of a stack of component matrices (k, m, m).

    ``factor`` is `families._cholesky` or `families._spd_inverse`. Only
    when the stacked factorization fails are the components factored one
    at a time, to raise DomainError ``component z <what> is not
    positive-definite`` for the first that fails, a non-finite one
    included.
    """
    try:
        return factor(matrices, what)
    except DomainError:
        for z, matrix in enumerate(matrices, start=1):
            try:
                _cholesky(matrix, what)
            except DomainError:
                raise DomainError(
                    f"component {z} {what} is not positive-definite"
                ) from None
        raise


def _mixture_from_moments(
    lat: MultivariateNormal, mu: NDArray, sigma: NDArray, eta_z: NDArray
) -> MixtureModel:
    """The mixture of component means (k, m), covariances (k, m, m), weights 2..k.

    The categorical parameters solve the conjugation equation,
    ``theta_Z = to_natural(eta_z) - (psi_z - psi_1)`` over ``z = 2..k``.
    """
    inverse, logdet = _factor_components(_spd_inverse, sigma, "covariance")
    first = (inverse @ mu[..., None])[..., 0]
    naturals = lat.join_natural(first, -0.5 * inverse)
    psi = 0.5 * np.sum(mu * first, axis=1) + 0.5 * logdet
    base = naturals[0]
    return MixtureModel(
        lat=lat,
        base_params=base,
        cat_params=Categorical(len(mu)).to_natural(eta_z) - (psi[1:] - psi[0]),
        interaction=(naturals[1:] - base).T,
    )


# ---------------------------------------------------------------------------
# The prepared posterior kernel: every computation under first-order shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedMixture:
    """Stacked per-component factors of a mixture, built once per model.

    Component ``z`` has precision ``P_z = -2 Theta_z = L_z L_z^T``;
    ``whiten[z - 1]`` is ``L_z^{-T}``, so ``P_z^{-1} = whiten whiten^T``
    and the quadratic form of a row vector ``v`` is ``|v @ whiten|^2``.
    ``offsets`` holds the whitened first-order blocks ``theta_mu(z) @
    whiten[z - 1]`` side by side (k m,); ``bias`` the shift-free part of
    each index logit, ``theta_Z . s_Z(z) - 1/2 log|P_z|``; and
    ``log_partitions`` the unshifted component log-partitions.
    """

    whiten: NDArray
    offsets: NDArray
    bias: NDArray
    log_partitions: NDArray
    # The factors laid out for the kernel's single GEMM: the whitening maps
    # side by side (m, k m), their transposes stacked (k m, m), and the
    # block indicator (k m, k) that sums squares per component.
    whiten_wide: NDArray
    unwhiten_tall: NDArray
    blocks: NDArray


def _prepare_mixture(model: MixtureModel) -> PreparedMixture:
    """Factor every component precision with one stacked Cholesky.

    Raises DomainError for non-finite parameters, or naming the first
    component whose precision is not positive-definite.
    """
    k, m = model.num_components, model.dim
    naturals = np.vstack([model.base_params, model.base_params + model.interaction.T])
    if not (np.all(np.isfinite(naturals)) and np.all(np.isfinite(model.cat_params))):
        raise DomainError("non-finite mixture parameters")
    precisions = -2.0 * model.lat.split_natural(naturals)[1]
    lower = _factor_components(_cholesky, precisions, "precision")
    whiten = np.linalg.inv(lower).transpose(0, 2, 1)
    logdets = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    offsets = np.einsum("ki,kij->kj", naturals[:, :m], whiten)
    return PreparedMixture(
        whiten=whiten,
        offsets=offsets.reshape(k * m),
        bias=np.concatenate([[0.0], model.cat_params]) - 0.5 * logdets,
        log_partitions=0.5 * np.sum(offsets**2, axis=1) - 0.5 * logdets,
        whiten_wide=whiten.transpose(1, 0, 2).reshape(m, k * m),
        unwhiten_tall=whiten.transpose(0, 2, 1).reshape(k * m, m),
        blocks=np.repeat(np.eye(k), m, axis=0),
    )


@dataclass(frozen=True)
class MixturePosterior:
    """One pass of a mixture under per-sample first-order base shifts.

    ``log_partition`` is the shifted joint log-partition per sample (N,)
    and ``probabilities`` the index posteriors (N, k). With means or
    statistics requested, ``feature_means`` holds the posterior feature
    means E[y | .] (N, m). With statistics requested, the data-summed
    statistics per component follow: ``weights`` (k,) is the summed
    responsibility and ``component_stats`` (k, s_Y) the summed
    responsibility-weighted flat Gaussian mean statistics, i.e. the flat
    packing of ``sum p mu`` and ``sum p mu mu^T + weight Sigma``. No
    per-sample statistic tensors are formed.
    """

    log_partition: NDArray
    probabilities: NDArray
    feature_means: NDArray | None = None
    weights: NDArray | None = None
    component_stats: NDArray | None = None


# Rows of shifts per kernel block. A block's whitened terms and weighted
# moments, (BLOCK_ROWS, k m) each, stay cache-sized; much larger blocks make
# the pass bound by memory traffic. At k m = 40 and N = 1e5 (2-CPU x86_64,
# OpenBLAS on one thread), 1024 rows beat 512, 2048 and 4096 on every need.
BLOCK_ROWS = 1024


def _shifted_pass(
    model: MixtureModel, shifts: NDArray, need: str = "partition"
) -> MixturePosterior:
    """The posterior kernel, streamed over fixed blocks of rows.

    ``need`` is ``"partition"`` (log-partitions and index posteriors only),
    ``"means"`` (also the posterior feature means) or ``"stats"`` (also the
    data-summed per-component statistics). The rows of ``shifts`` are taken
    ``BLOCK_ROWS`` at a time, in order: per-point outputs are written block
    by block, and the sums of the statistics are added up across blocks in
    that fixed order, then mapped back once. A batch of at most
    ``BLOCK_ROWS`` rows is one block whose arrays are the outputs as they
    are, so it takes exactly the operations of an unblocked pass. No
    temporary grows with N beyond the outputs.
    """
    prep = model.prepared
    shifts = np.asarray(shifts, dtype=float)
    count, k, m = len(shifts), model.num_components, model.dim
    if count <= BLOCK_ROWS:
        log_partition, probs, means, sums = _kernel_block(prep, shifts, need)
    else:
        log_partition, probs = np.empty(count), np.empty((count, k))
        means = None if need == "partition" else np.empty((count, m))
        sums = None
        for start in range(0, count, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            psi, post, mu, part = _kernel_block(prep, shifts[rows], need)
            log_partition[rows], probs[rows] = psi, post
            if means is not None:
                means[rows] = mu
            if part is not None:
                sums = part if sums is None else [a + b for a, b in zip(sums, part)]
    if need != "stats":
        return MixturePosterior(log_partition, probs, feature_means=means)

    weights, white_sum, outer = sums
    # the weight times the identity that whitening turns the shared
    # covariance into
    outer += weights[:, None, None] * np.eye(m)
    whiten = prep.whiten
    first = np.einsum("kj,kij->ki", white_sum, whiten)
    second = whiten @ outer @ whiten.transpose(0, 2, 1)
    return MixturePosterior(
        log_partition=log_partition,
        probabilities=probs,
        feature_means=means,
        weights=weights,
        component_stats=model.lat.join_mean(first, second),
    )


def _kernel_block(prep: PreparedMixture, shifts: NDArray, need: str):
    """One block of `_shifted_pass`: one GEMM, a max-shift log-sum-exp, sums.

    The whitened first-order terms ``(theta_mu(z) + shift) @ whiten_z`` of all
    components come from one product against the side-by-side whitening
    maps; half their squared norms plus the bias are the index logits.
    Returns ``(log_partition, probabilities, feature_means, sums)``, where
    ``sums`` are the block's summed responsibilities, whitened first
    moments and whitened outer products ``sum_n p u u^T`` per component.
    """
    k, m = prep.whiten.shape[:2]
    white = shifts @ prep.whiten_wide + prep.offsets
    logits = prep.bias + 0.5 * ((white * white) @ prep.blocks)
    log_partition, probs = normalize_logits(logits)
    if need == "partition":
        return log_partition, probs, None, None

    count = len(shifts)
    white = white.reshape(count, k, m)
    weighted = probs[:, :, None] * white
    feature_means = weighted.reshape(count, k * m) @ prep.unwhiten_tall
    if need == "means":
        return log_partition, probs, feature_means, None
    outer = np.matmul(weighted.transpose(1, 2, 0), white.transpose(1, 0, 2))
    sums = [np.sum(probs, axis=0), np.sum(weighted, axis=0), outer]
    return log_partition, probs, feature_means, sums


def _component_moments(model: MixtureModel) -> tuple[NDArray, NDArray]:
    """Component means ``whiten_z offsets_z`` and covariances ``whiten_z whiten_z^T``."""
    prep = model.prepared
    offsets = prep.offsets.reshape(model.num_components, model.dim)
    means = (prep.whiten @ offsets[:, :, None])[:, :, 0]
    return means, prep.whiten @ prep.whiten.transpose(0, 2, 1)


def shifted_log_partition(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Joint log-partition under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts).log_partition


def shifted_posteriors(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Index posteriors (N, k) under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts).probabilities


def shifted_feature_means(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Posterior feature means (N, m) under per-sample first-order base shifts."""
    return _shifted_pass(model, shifts, need="means").feature_means


def mixture_posterior_stats(model: MixtureModel, shifts: NDArray) -> MixturePosterior:
    """The shifted pass with feature means and data-summed statistics."""
    return _shifted_pass(model, shifts, need="stats")


# ---------------------------------------------------------------------------
# Densities, posteriors, EM
# ---------------------------------------------------------------------------


def mog_log_densities(model: MixtureModel, ys: NDArray) -> NDArray:
    """log p(y) at a batch of points, through the conjugation identity."""
    ys = np.asarray(ys, dtype=float)
    stats = model.lat.sufficient_statistics(ys)
    shifted = model.cat_params + stats @ model.interaction
    psi_posterior = model.cat.log_partition_batch(shifted)
    return (
        stats @ model.base_params
        + psi_posterior
        - mixture_log_partition(model)
        + model.lat.log_base_measure(ys)
    )


def mog_observable_log_density(model: MixtureModel, y: NDArray) -> float:
    """log p(y) = log sum_z pi_z N(y; mu_z, Sigma_z)."""
    return float(mog_log_densities(model, np.asarray(y, dtype=float)[None, :])[0])


def mog_mean_log_likelihood(model: MixtureModel, ys: NDArray) -> float:
    return float(np.mean(mog_log_densities(model, ys)))


def mog_posteriors(model: MixtureModel, ys: NDArray) -> NDArray:
    """Index posteriors p(z | y) for a batch, shape ``(len(ys), k)``."""
    ys = np.asarray(ys, dtype=float)
    stats = model.lat.sufficient_statistics(ys)
    return model.cat.probabilities_batch(model.cat_params + stats @ model.interaction)


def mog_posterior(model: MixtureModel, y: NDArray) -> NDArray:
    return mog_posteriors(model, np.asarray(y, dtype=float)[None, :])[0]


def mog_statistics(lat: MultivariateNormal, ys: NDArray) -> tuple[NDArray, NDArray]:
    """Per-point feature sufficient statistics (N, s_Y) and their mean.

    They are all mixture EM needs from the data, so a run of steps on
    fixed points computes them once (`mog_em_step_from_statistics`).
    """
    stats = lat.sufficient_statistics(ys)
    return stats, stats.mean(axis=0)


def mog_em_step_from_statistics(
    model: MixtureModel, stats: NDArray, mean_stats: NDArray
) -> MixtureModel:
    """One closed-form EM step on `mog_statistics` of the observed features.

    Index posteriors come from the categorical forward mapping at
    ``theta_Z + s_Y(y) . Theta_YZ``; their averages with the fixed
    statistics go to the mixture backward mapping. The training
    log-likelihood is nondecreasing. A component whose weighted
    covariance loses positive-definiteness raises DomainError naming it.
    """
    if len(stats) < model.num_components:
        raise ValueError("need at least as many samples as mixture components")
    posteriors = model.cat.to_mean_batch(model.cat_params + stats @ model.interaction)
    return mixture_backward(
        model.lat,
        mean_stats,
        posteriors.mean(axis=0),
        stats.T @ posteriors / len(stats),
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
    """Ancestral draws ``(features, component indices)``."""
    w = np.clip(mixture_weights(model), 0.0, None)
    zs = rng.choice(model.num_components, size=size, p=w / w.sum()) + 1
    ys = np.empty((size, model.dim))
    for z in range(1, model.num_components + 1):
        mask = zs == z
        hits = int(np.count_nonzero(mask))
        if hits:
            ys[mask] = model.lat.sample(model.component_params(z), hits, rng)
    return ys, zs
