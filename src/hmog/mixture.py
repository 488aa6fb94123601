"""Mixtures of Gaussians as conjugated harmoniums.

A mixture couples a full-covariance Gaussian over the feature variable
with a categorical index: component 1 lives at the base natural
parameters and component ``z > 1`` at the base shifted by column ``z - 2``
of the interaction matrix. Conjugation parameters are exact by
construction, which gives closed-form densities, posteriors, and EM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import logsumexp

from .families import Categorical, DomainError, MultivariateNormal, Structure
from .harmonium import ConjugationParams, Harmonium, em_iteration

__all__ = [
    "MixtureModel",
    "MixturePosterior",
    "mixture_conjugation_parameters",
    "mixture_forward",
    "mixture_backward",
    "mixture_log_partition",
    "mixture_weights",
    "shifted_log_partition",
    "shifted_posteriors",
    "mixture_posterior_stats",
    "mog_observable_log_density",
    "mog_log_densities",
    "mog_mean_log_likelihood",
    "mog_posterior",
    "mog_posteriors",
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
    holds with equality at every index.
    """
    rho0 = model.lat.log_partition(model.base_params)
    rho = np.array(
        [
            model.lat.log_partition(model.component_params(z)) - rho0
            for z in range(2, model.num_components + 1)
        ]
    )
    return ConjugationParams(rho=rho, rho0=rho0)


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
    eta_z = w[1:]
    comp_means = np.stack(
        [model.lat.to_mean(model.component_params(z)) for z in range(1, model.num_components + 1)]
    )
    eta_y = w @ comp_means
    cross = (comp_means[1:] * eta_z[:, None]).T
    return eta_y, eta_z, cross


def mixture_backward(
    lat: MultivariateNormal,
    eta_y: NDArray,
    eta_z: NDArray,
    cross: NDArray,
    jitter: float = 0.0,
) -> MixtureModel:
    """Backward mapping from mean coordinates to a MixtureModel.

    Inverts `mixture_forward`: recovers component weights and
    per-component moments, converts each component back to natural
    parameters, and solves for the categorical parameters through the
    conjugation equation. A component whose covariance loses
    positive-definiteness raises DomainError naming the component; with
    ``jitter > 0`` an additive ``jitter * I`` rescue is attempted first.
    """
    eta_z = np.asarray(eta_z, dtype=float)
    k = len(eta_z) + 1
    w1 = 1.0 - float(np.sum(eta_z))
    if w1 <= 0.0 or np.any(eta_z <= 0.0):
        raise DomainError("degenerate mixture weights in backward mapping")
    comp_means = np.empty((k, lat.param_dim))
    comp_means[0] = (eta_y - cross.sum(axis=1)) / w1
    comp_means[1:] = (cross / eta_z).T

    naturals = np.empty_like(comp_means)
    for idx in range(k):
        mu, second = lat.split_mean(comp_means[idx])
        sigma = second - np.outer(mu, mu)
        try:
            naturals[idx] = lat.from_mean_cov(mu, sigma)
        except DomainError:
            if jitter <= 0.0:
                raise DomainError(
                    f"component {idx + 1} covariance is not positive-definite"
                ) from None
            naturals[idx] = lat.from_mean_cov(mu, sigma + jitter * np.eye(lat.dim))

    base = naturals[0]
    interaction = (naturals[1:] - base).T
    candidate = MixtureModel(
        lat=lat, base_params=base, cat_params=np.zeros(k - 1), interaction=interaction
    )
    conj = mixture_conjugation_parameters(candidate)
    cat_params = candidate.cat.to_natural(eta_z) - conj.rho
    return MixtureModel(
        lat=lat, base_params=base, cat_params=cat_params, interaction=interaction
    )


# ---------------------------------------------------------------------------
# Batched computations against first-order shifts of the base parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixturePosterior:
    """Per-sample mixture expectations under first-order base shifts.

    ``probabilities`` holds the full index posteriors (N, k);
    ``mean_stats`` the expected Gaussian sufficient statistics (N, s_Y);
    ``cross_stats`` the expected ``s_Y (x) s_Z`` blocks (N, s_Y, k - 1);
    ``feature_means`` the plain conditional means E[y | .] (N, m).
    """

    probabilities: NDArray
    mean_stats: NDArray
    cross_stats: NDArray
    feature_means: NDArray


def _component_logits(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Unnormalized per-sample log index weights.

    Row ``i`` holds ``theta_Z . s_Z(z) + psi_Y(theta'_Y(i) + offset_z)``
    for every ``z``, where ``theta'_Y(i)`` is the base with its
    first-order block shifted by ``shifts[i]``. The log-sum-exp over a row
    is the shifted joint log-partition; the softmax is the index
    posterior.
    """
    shifts = np.asarray(shifts, dtype=float)
    count = shifts.shape[0]
    k = model.num_components
    m = model.dim
    logits = np.empty((count, k))
    for z in range(1, k + 1):
        comp = model.component_params(z)
        firsts = comp[:m] + shifts
        _, second = model.lat.split_natural(comp)
        psi = model.lat.log_partition_batch(firsts, second)
        logits[:, z - 1] = psi
        if z > 1:
            logits[:, z - 1] += model.cat_params[z - 2]
    return logits


def shifted_log_partition(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Joint log-partition under per-sample first-order base shifts."""
    return logsumexp(_component_logits(model, shifts), axis=1)


def shifted_posteriors(model: MixtureModel, shifts: NDArray) -> NDArray:
    """Index posteriors (N, k) under per-sample first-order base shifts."""
    logits = _component_logits(model, shifts)
    return np.exp(logits - logsumexp(logits, axis=1)[:, None])


def mixture_posterior_stats(model: MixtureModel, shifts: NDArray) -> MixturePosterior:
    """Per-sample forward mapping under first-order base shifts.

    The second-order block of every component is shift-invariant, so the
    component covariances are factored once and only the means vary across
    samples.
    """
    shifts = np.asarray(shifts, dtype=float)
    count = shifts.shape[0]
    k = model.num_components
    m = model.dim

    probs = shifted_posteriors(model, shifts)

    mean_stats = np.zeros((count, model.lat.param_dim))
    cross = np.zeros((count, model.lat.param_dim, k - 1))
    feature_means = np.zeros((count, m))
    for z in range(1, k + 1):
        comp = model.component_params(z)
        firsts = comp[:m] + shifts
        _, second = model.lat.split_natural(comp)
        means, cov = model.lat.to_mean_batch(firsts, second)
        flats = model.lat.mean_flats(means, cov)
        weight = probs[:, z - 1][:, None]
        mean_stats += weight * flats
        feature_means += weight * means
        if z > 1:
            cross[:, :, z - 2] = weight * flats
    return MixturePosterior(
        probabilities=probs,
        mean_stats=mean_stats,
        cross_stats=cross,
        feature_means=feature_means,
    )


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
    shifted = model.cat_params + stats @ model.interaction
    padded = np.concatenate([np.zeros((len(ys), 1)), shifted], axis=1)
    return np.exp(padded - logsumexp(padded, axis=1)[:, None])


def mog_posterior(model: MixtureModel, y: NDArray) -> NDArray:
    return mog_posteriors(model, np.asarray(y, dtype=float)[None, :])[0]


def mog_em_step(model: MixtureModel, data: NDArray, jitter: float = 0.0) -> MixtureModel:
    """One closed-form EM step on observed features.

    Runs the shared harmonium EM skeleton with the categorical forward
    mapping and the mixture backward mapping; the training log-likelihood
    is nondecreasing. ``jitter`` (off by default) rescues components whose
    weighted covariance loses positive-definiteness.
    """
    data = np.asarray(data, dtype=float)
    if len(data) < model.num_components:
        raise ValueError("need at least as many samples as mixture components")

    def backward(eta_y: NDArray, eta_z: NDArray, cross: NDArray) -> MixtureModel:
        return mixture_backward(model.lat, eta_y, eta_z, cross, jitter=jitter)

    return em_iteration(
        as_harmonium(model),
        data,
        latent_forward=model.cat.to_mean_batch,
        joint_backward=backward,
    )


# ---------------------------------------------------------------------------
# Standard-form bridges and sampling
# ---------------------------------------------------------------------------


def mog_from_standard(
    mix_weights: NDArray, means: NDArray, covariances: NDArray
) -> MixtureModel:
    """Build a mixture from weights, component means, and covariances."""
    mix_weights = np.asarray(mix_weights, dtype=float)
    means = np.asarray(means, dtype=float)
    covariances = np.asarray(covariances, dtype=float)
    k = len(mix_weights)
    if np.any(mix_weights <= 0.0) or abs(float(np.sum(mix_weights)) - 1.0) > 1e-9:
        raise DomainError("mixture weights must be positive and sum to 1")
    lat = MultivariateNormal(means.shape[1], Structure.FULL)
    naturals = np.stack(
        [lat.from_mean_cov(means[idx], covariances[idx]) for idx in range(k)]
    )
    base = naturals[0]
    interaction = (naturals[1:] - base).T
    candidate = MixtureModel(
        lat=lat, base_params=base, cat_params=np.zeros(k - 1), interaction=interaction
    )
    conj = mixture_conjugation_parameters(candidate)
    cat_params = candidate.cat.to_natural(mix_weights[1:]) - conj.rho
    return MixtureModel(
        lat=lat, base_params=base, cat_params=cat_params, interaction=interaction
    )


def mog_to_standard(model: MixtureModel) -> tuple[NDArray, NDArray, NDArray]:
    """Recover ``(weights, means, covariances)`` from a mixture."""
    w = mixture_weights(model)
    means = np.empty((model.num_components, model.dim))
    covs = np.empty((model.num_components, model.dim, model.dim))
    for z in range(1, model.num_components + 1):
        mu, cov = model.lat.to_mean_cov(model.component_params(z))
        means[z - 1] = mu
        covs[z - 1] = cov
    return w, means, covs


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
