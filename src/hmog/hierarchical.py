"""Hierarchical mixtures of Gaussians.

The three-layer model p(x, y, z) = p(x | y) p(y, z) combines a linear
Gaussian likelihood over observations with a Gaussian-mixture prior over
features and cluster indices. Observations and cluster indices are
conditionally independent given features: there is no direct x-z
parameter block.

Everything reduces to two conjugation computations: the likelihood's
Gaussian conjugation parameters turn the joint log-partition into a
mixture log-partition, and the mixture's own conjugation parameters turn
that into a categorical one. Densities, posteriors, the forward mapping,
and the EM expectation step all follow from this double reduction.

The maximization step is exact and closed-form: log p(x, y, z) splits
into log p(x | y) + log p(y, z) over disjoint parameter blocks, so the
expected complete-data log-likelihood is maximized by the structured
linear Gaussian regression for the conditional (factor analysis or PPCA)
and the mixture maximizer for the feature prior, joined by
`assemble_hmog`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .families import Categorical, MultivariateNormal, Structure
from .linear_gaussian import (
    LinearGaussianModel,
    lgm_backward,
    lgm_conjugation_parameters,
    lgm_forward,
)
from .mixture import (
    MixtureModel,
    mixture_backward,
    mixture_conjugation_parameters,
    mixture_log_partition,
    mixture_posterior_stats,
    mog_sample,
    shifted_log_partition,
    shifted_posteriors,
)

__all__ = [
    "Hmog",
    "HmogEmDiagnostics",
    "hmog_log_partition",
    "hmog_joint_log_density",
    "hmog_observable_log_density",
    "hmog_log_densities",
    "hmog_mean_log_likelihood",
    "hmog_forward",
    "hmog_posterior_stats",
    "hmog_em_iteration",
    "hmog_project",
    "hmog_project_batch",
    "hmog_classify",
    "hmog_classify_batch",
    "assemble_hmog",
    "disassemble_hmog",
    "hmog_sample",
    "pack_params",
    "unpack_params",
    "pack_means",
    "block_slices",
    "valid_blocks",
]


@dataclass(frozen=True)
class Hmog:
    """Natural parameters of a hierarchical mixture of Gaussians.

    ``obs_interaction`` is the ``n x m`` first-order coupling between
    observations and features; ``lat_interaction`` holds the component
    offsets of the feature mixture in feature sufficient-statistic space.
    The observable structure is isotropic (PCA-style) or diagonal
    (factor-analysis-style).
    """

    obs: MultivariateNormal
    lat: MultivariateNormal
    obs_params: NDArray
    lat_params: NDArray
    cat_params: NDArray
    obs_interaction: NDArray
    lat_interaction: NDArray

    def __post_init__(self) -> None:
        if self.obs.structure is Structure.FULL:
            raise ValueError("observable structure must be isotropic or diagonal")
        if self.lat.structure is not Structure.FULL:
            raise ValueError("feature family must have full covariance structure")
        if self.obs_interaction.shape != (self.obs.dim, self.lat.dim):
            raise ValueError("obs_interaction must be (obs dim) x (feature dim)")
        if self.lat_interaction.shape != (self.lat.param_dim, len(self.cat_params)):
            raise ValueError(
                "lat_interaction must be (feature param dim) x (clusters - 1)"
            )

    @property
    def obs_dim(self) -> int:
        return self.obs.dim

    @property
    def lat_dim(self) -> int:
        return self.lat.dim

    @property
    def num_clusters(self) -> int:
        return len(self.cat_params) + 1

    @property
    def cat(self) -> Categorical:
        return Categorical(self.num_clusters)


@dataclass(frozen=True)
class HmogEmDiagnostics:
    """Per-iteration EM bookkeeping.

    ``m_step_discarded`` marks iterations whose exact maximizer was
    dropped because float rounding made it score below the current model
    on the training data; the model is left unchanged for such an
    iteration.
    """

    log_likelihood_before: float
    log_likelihood_after: float
    m_step_discarded: bool = False


# ---------------------------------------------------------------------------
# Conjugation plumbing
# ---------------------------------------------------------------------------


def _likelihood_lgm(h: Hmog, component: int | None = None) -> LinearGaussianModel:
    """The embedded linear Gaussian model, optionally shifted to a component."""
    lat_params = h.lat_params
    if component is not None and component > 1:
        lat_params = lat_params + h.lat_interaction[:, component - 2]
    return LinearGaussianModel(
        obs=h.obs,
        lat=h.lat,
        obs_params=h.obs_params,
        lat_params=lat_params,
        interaction=h.obs_interaction,
    )


def _posterior_mixture(h: Hmog) -> MixtureModel:
    """Mixture whose first-order shifts give the feature posterior p(y, z | x)."""
    return MixtureModel(
        lat=h.lat,
        base_params=h.lat_params,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )


def _prior_mixture(h: Hmog) -> MixtureModel:
    """The feature prior p(y, z): base shifted by the Gaussian conjugation."""
    conj = lgm_conjugation_parameters(_likelihood_lgm(h))
    return MixtureModel(
        lat=h.lat,
        base_params=h.lat_params + conj.rho,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )


def hmog_log_partition(h: Hmog) -> float:
    """Joint log-partition via double conjugation.

    The Gaussian conjugation shifts the feature block, after which the
    mixture conjugation reduces everything to a categorical log-partition:
    ``psi_Z(theta_Z + rho*) + rho1* + rho0``.
    """
    conj = lgm_conjugation_parameters(_likelihood_lgm(h))
    prior = MixtureModel(
        lat=h.lat,
        base_params=h.lat_params + conj.rho,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )
    return mixture_log_partition(prior) + conj.rho0


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def hmog_joint_log_density(h: Hmog, x: NDArray, y: NDArray, z: int) -> float:
    """log p(x, y, z): the bilinear exponent minus the joint log-partition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx = h.obs.sufficient_statistic(x)
    sy = h.lat.sufficient_statistic(y)
    sz = h.cat.sufficient_statistic(z)
    return (
        float(sx @ h.obs_params)
        + float(sy @ h.lat_params)
        + float(sz @ h.cat_params)
        + float(x @ h.obs_interaction @ y)
        + float(sy @ h.lat_interaction @ sz)
        - hmog_log_partition(h)
        + h.obs.log_base_measure(x)
        + h.lat.log_base_measure(y)
    )


def hmog_log_densities(h: Hmog, xs: NDArray) -> NDArray:
    """Observable log-density at a batch of points.

    Stage one shifts the feature-mixture base by each observation and
    evaluates the shifted mixture log-partition; stage two subtracts the
    (constant) joint log-partition obtained by double conjugation.
    """
    xs = np.asarray(xs, dtype=float)
    stats = h.obs.sufficient_statistics(xs)
    shifts = xs @ h.obs_interaction
    posterior_psi = shifted_log_partition(_posterior_mixture(h), shifts)
    return (
        stats @ h.obs_params
        + posterior_psi
        - hmog_log_partition(h)
        + h.obs.log_base_measure(xs)
    )


def hmog_observable_log_density(h: Hmog, x: NDArray) -> float:
    return float(hmog_log_densities(h, np.asarray(x, dtype=float)[None, :])[0])


def hmog_mean_log_likelihood(h: Hmog, xs: NDArray) -> float:
    return float(np.mean(hmog_log_densities(h, xs)))


# ---------------------------------------------------------------------------
# Parameter packing
# ---------------------------------------------------------------------------


def block_slices(h: Hmog) -> dict[str, slice]:
    """Slices of the flat parameter vector, one per natural-parameter block."""
    n = h.obs.dim
    sizes = {
        "obs_first": n,
        "obs_second": h.obs.param_dim - n,
        "lat_first": h.lat.dim,
        "lat_second": h.lat.param_dim - h.lat.dim,
        "cat": len(h.cat_params),
        "obs_interaction": h.obs_interaction.size,
        "lat_interaction": h.lat_interaction.size,
    }
    slices = {}
    start = 0
    for name, size in sizes.items():
        slices[name] = slice(start, start + size)
        start += size
    return slices


def pack_params(h: Hmog) -> NDArray:
    """Flatten all free natural parameters into one vector."""
    return np.concatenate(
        [
            h.obs_params,
            h.lat_params,
            h.cat_params,
            h.obs_interaction.ravel(),
            h.lat_interaction.ravel(),
        ]
    )


def unpack_params(template: Hmog, flat: NDArray) -> Hmog:
    """Rebuild a model from a flat vector, using ``template`` for shapes."""
    flat = np.asarray(flat, dtype=float)
    slices = block_slices(template)
    obs_params = flat[: slices["lat_first"].start]
    lat_params = flat[slices["lat_first"].start : slices["cat"].start]
    cat_params = flat[slices["cat"]]
    obs_int = flat[slices["obs_interaction"]].reshape(template.obs_interaction.shape)
    lat_int = flat[slices["lat_interaction"]].reshape(template.lat_interaction.shape)
    return Hmog(
        obs=template.obs,
        lat=template.lat,
        obs_params=obs_params,
        lat_params=lat_params,
        cat_params=cat_params,
        obs_interaction=obs_int,
        lat_interaction=lat_int,
    )


def pack_means(
    eta_obs: NDArray,
    eta_lat: NDArray,
    eta_cat: NDArray,
    cross_xy: NDArray,
    cross_yz: NDArray,
) -> NDArray:
    """Flatten mean-coordinate blocks in the `pack_params` layout."""
    return np.concatenate(
        [eta_obs, eta_lat, eta_cat, cross_xy.ravel(), cross_yz.ravel()]
    )


def valid_blocks(h: Hmog) -> list[str]:
    """Names of parameter blocks violating the model domain (empty if valid).

    Deprecated: the exact M-step no longer needs a domain guard, and
    nothing in the package calls this; it is kept for existing callers.

    The model is valid when the observable second-order block is negative
    (per structure) and every component's joint precision has a
    positive-definite feature-block Schur complement; the latter also
    guarantees validity of every shifted feature parameter the density and
    forward computations touch.
    """
    slices = block_slices(h)
    flat = pack_params(h)
    bad = [name for name, sl in slices.items() if not np.all(np.isfinite(flat[sl]))]
    if bad:
        return bad

    n = h.obs.dim
    diag = -2.0 * h.obs_params[n:]
    if np.any(diag <= 0.0):
        return ["obs_second"]
    if h.obs.structure is Structure.ISOTROPIC:
        diag = np.full(n, diag[0])
    a_inv_w = h.obs_interaction / diag[:, None]
    quad = h.obs_interaction.T @ a_inv_w

    violations = []
    _, lat_second = h.lat.split_natural(h.lat_params)
    for z in range(1, h.num_clusters + 1):
        second = lat_second
        if z > 1:
            _, offset = h.lat.split_natural(h.lat_interaction[:, z - 2])
            second = second + offset
        schur = -2.0 * second - quad
        try:
            np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            violations.append("lat_second" if z == 1 else "lat_interaction")
    return sorted(set(violations))


# ---------------------------------------------------------------------------
# Forward mapping and EM
# ---------------------------------------------------------------------------


def hmog_forward(
    h: Hmog,
) -> tuple[NDArray, NDArray, NDArray, NDArray, NDArray]:
    """Forward mapping to mean coordinates.

    Component weights come from the categorical forward at the doubly
    conjugated parameters; each component contributes its joint Gaussian
    expectations, and the feature-cluster cross block stacks the weighted
    per-component feature statistics.

    Returns ``(eta_obs, eta_lat, eta_cat, cross_xy, cross_yz)``.
    """
    prior = _prior_mixture(h)
    conj = mixture_conjugation_parameters(prior)
    w = h.cat.probabilities(h.cat_params + conj.rho)

    eta_obs = np.zeros(h.obs.param_dim)
    eta_lat = np.zeros(h.lat.param_dim)
    cross_xy = np.zeros((h.obs.dim, h.lat.dim))
    cross_yz = np.zeros_like(h.lat_interaction)
    for z in range(1, h.num_clusters + 1):
        ex, ey, cxy = lgm_forward(_likelihood_lgm(h, component=z))
        eta_obs += w[z - 1] * ex
        eta_lat += w[z - 1] * ey
        cross_xy += w[z - 1] * cxy
        if z > 1:
            cross_yz[:, z - 2] = w[z - 1] * ey
    return eta_obs, eta_lat, w[1:], cross_xy, cross_yz


def hmog_posterior_stats(h: Hmog, xs: NDArray) -> NDArray:
    """Expectation-step target: data-averaged joint sufficient statistics.

    Per sample, the feature-cluster posterior is the base mixture shifted
    by the observation; its forward mapping supplies the latent
    expectations, and outer products with the observation fill the
    interaction blocks. Returned flat in the `pack_means` layout.
    """
    xs = np.asarray(xs, dtype=float)
    count = len(xs)
    stats = h.obs.sufficient_statistics(xs)
    shifts = xs @ h.obs_interaction
    post = mixture_posterior_stats(_posterior_mixture(h), shifts)
    eta_obs = stats.mean(axis=0)
    eta_lat = post.mean_stats.mean(axis=0)
    eta_cat = post.probabilities[:, 1:].mean(axis=0)
    cross_xy = xs.T @ post.feature_means / count
    cross_yz = post.cross_stats.mean(axis=0)
    return pack_means(eta_obs, eta_lat, eta_cat, cross_xy, cross_yz)


def _split_means(h: Hmog, flat: NDArray) -> tuple[NDArray, ...]:
    """Inverse of `pack_means` for the block shapes of ``h``."""
    sizes = [h.obs.param_dim, h.lat.param_dim, len(h.cat_params), h.obs_interaction.size]
    eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = np.split(flat, np.cumsum(sizes))
    return (
        eta_obs,
        eta_lat,
        eta_cat,
        cross_xy.reshape(h.obs_interaction.shape),
        cross_yz.reshape(h.lat_interaction.shape),
    )


def hmog_em_iteration(h: Hmog, xs: NDArray) -> tuple[Hmog, HmogEmDiagnostics]:
    """One EM iteration: closed-form E-step, exact closed-form M-step.

    The complete-data log-likelihood splits into log p(x | y) and
    log p(y, z), which share no parameters, so the maximizer is the
    structured linear Gaussian backward mapping on the observation and
    feature-observation blocks of the E-step target, assembled with the
    mixture backward mapping on its feature and feature-cluster blocks.
    The forward mapping of the result reproduces the target. A maximizer
    that float rounding scores below the current model is discarded and
    the model left unchanged (flagged in diagnostics), so trajectories
    never decrease. A degenerate target (a collapsed component or a
    non-positive noise variance) raises DomainError.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("EM requires a nonempty dataset")
    ll_before = hmog_mean_log_likelihood(h, xs)
    eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = _split_means(
        h, hmog_posterior_stats(h, xs)
    )
    lgm = lgm_backward(h.obs, h.lat, eta_obs, eta_lat, cross_xy)
    mog = mixture_backward(h.lat, eta_lat, eta_cat, cross_yz)
    updated = assemble_hmog(lgm, mog)
    ll_after = hmog_mean_log_likelihood(updated, xs)
    discarded = ll_after < ll_before
    if discarded:
        updated = h
        ll_after = ll_before
    return updated, HmogEmDiagnostics(
        log_likelihood_before=ll_before,
        log_likelihood_after=ll_after,
        m_step_discarded=discarded,
    )


# ---------------------------------------------------------------------------
# Projection and classification
# ---------------------------------------------------------------------------


def hmog_project_batch(h: Hmog, xs: NDArray) -> NDArray:
    """Posterior feature means E[Y | X = x], cluster index marginalized out."""
    xs = np.asarray(xs, dtype=float)
    shifts = xs @ h.obs_interaction
    post = mixture_posterior_stats(_posterior_mixture(h), shifts)
    return post.feature_means


def hmog_project(h: Hmog, x: NDArray) -> NDArray:
    return hmog_project_batch(h, np.asarray(x, dtype=float)[None, :])[0]


def hmog_classify_batch(h: Hmog, xs: NDArray) -> NDArray:
    """Cluster posteriors p(z | x), features marginalized out; rows sum to 1."""
    xs = np.asarray(xs, dtype=float)
    return shifted_posteriors(_posterior_mixture(h), xs @ h.obs_interaction)


def hmog_classify(h: Hmog, x: NDArray) -> NDArray:
    return hmog_classify_batch(h, np.asarray(x, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# Assembly and sampling
# ---------------------------------------------------------------------------


def assemble_hmog(lgm: LinearGaussianModel, mog: MixtureModel) -> Hmog:
    """Swap the likelihood's feature prior for a mixture.

    The result satisfies p(x, y, z) = p(x | y) p(y, z) with the
    conditional taken from ``lgm`` and the feature prior from ``mog``: the
    likelihood's own prior contribution is removed through its conjugation
    parameters, so the conditional is preserved exactly.
    """
    if lgm.lat.dim != mog.dim:
        raise ValueError(
            f"feature dimensions disagree: likelihood {lgm.lat.dim}, mixture {mog.dim}"
        )
    conj = lgm_conjugation_parameters(lgm)
    return Hmog(
        obs=lgm.obs,
        lat=mog.lat,
        obs_params=lgm.obs_params.copy(),
        lat_params=mog.base_params - conj.rho,
        cat_params=mog.cat_params.copy(),
        obs_interaction=lgm.interaction.copy(),
        lat_interaction=mog.interaction.copy(),
    )


def disassemble_hmog(h: Hmog) -> tuple[LinearGaussianModel, MixtureModel]:
    """Split into the conditional's linear Gaussian model and the feature prior.

    The conditional p(x | y) does not determine a feature prior, so the
    returned linear Gaussian model carries the standard-normal prior;
    `assemble_hmog` of the result reproduces the input exactly.
    """
    mog = _prior_mixture(h)
    lgm = LinearGaussianModel(
        obs=h.obs,
        lat=h.lat,
        obs_params=h.obs_params.copy(),
        lat_params=h.lat.from_mean_cov(np.zeros(h.lat.dim), np.eye(h.lat.dim)),
        interaction=h.obs_interaction.copy(),
    )
    return lgm, mog


def hmog_sample(
    h: Hmog, size: int, rng: np.random.Generator
) -> tuple[NDArray, NDArray, NDArray]:
    """Ancestral draws ``(observations, features, cluster indices)``."""
    ys, zs = mog_sample(_prior_mixture(h), size, rng)
    first, solve, _, covariance = h.obs._scale(
        h.obs_params, "observable natural parameters"
    )
    means = solve(first[:, None] + h.obs_interaction @ ys.T).T
    noise = rng.standard_normal((size, h.obs.dim))
    xs = means + noise * np.sqrt(covariance())
    return xs, ys, zs
