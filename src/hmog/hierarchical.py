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
and the EM expectation step all follow from this double reduction. The
forward mapping is the feature prior's forward mapping pushed through the
conditional: `mixture.mixture_forward` of the prior gives the feature and
cluster blocks, and `linear_gaussian.lgm_conditional_forward` maps its
feature moments to the observable blocks.

Each model is prepared once, on first use (`Hmog.prepared`): the feature
prior and the feature posterior mixtures with their stacked component
factors, and the joint log-partition. Every per-point computation is then
one pass of the shifted posterior mixture kernel at the shifts ``x @ W``,
through the `mixture` wrapper that returns only what the caller reads:
log-densities (`shifted_log_partition`), cluster posteriors
(`shifted_posteriors`), projections (`shifted_feature_means`, no second
moments), and the fused log-likelihood plus E-step target
(`mixture_posterior_stats`, in `hmog_posterior_pass`). The kernel streams
over blocks of `mixture.BLOCK_ROWS` rows and adds up its data sums across
blocks in a fixed order; beyond those sums, a pass holds only the (N, m)
shifts and its own per-point outputs, whatever N is. Mean
log-likelihoods take the observable term from the mean statistic, so the
fused pass, stage-2 scoring and `hmog_mean_log_likelihood` agree exactly.
Model blocks must not be mutated in place once the prepared state exists.

The maximization step is exact and closed-form: log p(x, y, z) splits
into log p(x | y) + log p(y, z) over disjoint parameter blocks, so the
expected complete-data log-likelihood is maximized by the structured
linear Gaussian regression for the conditional (factor analysis or PPCA)
and the mixture maximizer for the feature prior, joined by
`assemble_hmog`. One EM iteration makes one fused pass over the data: the
pass of the returned model is handed back in the diagnostics, and the
next iteration takes it as its E-step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .families import Categorical, DomainError, MultivariateNormal, Structure
from .linear_gaussian import (
    LinearGaussianModel,
    _draw_observations,
    lgm_backward,
    lgm_conditional_forward,
    lgm_conjugation_parameters,
)
from .mixture import (
    MixtureModel,
    mixture_backward,
    mixture_forward,
    mixture_log_partition,
    mixture_posterior_stats,
    mog_sample,
    shifted_feature_means,
    shifted_log_partition,
    shifted_posteriors,
)

__all__ = [
    "Hmog",
    "PreparedHmog",
    "PosteriorPass",
    "HmogEmDiagnostics",
    "hmog_log_partition",
    "hmog_joint_log_density",
    "hmog_log_densities",
    "hmog_mean_log_likelihood_from_terms",
    "hmog_mean_log_likelihood",
    "hmog_forward",
    "hmog_posterior_pass",
    "hmog_posterior_stats",
    "hmog_em_iteration",
    "hmog_project_batch",
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

    The blocks must not be mutated in place: `prepared` caches state
    derived from them. `dataclasses.replace` gives a fresh instance with
    its own prepared state.
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

    @functools.cached_property
    def prepared(self) -> "PreparedHmog":
        """Conjugation state shared by every computation, built on first use."""
        return _prepare(self)


@dataclass(frozen=True)
class PreparedHmog:
    """What double conjugation derives from a model, computed once.

    ``prior`` is the feature prior p(y, z); ``posterior`` the mixture
    whose base, shifted in its first-order block by ``x @ W``, gives the
    feature posterior p(y, z | x); both carry their stacked component
    factors (`MixtureModel.prepared`). ``log_partition`` is the joint
    log-partition ``psi_Z(theta_Z + rho*) + rho1* + rho0``.
    """

    prior: MixtureModel
    posterior: MixtureModel
    log_partition: float


@dataclass(frozen=True)
class PosteriorPass:
    """The fused pass of one model over one dataset.

    ``mean_log_likelihood`` is the mean observable log-density and
    ``target`` the E-step target ``(eta_obs, eta_lat, eta_cat, cross_xy,
    cross_yz)``, the blocks `hmog_forward` returns; one kernel pass yields
    both.
    """

    mean_log_likelihood: float
    target: tuple[NDArray, NDArray, NDArray, NDArray, NDArray]


@dataclass(frozen=True)
class HmogEmDiagnostics:
    """Per-iteration EM bookkeeping.

    ``m_step_discarded`` marks iterations whose exact maximizer was
    dropped because float rounding made it score below the current model
    on the training data; the model is left unchanged for such an
    iteration. ``posterior_pass`` is the fused pass of the returned model
    on the training data, ready to be the next iteration's E-step.
    """

    log_likelihood_before: float
    log_likelihood_after: float
    m_step_discarded: bool = False
    posterior_pass: PosteriorPass | None = None


# ---------------------------------------------------------------------------
# Conjugation plumbing
# ---------------------------------------------------------------------------


def _likelihood_lgm(h: Hmog) -> LinearGaussianModel:
    """The embedded linear Gaussian model."""
    return LinearGaussianModel(
        obs=h.obs,
        lat=h.lat,
        obs_params=h.obs_params,
        lat_params=h.lat_params,
        interaction=h.obs_interaction,
    )


def _check_finite(h: Hmog) -> None:
    """Raise DomainError naming every parameter block with a non-finite entry."""
    n = h.obs.dim
    blocks = {
        "theta_x_mu": h.obs_params[:n],
        "theta_xx": h.obs_params[n:],
        "theta_y": h.lat_params,
        "theta_z": h.cat_params,
        "theta_xy": h.obs_interaction,
        "theta_yz": h.lat_interaction,
    }
    bad = [name for name, block in blocks.items() if not np.all(np.isfinite(block))]
    if bad:
        raise DomainError(f"non-finite parameters in {', '.join(bad)}")


def _prepare(h: Hmog) -> PreparedHmog:
    """Double conjugation, with every component factored once.

    Raises DomainError naming a non-finite block, a non-negative
    observable second-order block, or a feature-prior component whose
    precision (the joint feature-block Schur complement) is not
    positive-definite; posterior precisions add a positive semi-definite
    term to those, so they are then valid as well.
    """
    _check_finite(h)
    try:
        conj = lgm_conjugation_parameters(_likelihood_lgm(h))
    except DomainError as exc:
        raise DomainError(f"theta_xx: {exc}") from None
    prior = MixtureModel(
        lat=h.lat,
        base_params=h.lat_params + conj.rho,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )
    try:
        log_partition = mixture_log_partition(prior) + conj.rho0
    except DomainError as exc:
        raise DomainError(f"feature prior {exc}") from None
    posterior = MixtureModel(
        lat=h.lat,
        base_params=h.lat_params,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )
    posterior.prepared  # factor now, so failures surface here
    return PreparedHmog(prior=prior, posterior=posterior, log_partition=log_partition)


def hmog_log_partition(h: Hmog) -> float:
    """Joint log-partition via double conjugation (read from `Hmog.prepared`).

    The Gaussian conjugation shifts the feature block, after which the
    mixture conjugation reduces everything to a categorical log-partition:
    ``psi_Z(theta_Z + rho*) + rho1* + rho0``.
    """
    return h.prepared.log_partition


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

    Stage one shifts the feature-posterior mixture by each observation and
    evaluates its log-partition; stage two subtracts the (constant) joint
    log-partition obtained by double conjugation.
    """
    xs = np.asarray(xs, dtype=float)
    observed = h.obs.dot_statistics(h.obs_params, xs) + h.obs.log_base_measure(xs)
    posterior_psi = shifted_log_partition(h.prepared.posterior, xs @ h.obs_interaction)
    return observed + posterior_psi - h.prepared.log_partition


def _mean_log_likelihood(h: Hmog, eta_obs: NDArray, posterior_psi: NDArray) -> float:
    # The observable exponent is linear in s_X(x), so its data mean is the
    # mean statistic's exponent; the Gaussian base measure is constant.
    observed = eta_obs @ h.obs_params + h.obs.log_base_measure(eta_obs)
    return float(observed + np.mean(posterior_psi) - h.prepared.log_partition)


def hmog_mean_log_likelihood_from_terms(
    h: Hmog, shifts: NDArray, eta_obs: NDArray
) -> float:
    """Mean log-likelihood from the feature shifts ``x @ W`` and mean statistic.

    ``shifts`` are the first-order feature shifts of the data under p(x | y)
    and ``eta_obs`` its mean observable statistic. Neither depends on the
    feature prior, so they stay fixed while only the prior changes, as in
    stage 2 of two-stage training.
    """
    posterior_psi = shifted_log_partition(h.prepared.posterior, shifts)
    return _mean_log_likelihood(h, eta_obs, posterior_psi)


def hmog_mean_log_likelihood(h: Hmog, xs: NDArray) -> float:
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("the mean log-likelihood needs a nonempty dataset")
    return hmog_mean_log_likelihood_from_terms(
        h, xs @ h.obs_interaction, h.obs.mean_statistics(xs)
    )


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

    The feature prior's forward mapping gives the feature, cluster and
    feature-cluster blocks; the conditional p(x | y) maps its feature
    moments to the observation and observation-feature blocks.

    Returns ``(eta_obs, eta_lat, eta_cat, cross_xy, cross_yz)``.
    """
    eta_lat, eta_cat, cross_yz = mixture_forward(h.prepared.prior)
    eta_obs, cross_xy = lgm_conditional_forward(_likelihood_lgm(h), eta_lat)
    return eta_obs, eta_lat, eta_cat, cross_xy, cross_yz


def hmog_posterior_pass(h: Hmog, xs: NDArray) -> PosteriorPass:
    """Mean log-likelihood and E-step target from one kernel pass.

    Per sample, the feature-cluster posterior is the posterior mixture
    shifted by the observation. The kernel returns its log-partition (for
    the log-likelihood), the posterior feature means (whose outer products
    with the observations fill the feature-observation block), and the
    data-summed feature statistics per component (the feature and
    feature-cluster blocks).
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("the posterior pass needs a nonempty dataset")
    return _posterior_pass(h, xs, h.obs.mean_statistics(xs))


def _posterior_pass(h: Hmog, xs: NDArray, eta_obs: NDArray) -> PosteriorPass:
    """`hmog_posterior_pass` given the mean observable statistic of ``xs``."""
    count = len(xs)
    post = mixture_posterior_stats(h.prepared.posterior, xs @ h.obs_interaction)
    stats = post.component_stats / count
    target = (
        eta_obs,
        stats.sum(axis=0),
        post.weights[1:] / count,
        xs.T @ post.feature_means / count,
        stats[1:].T,
    )
    return PosteriorPass(_mean_log_likelihood(h, eta_obs, post.log_partition), target)


def hmog_posterior_stats(h: Hmog, xs: NDArray) -> NDArray:
    """Expectation-step target: data-averaged joint sufficient statistics.

    Returned flat in the `pack_means` layout.
    """
    return pack_means(*hmog_posterior_pass(h, xs).target)


def hmog_em_iteration(
    h: Hmog, xs: NDArray, *, posterior_pass: PosteriorPass | None = None
) -> tuple[Hmog, HmogEmDiagnostics]:
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

    ``posterior_pass``, when given, must be `hmog_posterior_pass` of ``h``
    on ``xs`` (as returned in the previous iteration's diagnostics); it
    saves recomputing it. The candidate is scored by the same pass that
    yields its statistics, so one iteration makes one pass over the data.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("EM requires a nonempty dataset")
    before = posterior_pass if posterior_pass is not None else hmog_posterior_pass(h, xs)
    eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = before.target
    lgm = lgm_backward(h.obs, h.lat, eta_obs, eta_lat, cross_xy)
    mog = mixture_backward(h.lat, eta_lat, eta_cat, cross_yz)
    updated = assemble_hmog(lgm, mog)
    # The mean observable statistic is a property of the data alone.
    after = _posterior_pass(updated, xs, eta_obs)
    discarded = after.mean_log_likelihood < before.mean_log_likelihood
    if discarded:
        updated, after = h, before
    return updated, HmogEmDiagnostics(
        log_likelihood_before=before.mean_log_likelihood,
        log_likelihood_after=after.mean_log_likelihood,
        m_step_discarded=discarded,
        posterior_pass=after,
    )


# ---------------------------------------------------------------------------
# Projection and classification
# ---------------------------------------------------------------------------


def hmog_project_batch(h: Hmog, xs: NDArray) -> NDArray:
    """Posterior feature means E[Y | X = x], cluster index marginalized out."""
    shifts = np.asarray(xs, dtype=float) @ h.obs_interaction
    return shifted_feature_means(h.prepared.posterior, shifts)


def hmog_classify_batch(h: Hmog, xs: NDArray) -> NDArray:
    """Cluster posteriors p(z | x), features marginalized out; rows sum to 1."""
    shifts = np.asarray(xs, dtype=float) @ h.obs_interaction
    return shifted_posteriors(h.prepared.posterior, shifts)


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
    mog = h.prepared.prior
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
    ys, zs = mog_sample(h.prepared.prior, size, rng)
    return _draw_observations(_likelihood_lgm(h), ys, rng), ys, zs
