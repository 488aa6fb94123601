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

Each model is prepared once (`Hmog.prepared`): the feature prior and the
feature posterior mixtures with their stacked component factors, and the
joint log-partition. `assemble_hmog` builds it from what its parts hold,
any other model on first use, and one likelihood model (`Hmog._likelihood`)
holds its observable factor. Every per-point computation checks its points
and forms the shifts ``x @ W`` in `_shifts`, then makes one pass of the
shifted posterior mixture kernel, through the `mixture` wrapper that
returns only what the caller reads:
log-densities (`shifted_log_partition`), cluster posteriors
(`shifted_posteriors`), projections (`shifted_feature_means`, no second
moments), and the fused log-likelihood plus E-step target
(`mixture_posterior_stats`, in `hmog_posterior_pass`, one `harmonium.EStep`).
The kernel streams over blocks of `mixture.BLOCK_ROWS` rows and adds up its
data sums across blocks in a fixed order; beyond those sums, a pass holds
only the (N, m) shifts and its own per-point outputs, whatever N is. Mean
log-likelihoods take the observable term from the mean statistic, so the
fused pass, stage-2 scoring and `hmog_mean_log_likelihood` agree exactly.
Model blocks are read-only copies, so prepared state never goes stale.

The six natural-parameter blocks are named once, in `BLOCK_NAMES`;
`block_shapes` gives their shapes and `hmog_blocks` a model's blocks:
the model's own shape check, the finiteness check, the flat packing and
the model JSON all go through the two.

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
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .families import (
    Categorical,
    DomainError,
    MultivariateNormal,
    Structure,
    _check_shapes,
    _freeze,
)
from .harmonium import ConjugationParams, EStep
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
    "block_shapes",
    "hmog_blocks",
    "hmog_from_blocks",
    "pack_params",
    "unpack_params",
    "pack_means",
    "block_slices",
    "valid_blocks",
]

# The six natural-parameter blocks of a model by their JSON names, in flat order.
BLOCK_NAMES = ("theta_x_mu", "theta_xx", "theta_y", "theta_z", "theta_xy", "theta_yz")


@dataclass(frozen=True)
class Hmog:
    """Natural parameters of a hierarchical mixture of Gaussians.

    ``obs_interaction`` is the ``n x m`` first-order coupling between
    observations and features; ``lat_interaction`` holds the component
    offsets of the feature mixture in feature sufficient-statistic space.
    The observable structure is isotropic (PCA-style) or diagonal
    (factor-analysis-style).

    The six natural-parameter blocks are named in `BLOCK_NAMES`, and a
    block of the wrong shape raises ValueError naming it. The blocks are
    read-only, because `prepared` caches state derived from them.
    `dataclasses.replace` gives a fresh instance with its own prepared
    state.
    """

    obs: MultivariateNormal
    lat: MultivariateNormal
    obs_params: NDArray
    lat_params: NDArray
    cat_params: NDArray
    obs_interaction: NDArray
    lat_interaction: NDArray

    def __post_init__(self) -> None:
        _freeze(self, "obs_params", "lat_params", "cat_params", "obs_interaction",
                "lat_interaction")
        if self.obs.structure is Structure.FULL:
            raise ValueError("observable structure must be isotropic or diagonal")
        if self.lat.structure is not Structure.FULL:
            raise ValueError("feature family must have full covariance structure")
        _check_shapes(
            hmog_blocks(self), block_shapes(self.obs, self.lat, self.num_clusters)
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
    def _likelihood(self) -> LinearGaussianModel:
        """The linear Gaussian model of p(x | y) embedded in this one, built once."""
        return LinearGaussianModel(
            self.obs, self.lat, self.obs_params, self.lat_params, self.obs_interaction
        )

    @functools.cached_property
    def prepared(self) -> "PreparedHmog":
        """Conjugation state shared by every computation, seeded or built on first use."""
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
    posterior_pass: EStep | None = None


# ---------------------------------------------------------------------------
# Conjugation plumbing
# ---------------------------------------------------------------------------


def _shifts(h: Hmog, xs: NDArray) -> tuple[NDArray, NDArray]:
    """The points, checked, and their feature shifts ``x @ W``: the one check per call."""
    xs = h.obs._points(xs)
    return xs, xs @ h.obs_interaction


def _check_finite(h: Hmog) -> None:
    """Raise DomainError naming every parameter block with a non-finite entry."""
    blocks = hmog_blocks(h)
    if not all(np.isfinite(block).all() for block in blocks.values()):
        bad = [name for name, block in blocks.items() if not np.isfinite(block).all()]
        raise DomainError(f"non-finite parameters in {', '.join(bad)}")


def _prepare(h: Hmog) -> PreparedHmog:
    """Double conjugation of a model from its parameters alone.

    Raises DomainError naming a non-finite block, a non-negative
    observable second-order block, or a feature-prior component whose
    precision (the joint feature-block Schur complement) is not
    positive-definite; posterior precisions add a positive semi-definite
    term to those, so they are then valid as well.
    """
    _check_finite(h)
    conj = _likelihood_conjugation(h._likelihood)
    prior = MixtureModel(
        lat=h.lat,
        base_params=h.lat_params + conj.rho,
        cat_params=h.cat_params,
        interaction=h.lat_interaction,
    )
    return _prepared_hmog(h, prior, conj.rho0)


def _likelihood_conjugation(lgm: LinearGaussianModel) -> ConjugationParams:
    """The likelihood's conjugation parameters; a DomainError names ``theta_xx``."""
    try:
        return lgm_conjugation_parameters(lgm)
    except DomainError as exc:
        raise DomainError(f"theta_xx: {exc}") from None


def _prepared_hmog(h: Hmog, prior: MixtureModel, rho0: float) -> PreparedHmog:
    """The state of ``h`` from its feature prior and likelihood ``rho0``."""
    try:
        log_partition = mixture_log_partition(prior) + rho0
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
    xs, shifts = _shifts(h, xs)
    observed = h.obs._dot_checked(h.obs_params, xs) + h.obs.log_base_measure(xs)
    posterior_psi = shifted_log_partition(h.prepared.posterior, shifts)
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
    eta_obs = h.obs._vectors(eta_obs, h.obs.param_dim, "mean observable statistic")
    posterior_psi = shifted_log_partition(h.prepared.posterior, shifts)
    return _mean_log_likelihood(h, eta_obs, posterior_psi)


def hmog_mean_log_likelihood(h: Hmog, xs: NDArray) -> float:
    xs, shifts = _shifts(h, xs)
    if len(xs) == 0:
        raise ValueError("the mean log-likelihood needs a nonempty dataset")
    return hmog_mean_log_likelihood_from_terms(h, shifts, h.obs._mean_checked(xs))


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


def block_shapes(
    obs: MultivariateNormal, lat: MultivariateNormal, clusters: int
) -> dict[str, tuple[int, ...]]:
    """The shapes of the `BLOCK_NAMES` blocks of a model with these dimensions."""
    m, p, k = lat.dim, lat.param_dim, clusters - 1
    shapes = ((obs.dim,), (obs.second_dim,), (p,), (k,), (obs.dim, m), (p, k))
    return dict(zip(BLOCK_NAMES, shapes))


def hmog_blocks(h: Hmog) -> dict[str, NDArray]:
    """The blocks of ``h`` by their `BLOCK_NAMES`."""
    n = h.obs.dim
    blocks = (h.obs_params[:n], h.obs_params[n:], h.lat_params, h.cat_params,
              h.obs_interaction, h.lat_interaction)
    return dict(zip(BLOCK_NAMES, blocks))


def hmog_from_blocks(
    obs: MultivariateNormal, lat: MultivariateNormal, blocks: dict[str, NDArray]
) -> Hmog:
    """The model whose `hmog_blocks` are ``blocks``, given in `BLOCK_NAMES` order."""
    x_mu, xx, *rest = blocks.values()
    return Hmog(obs, lat, np.concatenate([x_mu, xx]), *rest)


def pack_params(h: Hmog) -> NDArray:
    """Flatten all free natural parameters into one vector, block by block."""
    return np.concatenate([block.ravel() for block in hmog_blocks(h).values()])


def unpack_params(template: Hmog, flat: NDArray) -> Hmog:
    """Rebuild a model from a flat vector, using ``template`` for shapes."""
    flat = np.asarray(flat, dtype=float)
    shapes = block_shapes(template.obs, template.lat, template.num_clusters)
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    if flat.shape != (ends[-1],):
        raise ValueError(f"expected a flat vector of length {ends[-1]}, got {flat.shape}")
    blocks = {
        name: part.reshape(shape)
        for (name, shape), part in zip(shapes.items(), np.split(flat, ends[:-1]))
    }
    return hmog_from_blocks(template.obs, template.lat, blocks)


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

    try:
        _, solve, _, _ = h.obs._scale(h.obs_params)
    except DomainError:
        return ["obs_second"]
    quad = h.obs_interaction.T @ solve(h.obs_interaction)

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
    eta_obs, cross_xy = lgm_conditional_forward(h._likelihood, eta_lat)
    return eta_obs, eta_lat, eta_cat, cross_xy, cross_yz


def hmog_posterior_pass(h: Hmog, xs: NDArray) -> EStep:
    """Mean log-likelihood and E-step target from one kernel pass.

    Per sample, the feature-cluster posterior is the posterior mixture
    shifted by the observation. The kernel returns its log-partition (for
    the log-likelihood), the posterior feature means (whose outer products
    with the observations fill the feature-observation block), and the
    data-summed feature statistics per component (the feature and
    feature-cluster blocks). The target holds the blocks `hmog_forward`
    returns, ``(eta_obs, eta_lat, eta_cat, cross_xy, cross_yz)``.
    """
    return _posterior_pass(h, xs)


def _posterior_pass(h: Hmog, xs: NDArray, eta_obs: NDArray | None = None) -> EStep:
    """`hmog_posterior_pass`, given the mean observable statistic of ``xs`` if known."""
    xs, shifts = _shifts(h, xs)
    count = len(xs)
    if count == 0:
        raise ValueError("the posterior pass needs a nonempty dataset")
    eta_obs = h.obs._mean_checked(xs) if eta_obs is None else eta_obs
    post = mixture_posterior_stats(h.prepared.posterior, shifts)
    stats = post.component_stats / count
    target = (
        eta_obs,
        stats.sum(axis=0),
        post.weights[1:] / count,
        xs.T @ post.feature_means / count,
        stats[1:].T,
    )
    return EStep(_mean_log_likelihood(h, eta_obs, post.log_partition), target)


def hmog_posterior_stats(h: Hmog, xs: NDArray) -> NDArray:
    """Expectation-step target: data-averaged joint sufficient statistics.

    Returned flat in the `pack_means` layout.
    """
    return pack_means(*hmog_posterior_pass(h, xs).target)


def hmog_em_iteration(
    h: Hmog, xs: NDArray, *, posterior_pass: EStep | None = None
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
    return shifted_feature_means(h.prepared.posterior, _shifts(h, xs)[1])


def hmog_classify_batch(h: Hmog, xs: NDArray) -> NDArray:
    """Cluster posteriors p(z | x), features marginalized out; rows sum to 1."""
    return shifted_posteriors(h.prepared.posterior, _shifts(h, xs)[1])


# ---------------------------------------------------------------------------
# Assembly and sampling
# ---------------------------------------------------------------------------


def assemble_hmog(lgm: LinearGaussianModel, mog: MixtureModel) -> Hmog:
    """Swap the likelihood's feature prior for a mixture.

    The result satisfies p(x, y, z) = p(x | y) p(y, z) with the
    conditional taken from ``lgm`` and the feature prior from ``mog``: the
    likelihood's own prior contribution is removed through its conjugation
    parameters, so the conditional is preserved exactly. It comes prepared,
    its prior ``mog`` itself, and fails as it would when loaded from JSON.
    """
    if lgm.lat.dim != mog.dim:
        raise ValueError(
            f"feature dimensions disagree: likelihood {lgm.lat.dim}, mixture {mog.dim}"
        )
    conj = _likelihood_conjugation(lgm)
    h = Hmog(
        obs=lgm.obs,
        lat=mog.lat,
        obs_params=lgm.obs_params,
        lat_params=mog.base_params - conj.rho,
        cat_params=mog.cat_params,
        obs_interaction=lgm.interaction,
        lat_interaction=mog.interaction,
    )
    _check_finite(h)
    vars(h)["prepared"] = _prepared_hmog(h, mog, conj.rho0)
    return h


def disassemble_hmog(h: Hmog) -> tuple[LinearGaussianModel, MixtureModel]:
    """Split into the conditional's linear Gaussian model and the feature prior.

    The conditional p(x | y) does not determine a feature prior, so the
    returned linear Gaussian model carries the standard-normal prior;
    `assemble_hmog` of the result reproduces the input exactly.
    """
    standard = h.lat.from_mean_cov(np.zeros(h.lat.dim), np.eye(h.lat.dim))
    rho = _likelihood_conjugation(h._likelihood).rho
    lgm = replace(h._likelihood, lat_params=standard - rho)
    vars(lgm)["_obs_scale"] = h._likelihood._obs_scale  # p(x | y) is unchanged
    return lgm, h.prepared.prior


def hmog_sample(
    h: Hmog, size: int, rng: np.random.Generator
) -> tuple[NDArray, NDArray, NDArray]:
    """Ancestral draws ``(observations, features, cluster indices)``."""
    ys, zs = mog_sample(h.prepared.prior, size, rng)
    return _draw_observations(h._likelihood, ys, rng), ys, zs
