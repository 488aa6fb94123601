"""Linear Gaussian models as conjugated harmoniums.

A linear Gaussian model is a joint normal over observations and features
whose interaction couples only the first-order statistics:

    log p(x, y) ~ s_X(x) . theta_X + s_Y(y) . theta_Y + x . W . y

Diagonal observable noise gives factor analysis; isotropic noise, the same
per-coordinate noise with its variances tied, gives probabilistic PCA. Both
take one structured path, on which every solve against the observable
precision is elementwise: conjugation parameters, densities, and projection
cost O(n m^2) in the observable dimension n.

EM and the mean log-likelihood depend on the data only through its sample
mean, centred covariance ``C`` and mean observable statistic
(`DataMoments`; Rubin & Thayer 1982, Ghahramani & Hinton 1996). Those cost
O(N n^2) time once per dataset and O(n^2) memory; after that one
`lgm_moment_pass` per EM step scores the current model and yields the next
step's E-step target, together one `harmonium.EStep`, from the single
O(n^2 m) product ``C @ W``, with no pass over the points.

Each Gaussian of a model is factored in one place. The observable block
is factored once per model (`LinearGaussianModel._obs_scale`), for the
conjugation parameters, the conditional forward map, the standard form and
draws from p(x | y). Every feature posterior p(y | x) is the feature family
at ``theta_Y`` shifted in its first-order block by ``x @ W``, so the
family's batch methods factor ``theta_Y`` once per call. `lgm_backward`
factors only covariance statistics and seeds each model's conjugation
parameters and log-partition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .families import DomainError, MultivariateNormal, Structure, _check_shapes, _freeze
from .families import _spd_inverse
from .harmonium import ConjugationParams, EStep, Harmonium

__all__ = [
    "LinearGaussianModel",
    "DataMoments",
    "data_moments",
    "lgm_moment_pass",
    "lgm_conjugation_parameters",
    "lgm_log_partition",
    "lgm_forward",
    "lgm_conditional_forward",
    "lgm_backward",
    "lgm_em_step",
    "lgm_project_batch",
    "lgm_log_densities",
    "lgm_mean_log_likelihood",
    "lgm_from_standard",
    "lgm_to_standard",
    "lgm_sample",
    "lgm_joint_params",
    "as_harmonium",
]


@dataclass(frozen=True)
class LinearGaussianModel:
    """Joint Gaussian with first-order-only interaction.

    ``obs`` carries the covariance structure (ISOTROPIC for PCA-style
    models, DIAGONAL for factor analysis, FULL for the unrestricted
    joint); the feature family is always full-covariance. ``interaction``
    is the ``n x m`` first-order coupling block. A block of the wrong
    shape raises ValueError naming it.
    """

    obs: MultivariateNormal
    lat: MultivariateNormal
    obs_params: NDArray
    lat_params: NDArray
    interaction: NDArray

    def __post_init__(self) -> None:
        _freeze(self, "obs_params", "lat_params", "interaction")
        if self.lat.structure is not Structure.FULL:
            raise ValueError("feature family must have full covariance structure")
        _check_shapes(vars(self), {
            "obs_params": (self.obs.param_dim,),
            "lat_params": (self.lat.param_dim,),
            "interaction": (self.obs.dim, self.lat.dim),
        })

    @property
    def obs_dim(self) -> int:
        return self.obs.dim

    @property
    def lat_dim(self) -> int:
        return self.lat.dim

    @functools.cached_property
    def _obs_scale(self) -> tuple:
        """``(first, solve, logdet, cov)`` of the observable block, factored once."""
        return self.obs._scale(self.obs_params, "observable natural parameters")

    @functools.cached_property
    def conjugation(self) -> ConjugationParams:
        """Conjugation parameters (no feature block), seeded or built on first use."""
        return _conjugation(self)

    @functools.cached_property
    def log_partition(self) -> float:
        """Joint log-partition, seeded or built on first use from `conjugation`."""
        conj = self.conjugation
        return self.lat.log_partition(self.lat_params + conj.rho) + conj.rho0


def as_harmonium(model: LinearGaussianModel) -> Harmonium:
    """Embed the first-order interaction into full sufficient-statistic space."""
    full = np.zeros((model.obs.param_dim, model.lat.param_dim))
    full[: model.obs.dim, : model.lat.dim] = model.interaction
    return Harmonium(
        obs=model.obs,
        lat=model.lat,
        obs_params=model.obs_params,
        lat_params=model.lat_params,
        interaction=full,
    )


def lgm_conjugation_parameters(model: LinearGaussianModel) -> ConjugationParams:
    """Conjugation parameters of the observable likelihood (read from the model)."""
    return model.conjugation


def lgm_log_partition(model: LinearGaussianModel) -> float:
    """Joint log-partition via conjugation (read from the model)."""
    return model.log_partition


def _conjugation(model: LinearGaussianModel) -> ConjugationParams:
    """Conjugation parameters from the model's blocks.

    With ``A = -2 Theta_XX`` and ``t = A^{-1} theta_X``:

        rho0   = 1/2 theta_X . t - 1/2 log|A|
        rho_mu = W^T t
        P_YY   = 1/2 W^T A^{-1} W

    For structured (diagonal or tied) noise every solve against ``A`` is
    elementwise, so the cost grows linearly with the observable dimension.
    """
    first, solve, logdet, _ = model._obs_scale
    t = solve(first)
    rho0 = 0.5 * float(first @ t) - 0.5 * logdet
    rho_mu = model.interaction.T @ t
    p_yy = 0.5 * model.interaction.T @ solve(model.interaction)
    rho = model.lat.join_natural(rho_mu, p_yy)
    return ConjugationParams(rho=rho, rho0=rho0)


def lgm_conditional_forward(
    model: LinearGaussianModel, eta_y: NDArray
) -> tuple[NDArray, NDArray]:
    """Push feature moments through the conditional p(x | y).

    The conditional is ``N(t + B y, A^{-1})``, ``A = -2 Theta_XX``,
    ``t = A^{-1} theta_X``, ``B = A^{-1} W``. Feature moments ``eta_Y``
    (mean ``mu_Y``, covariance ``S``) map to the observable blocks
    ``(eta_X, H_XY)``: ``E[x] = t + B mu_Y``, ``H_XY = B S + E[x] mu_Y^T``
    and ``Cov[x] = A^{-1} + B S B^T``, projected to the structure. The map
    is affine in ``eta_Y``, so any feature prior, Gaussian or mixture, can
    be pushed through it.
    """
    mean, cov, loading = lgm_to_standard(model)
    mu_y, second_y = model.lat.split_mean(eta_y)
    sigma_yy = second_y - np.outer(mu_y, mu_y)
    mu_x = mean + loading @ mu_y
    sigma_xy = loading @ sigma_yy
    cross = sigma_xy + np.outer(mu_x, mu_y)
    obs = model.obs
    if obs.structure is Structure.FULL:
        sigma_xx = cov + sigma_xy @ loading.T
        return obs.join_mean(mu_x, sigma_xx + np.outer(mu_x, mu_x)), cross
    var = cov + np.einsum("ij,ij->i", loading, sigma_xy)
    return obs.join_mean(mu_x, obs._pack(var) + obs._pack_squares(mu_x)), cross


def lgm_forward(
    model: LinearGaussianModel,
) -> tuple[NDArray, NDArray, NDArray]:
    """Forward mapping to mean coordinates ``(eta_X, eta_Y, H_XY)``.

    ``eta_Y`` is the feature marginal at the conjugated prior ``theta_Y +
    rho``; `lgm_conditional_forward` pushes it through the conditional.
    """
    conj = lgm_conjugation_parameters(model)
    eta_y = model.lat.to_mean(model.lat_params + conj.rho)
    eta_x, cross = lgm_conditional_forward(model, eta_y)
    return eta_x, eta_y, cross


def lgm_backward(
    obs: MultivariateNormal,
    lat: MultivariateNormal,
    eta_x: NDArray,
    eta_y: NDArray,
    cross: NDArray,
) -> LinearGaussianModel:
    """Backward mapping onto the structured linear Gaussian family.

    Matches the model expectations to the targets on exactly the
    restricted sufficient statistics: the feature marginal and the
    first-order cross moments are matched exactly, and the conditional
    noise is the structure projection of the residual covariance. The
    model comes with its conjugation parameters and log-partition seeded:
    its feature marginal is exactly ``N(m_y, C_yy)``.
    """
    m_x, second_x = obs.split_mean(eta_x)
    m_y, h_yy = lat.split_mean(eta_y)
    c_yy = h_yy - np.outer(m_y, m_y)
    c_yy_inv, logdet_yy = _spd_inverse(c_yy, "feature covariance statistics")
    c_xy = cross - np.outer(m_x, m_y)
    b_mat = c_xy @ c_yy_inv
    row_quad = np.einsum("ij,ij->i", b_mat, c_xy)
    residual = m_x - b_mat @ m_y

    if obs.structure is Structure.FULL:
        noise = (second_x - np.outer(m_x, m_x)) - b_mat @ c_xy.T
        noise_inv, logdet_noise = _spd_inverse(noise, "observable noise covariance")
        theta_xy = noise_inv @ b_mat
        obs_first = noise_inv @ residual
        obs_flat = obs.join_natural(obs_first, -0.5 * noise_inv)
    else:
        # per-coordinate residual variances, pooled over tied coordinates
        pooled = (second_x - obs._pack_squares(m_x) - obs._pack(row_quad)) / obs._ties
        noise = obs._expand(pooled)
        if np.any(noise <= 0.0):
            raise DomainError("observable noise variance is not positive")
        theta_xy = b_mat / noise[:, None]
        obs_first = residual / noise
        obs_flat = obs.join_natural(obs_first, -0.5 / noise)
        logdet_noise = np.sum(np.log(noise))

    lat_second = -0.5 * (c_yy_inv + b_mat.T @ theta_xy)
    lat_first = c_yy_inv @ m_y - b_mat.T @ obs_first
    lat_flat = lat.join_natural(lat_first, lat_second)
    model = LinearGaussianModel(
        obs=obs,
        lat=lat,
        obs_params=obs_flat,
        lat_params=lat_flat,
        interaction=theta_xy,
    )
    rho0 = 0.5 * float(obs_first @ residual + logdet_noise)
    rho = lat.join_natural(theta_xy.T @ residual, -0.5 * c_yy_inv - lat_second)
    vars(model)["conjugation"] = ConjugationParams(rho, rho0)
    vars(model)["log_partition"] = 0.5 * float(m_y @ c_yy_inv @ m_y + logdet_yy) + rho0
    return model


# ---------------------------------------------------------------------------
# EM and scoring on data moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataMoments:
    """What linear Gaussian EM and scoring need from a dataset.

    ``mean`` is the sample mean, ``covariance`` the centred sample
    covariance ``(X - mean)^T (X - mean) / N`` (dense, n x n), and
    ``statistic`` the mean observable sufficient statistic of the family
    the moments were taken for.
    """

    mean: NDArray
    covariance: NDArray
    statistic: NDArray


def data_moments(obs: MultivariateNormal, xs: NDArray) -> DataMoments:
    """Moments of the rows of ``xs`` under the observable family ``obs``."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("moments need a nonempty dataset")
    statistic = obs.mean_statistics(xs)
    mean = xs.mean(axis=0)
    centred = xs - mean
    return DataMoments(
        mean=mean, covariance=centred.T @ centred / len(xs), statistic=statistic
    )


def lgm_moment_pass(model: LinearGaussianModel, moments: DataMoments) -> EStep:
    """Mean log-likelihood and E-step target from the data moments alone.

    The target is the data-averaged ``(eta_X, eta_Y, H_XY)`` that
    `lgm_backward` maps to the next EM iterate.

    Every posterior p(y | x) shares the covariance ``S = (-2 Theta_Y)^{-1}``
    and has mean ``mu(x) = S (theta_Y + W^T x)``, affine in x, and log p(x)
    is quadratic in x with Hessian ``-(A - W S W^T)``, ``A = -2 Theta_XX``.
    So with the sample mean ``xbar`` and centred covariance ``C``:

        mean log p(x)  = log p(xbar) - 1/2 tr(A C) + 1/2 tr(S W^T C W)
        mean mu        = mu(xbar)
        mean mu mu^T   = mu(xbar) mu(xbar)^T + S W^T C W S
        mean x mu^T    = xbar mu(xbar)^T + C W S

    One O(n^2 m) product ``C W`` serves both results. The centred form
    keeps the accuracy of the per-point mean on data far from the origin.
    """
    n, lat = model.obs.dim, model.lat
    first, solve, logdet, cov = lat._scale(model.lat_params, "posterior feature precision")
    c_w = moments.covariance @ model.interaction
    spread = model.interaction.T @ c_w
    first_y = first + model.interaction.T @ moments.mean
    mean_y = solve(first_y)

    # log p(xbar) takes its posterior log-partition 1/2 f . S f - 1/2 log|P|
    # from the factor above. tr(Theta_XX C) is the packed natural block
    # against C packed as a second-moment block of the same structure.
    xbar = moments.mean[None, :]
    packed_c = model.obs.join_mean(np.zeros(n), moments.covariance)[n:]
    mean_ll = (
        model.obs.dot_statistics(model.obs_params, xbar)[0]
        + 0.5 * (first_y @ mean_y - logdet)
        - lgm_log_partition(model)
        + model.obs.log_base_measure(xbar)
        + model.obs_params[n:] @ packed_c
        + 0.5 * np.sum(cov * spread)
    )

    second_y = cov + np.outer(mean_y, mean_y) + cov @ spread @ cov
    cross = np.outer(moments.mean, mean_y) + c_w @ cov
    target = (moments.statistic, lat.join_mean(mean_y, second_y), cross)
    return EStep(mean_log_likelihood=float(mean_ll), target=target)


def lgm_em_step(model: LinearGaussianModel, data: NDArray) -> LinearGaussianModel:
    """One closed-form EM step on observations.

    `lgm_moment_pass` on the data's moments gives the averaged statistics
    ``(mean s_X(x), mean s_Y, mean x mu^T)``; the structure-projected
    backward mapping turns them into the next model. Forming the moments
    costs O(N n^2) time and O(N n) memory per call; a run of steps on fixed
    data computes them once and repeats the pass instead.
    """
    target = lgm_moment_pass(model, data_moments(model.obs, data)).target
    return lgm_backward(model.obs, model.lat, *target)


# ---------------------------------------------------------------------------
# Projection and densities
# ---------------------------------------------------------------------------


def lgm_project_batch(model: LinearGaussianModel, xs: NDArray) -> NDArray:
    """Posterior feature means E[Y | X = x] for a batch of observations."""
    shifts = model.obs._points(xs) @ model.interaction
    return model.lat.to_mean_batch(model.lat_params, shifts)[0]


def lgm_log_densities(model: LinearGaussianModel, xs: NDArray) -> NDArray:
    """Observable log-density, evaluated through conjugation.

    Equals the n-dimensional normal log-density with the model's marginal
    mean and covariance, without forming that covariance.
    """
    xs = model.obs._points(xs)
    return (
        model.obs._dot_checked(model.obs_params, xs)
        + model.lat.log_partition_batch(model.lat_params, xs @ model.interaction)
        - lgm_log_partition(model)
        + model.obs.log_base_measure(xs)
    )


def lgm_mean_log_likelihood(model: LinearGaussianModel, xs: NDArray) -> float:
    """Mean observable log-density of the rows of ``xs``, O(N n m).

    A run of scores on fixed data takes `lgm_moment_pass` on moments
    computed once instead.
    """
    if len(xs) == 0:
        raise ValueError("the mean log-likelihood needs a nonempty dataset")
    return float(np.mean(lgm_log_densities(model, xs)))


# ---------------------------------------------------------------------------
# Standard-form bridges, sampling, joint view
# ---------------------------------------------------------------------------


def lgm_from_standard(
    mean: NDArray, noise, loading: NDArray, structure: Structure
) -> LinearGaussianModel:
    """Build a model from ``p(x | y) = N(mean + W y, Sigma)``, ``p(y) = N(0, I)``.

    ``noise`` follows the structure shape: dense matrix (FULL), variance
    vector (DIAGONAL), or scalar variance (ISOTROPIC); structured noise
    may also be a dense covariance, whose diagonal is kept (pooled if tied).
    """
    mean = np.asarray(mean, dtype=float)
    loading = np.asarray(loading, dtype=float)
    n, m = loading.shape
    obs = MultivariateNormal(n, structure)
    lat = MultivariateNormal(m, Structure.FULL)
    obs_params = obs.from_mean_cov(mean, noise)
    obs_first = obs_params[:n]
    if structure is Structure.FULL:
        # Theta_XX = -1/2 Sigma^{-1}, already inverted by from_mean_cov
        interaction = -2.0 * obs.split_natural(obs_params)[1] @ loading
    else:
        interaction = loading / obs._variances(noise)[:, None]
    lat_first = -loading.T @ obs_first
    lat_second = -0.5 * (np.eye(m) + loading.T @ interaction)
    lat_params = lat.join_natural(lat_first, lat_second)
    return LinearGaussianModel(
        obs=obs, lat=lat, obs_params=obs_params, lat_params=lat_params,
        interaction=interaction,
    )


def lgm_to_standard(
    model: LinearGaussianModel,
) -> tuple[NDArray, NDArray, NDArray]:
    """Recover ``(mean, noise, loading)`` of the conditional p(x | y).

    The conditional does not depend on the feature prior, so round-trips
    with `lgm_from_standard` are exact; reconstructing the full joint from
    the triple assumes the standard-normal prior convention.
    """
    first, solve, _, noise = model._obs_scale
    return solve(first), model.obs._standard(noise), solve(model.interaction)


def lgm_sample(
    model: LinearGaussianModel, size: int, rng: np.random.Generator
) -> tuple[NDArray, NDArray]:
    """Ancestral draws ``(observations, features)``."""
    conj = lgm_conjugation_parameters(model)
    ys = model.lat.sample(model.lat_params + conj.rho, size, rng)
    return _draw_observations(model, ys, rng), ys


def _draw_observations(
    model: LinearGaussianModel, ys: NDArray, rng: np.random.Generator
) -> NDArray:
    """One draw from the conditional p(x | y) per row of ``ys``."""
    first, solve, _, cov = model._obs_scale
    means = solve((first[:, None] + model.interaction @ ys.T)).T
    return model.obs._draw(means, cov, len(ys), rng, "noise covariance")


def lgm_joint_params(model: LinearGaussianModel) -> tuple[MultivariateNormal, NDArray]:
    """Dense joint normal view over (x, y).

    The interaction enters the joint quadratic form once, so the joint
    second-order block carries half the interaction in each off-diagonal
    block. Intended for oracles and small models; materializes the dense
    (n + m) representation.
    """
    n, m = model.obs.dim, model.lat.dim
    obs_first, obs_second = model.obs.split_natural(model.obs_params)
    lat_first, lat_second = model.lat.split_natural(model.lat_params)
    joint = MultivariateNormal(n + m, Structure.FULL)
    second = np.zeros((n + m, n + m))
    second[:n, :n] = obs_second
    second[n:, n:] = lat_second
    second[:n, n:] = 0.5 * model.interaction
    second[n:, :n] = 0.5 * model.interaction.T
    theta = joint.join_natural(np.concatenate([obs_first, lat_first]), second)
    return joint, theta
