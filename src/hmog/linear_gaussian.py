"""Linear Gaussian models as conjugated harmoniums.

A linear Gaussian model is a joint normal over observations and features
whose interaction couples only the first-order statistics:

    log p(x, y) ~ s_X(x) . theta_X + s_Y(y) . theta_Y + x . W . y

Restricting the observable second-order block to isotropic structure gives
probabilistic PCA; diagonal structure gives factor analysis. All solves
against the observable precision are elementwise for those structures, so
conjugation parameters, densities, and projection cost O(n m^2) in the
observable dimension n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_solve

from .families import DomainError, MultivariateNormal, Structure, _chol_lower
from .harmonium import ConjugationParams, Harmonium

__all__ = [
    "LinearGaussianModel",
    "lgm_conjugation_parameters",
    "lgm_log_partition",
    "lgm_forward",
    "lgm_backward",
    "lgm_em_step",
    "lgm_project",
    "lgm_project_batch",
    "lgm_observable_log_density",
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
    is the ``n x m`` first-order coupling block.
    """

    obs: MultivariateNormal
    lat: MultivariateNormal
    obs_params: NDArray
    lat_params: NDArray
    interaction: NDArray

    def __post_init__(self) -> None:
        if self.lat.structure is not Structure.FULL:
            raise ValueError("feature family must have full covariance structure")
        if self.interaction.shape != (self.obs.dim, self.lat.dim):
            raise ValueError(
                f"interaction shape {self.interaction.shape}, "
                f"expected {(self.obs.dim, self.lat.dim)}"
            )

    @property
    def obs_dim(self) -> int:
        return self.obs.dim

    @property
    def lat_dim(self) -> int:
        return self.lat.dim


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
    """Conjugation parameters of the observable likelihood.

    With ``A = -2 Theta_XX`` and ``t = A^{-1} theta_X``:

        rho0   = 1/2 theta_X . t - 1/2 log|A|
        rho_mu = W^T t
        P_YY   = 1/2 W^T A^{-1} W

    For isotropic and diagonal structures every solve against ``A`` is
    elementwise, so the cost grows linearly with the observable dimension.
    """
    first, solve, logdet, _ = model.obs._scale(
        model.obs_params, "observable natural parameters"
    )
    t = solve(first)
    rho0 = 0.5 * float(first @ t) - 0.5 * logdet
    rho_mu = model.interaction.T @ t
    p_yy = 0.5 * model.interaction.T @ solve(model.interaction)
    rho = model.lat.join_natural(rho_mu, p_yy)
    return ConjugationParams(rho=rho, rho0=rho0)


def lgm_log_partition(model: LinearGaussianModel) -> float:
    """Joint log-partition via conjugation."""
    conj = lgm_conjugation_parameters(model)
    return model.lat.log_partition(model.lat_params + conj.rho) + conj.rho0


def _joint_scale(model: LinearGaussianModel):
    """Factor the joint precision by block elimination.

    Returns the observable solver, ``A^{-1} W``, and the Cholesky factor
    of the feature-block Schur complement ``S = C - W^T A^{-1} W``; these
    three pieces drive the forward mapping, sampling, and the joint
    log-partition without ever forming a dense ``(n + m)`` matrix for
    structured observables.
    """
    obs_first, solve, _, covariance = model.obs._scale(
        model.obs_params, "observable natural parameters"
    )
    lat_first, lat_second = model.lat.split_natural(model.lat_params)
    c_mat = -2.0 * lat_second
    a_inv_w = solve(model.interaction)
    schur = c_mat - model.interaction.T @ a_inv_w
    lower = _chol_lower(schur, "joint precision (feature block)")
    return obs_first, lat_first, solve, covariance, a_inv_w, lower


def lgm_forward(
    model: LinearGaussianModel,
) -> tuple[NDArray, NDArray, NDArray]:
    """Forward mapping to mean coordinates.

    Returns ``(eta_X, eta_Y, H_XY)`` where the flat blocks are the
    observable and feature sufficient-statistic expectations (observable
    second moments projected to the structure) and ``H_XY = E[x (x) y]``.
    """
    obs_first, lat_first, solve, covariance, a_inv_w, lower = _joint_scale(model)
    n = model.obs.dim
    t = solve(obs_first)
    mu_y = cho_solve((lower, True), lat_first + model.interaction.T @ t)
    mu_x = t + a_inv_w @ mu_y
    sigma_yy = cho_solve((lower, True), np.eye(model.lat.dim))
    sigma_xy = a_inv_w @ sigma_yy
    cross = sigma_xy + np.outer(mu_x, mu_y)
    eta_y = model.lat.join_mean(mu_y, sigma_yy + np.outer(mu_y, mu_y))

    if model.obs.structure is Structure.FULL:
        sigma_xx = covariance() + a_inv_w @ sigma_yy @ a_inv_w.T
        eta_x = model.obs.join_mean(mu_x, sigma_xx + np.outer(mu_x, mu_x))
    else:
        var = covariance() + np.einsum("ij,ij->i", a_inv_w, a_inv_w @ sigma_yy)
        if model.obs.structure is Structure.DIAGONAL:
            eta_x = model.obs.join_mean(mu_x, var + mu_x**2)
        else:
            eta_x = model.obs.join_mean(mu_x, float(np.sum(var) + mu_x @ mu_x))
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
    noise is the structure projection of the residual covariance.
    """
    m_x, second_x = obs.split_mean(eta_x)
    m_y, h_yy = lat.split_mean(eta_y)
    c_yy = h_yy - np.outer(m_y, m_y)
    lower = _chol_lower(c_yy, "feature covariance statistics")
    c_xy = cross - np.outer(m_x, m_y)
    b_mat = cho_solve((lower, True), c_xy.T).T
    row_quad = np.einsum("ij,ij->i", b_mat, c_xy)

    n = obs.dim
    if obs.structure is Structure.FULL:
        noise = (second_x - np.outer(m_x, m_x)) - b_mat @ c_xy.T
        noise_lower = _chol_lower(noise, "observable noise covariance")
        noise_inv = cho_solve((noise_lower, True), np.eye(n))
        theta_xy = noise_inv @ b_mat
        obs_first = noise_inv @ (m_x - b_mat @ m_y)
        obs_flat = obs.join_natural(obs_first, -0.5 * noise_inv)
        quad = b_mat.T @ theta_xy
    else:
        var_x = second_x - m_x**2 if obs.structure is Structure.DIAGONAL else None
        if obs.structure is Structure.ISOTROPIC:
            total = second_x - float(m_x @ m_x) - float(np.sum(row_quad))
            if total <= 0.0:
                raise DomainError("observable noise variance is not positive")
            noise = np.full(n, total / n)
        else:
            noise = var_x - row_quad
            if np.any(noise <= 0.0):
                raise DomainError("observable noise variance is not positive")
        theta_xy = b_mat / noise[:, None]
        obs_first = (m_x - b_mat @ m_y) / noise
        if obs.structure is Structure.DIAGONAL:
            obs_flat = obs.join_natural(obs_first, -0.5 / noise)
        else:
            obs_flat = obs.join_natural(obs_first, -0.5 / noise[0])
        quad = b_mat.T @ theta_xy

    c_yy_inv = cho_solve((lower, True), np.eye(lat.dim))
    lat_second = -0.5 * (c_yy_inv + quad)
    lat_first = c_yy_inv @ m_y - b_mat.T @ obs_first
    lat_flat = lat.join_natural(lat_first, lat_second)
    return LinearGaussianModel(
        obs=obs,
        lat=lat,
        obs_params=obs_flat,
        lat_params=lat_flat,
        interaction=theta_xy,
    )


def lgm_em_step(model: LinearGaussianModel, data: NDArray) -> LinearGaussianModel:
    """One closed-form EM step on observations.

    The interaction couples first-order statistics only, so every
    posterior p(y | x) shares one covariance ``S = (-2 Theta_Y)^{-1}`` and
    has mean ``S (theta_Y + W^T x)``: the E-step is one product of the
    data with ``W S``. The averaged statistics ``(mean s_X(x), mean s_Y,
    mean x mu^T)`` go to the structure-projected backward mapping.
    """
    data = np.asarray(data, dtype=float)
    if len(data) == 0:
        raise ValueError("EM requires a nonempty dataset")
    lat = model.lat
    lat_first, lat_second = lat.split_natural(model.lat_params)
    lower = _chol_lower(-2.0 * lat_second, "posterior feature precision")
    cov = cho_solve((lower, True), np.eye(lat.dim))
    means = data @ (model.interaction @ cov) + lat_first @ cov
    count = len(data)
    eta_x = model.obs.mean_statistics(data)
    eta_y = lat.join_mean(means.mean(axis=0), cov + means.T @ means / count)
    cross = data.T @ means / count
    return lgm_backward(model.obs, lat, eta_x, eta_y, cross)


# ---------------------------------------------------------------------------
# Projection and densities
# ---------------------------------------------------------------------------


def lgm_project_batch(model: LinearGaussianModel, xs: NDArray) -> NDArray:
    """Posterior feature means E[Y | X = x] for a batch of observations."""
    xs = np.asarray(xs, dtype=float)
    lat_first, lat_second = model.lat.split_natural(model.lat_params)
    firsts = lat_first + xs @ model.interaction
    means, _ = model.lat.to_mean_batch(firsts, lat_second)
    return means


def lgm_project(model: LinearGaussianModel, x: NDArray) -> NDArray:
    """Posterior feature mean of one observation."""
    return lgm_project_batch(model, np.asarray(x, dtype=float)[None, :])[0]


def lgm_log_densities(model: LinearGaussianModel, xs: NDArray) -> NDArray:
    """Observable log-density, evaluated through conjugation.

    Equals the n-dimensional normal log-density with the model's marginal
    mean and covariance, without forming that covariance.
    """
    xs = np.asarray(xs, dtype=float)
    lat_first, lat_second = model.lat.split_natural(model.lat_params)
    firsts = lat_first + xs @ model.interaction
    psi_posterior = model.lat.log_partition_batch(firsts, lat_second)
    return (
        model.obs.dot_statistics(model.obs_params, xs)
        + psi_posterior
        - lgm_log_partition(model)
        + model.obs.log_base_measure(xs)
    )


def lgm_observable_log_density(model: LinearGaussianModel, x: NDArray) -> float:
    return float(lgm_log_densities(model, np.asarray(x, dtype=float)[None, :])[0])


def lgm_mean_log_likelihood(model: LinearGaussianModel, xs: NDArray) -> float:
    return float(np.mean(lgm_log_densities(model, xs)))


# ---------------------------------------------------------------------------
# Standard-form bridges, sampling, joint view
# ---------------------------------------------------------------------------


def lgm_from_standard(
    mean: NDArray, noise, loading: NDArray, structure: Structure
) -> LinearGaussianModel:
    """Build a model from ``p(x | y) = N(mean + W y, Sigma)``, ``p(y) = N(0, I)``.

    ``noise`` follows the structure shape: dense matrix (FULL), variance
    vector (DIAGONAL), or scalar variance (ISOTROPIC).
    """
    mean = np.asarray(mean, dtype=float)
    loading = np.asarray(loading, dtype=float)
    n, m = loading.shape
    obs = MultivariateNormal(n, structure)
    lat = MultivariateNormal(m, Structure.FULL)
    obs_params = obs.from_mean_cov(mean, noise)
    obs_first = obs_params[:n]
    if structure is Structure.FULL:
        lower = _chol_lower(np.asarray(noise, dtype=float), "noise covariance")
        interaction = cho_solve((lower, True), loading)
    elif structure is Structure.DIAGONAL:
        interaction = loading / np.asarray(noise, dtype=float)[:, None]
    else:
        interaction = loading / float(noise)
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
    first, solve, _, covariance = model.obs._scale(
        model.obs_params, "observable natural parameters"
    )
    mean = solve(first)
    loading = solve(model.interaction)
    noise = covariance()
    if model.obs.structure is Structure.ISOTROPIC:
        noise = float(noise[0])
    return mean, noise, loading


def lgm_sample(
    model: LinearGaussianModel, size: int, rng: np.random.Generator
) -> tuple[NDArray, NDArray]:
    """Ancestral draws ``(observations, features)``."""
    conj = lgm_conjugation_parameters(model)
    ys = model.lat.sample(model.lat_params + conj.rho, size, rng)
    first, solve, _, covariance = model.obs._scale(
        model.obs_params, "observable natural parameters"
    )
    means = solve((first[:, None] + model.interaction @ ys.T)).T
    noise = rng.standard_normal((size, model.obs.dim))
    if model.obs.structure is Structure.FULL:
        lower = _chol_lower(covariance(), "noise covariance")
        xs = means + noise @ lower.T
    else:
        xs = means + noise * np.sqrt(covariance())
    return xs, ys


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
