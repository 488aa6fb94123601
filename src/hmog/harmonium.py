"""Generic two-layer harmonium machinery.

A harmonium couples an observable exponential family and a latent one
through a bilinear interaction:

    log p(x, y) = s_X(x) . theta_X + s_Y(y) . theta_Y
                  + s_X(x) . Theta_XY . s_Y(y) - psi_XY + log nu_X + log nu_Y

Everything here is generic over the two families. The concrete model
modules (mixtures, linear Gaussian models) supply conjugation parameters
and closed-form backward mappings; this module verifies conjugation,
evaluates densities through it, and provides the generic EM iteration
skeleton. The models' own EM steps reduce the data once per fit or
restart instead (`linear_gaussian.lgm_moment_pass`,
`mixture.mog_em_step_from_statistics`); the skeleton is the reference
they are tested against. Every model's E-step result is one `EStep`: the
mean log-likelihood of the current model and the mean-coordinate target
that its closed-form backward map takes to the next iterate.

All types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .families import DomainError, _check_shapes

__all__ = [
    "Harmonium",
    "ConjugationParams",
    "EStep",
    "posterior_natural_params",
    "check_conjugation",
    "conjugated_log_partition",
    "observable_log_density",
    "joint_log_density",
    "em_iteration",
]


@dataclass(frozen=True)
class Harmonium:
    """Natural parameters of a two-layer harmonium.

    ``interaction`` maps latent sufficient statistics into observable
    natural-parameter space; its shape is ``(obs.param_dim, lat.param_dim)``.
    The shifted observable parameters ``theta_X + Theta_XY . s_Y(y)`` must
    stay valid for every latent value used; violations surface lazily as
    DomainError at evaluation time.
    """

    obs: object
    lat: object
    obs_params: NDArray
    lat_params: NDArray
    interaction: NDArray

    def __post_init__(self) -> None:
        expected = (self.obs.param_dim, self.lat.param_dim)
        _check_shapes(vars(self), {"interaction": expected})


@dataclass(frozen=True)
class ConjugationParams:
    """Affine coefficients of the shifted observable log-partition.

    For a conjugated harmonium, ``psi_X(theta_X + Theta_XY . s_Y(y)) =
    s_Y(y) . rho + rho0`` holds for all latent ``y``; ``rho`` lives in
    latent natural-parameter space.
    """

    rho: NDArray
    rho0: float


@dataclass(frozen=True)
class EStep:
    """One model's E-step on one dataset.

    ``mean_log_likelihood`` is the mean observable log-density of the data
    under the model, and ``target`` the data-averaged mean-coordinate
    blocks that the model's backward map takes to the next EM iterate.
    """

    mean_log_likelihood: float
    target: tuple[NDArray, ...]


def posterior_natural_params(h: Harmonium, x) -> NDArray:
    """Latent natural parameters of p(y | x): theta_Y + s_X(x) . Theta_XY."""
    stat = h.obs.sufficient_statistic(x)
    return h.lat_params + h.interaction.T @ stat


def check_conjugation(h: Harmonium, c: ConjugationParams, probes) -> float:
    """Max conjugation residual over a list of latent probe points.

    Returns ``max_y |psi_X(theta_X + Theta_XY . s_Y(y)) - s_Y(y) . rho -
    rho0|``; zero (to float precision) certifies the conjugation equation
    on the probes.
    """
    worst = 0.0
    for probe in probes:
        stat = h.lat.sufficient_statistic(probe)
        shifted = h.obs_params + h.interaction @ stat
        try:
            lhs = h.obs.log_partition(shifted)
        except DomainError as exc:
            raise DomainError(
                f"shifted observable parameters invalid at probe {probe!r}: {exc}"
            ) from exc
        residual = abs(lhs - float(stat @ c.rho) - c.rho0)
        worst = max(worst, residual)
    return worst


def conjugated_log_partition(h: Harmonium, c: ConjugationParams) -> float:
    """psi_XY = psi_Y(theta_Y + rho) + rho0."""
    return h.lat.log_partition(h.lat_params + c.rho) + c.rho0


def observable_log_density(h: Harmonium, c: ConjugationParams, x) -> float:
    """log p(x) of a conjugated harmonium.

    ``s_X(x) . theta_X + psi_Y(theta_Y + s_X(x) . Theta_XY) - psi_XY
    + log nu_X(x)``.
    """
    stat = h.obs.sufficient_statistic(x)
    posterior = h.lat_params + h.interaction.T @ stat
    return (
        float(stat @ h.obs_params)
        + h.lat.log_partition(posterior)
        - conjugated_log_partition(h, c)
        + h.obs.log_base_measure(x)
    )


def joint_log_density(h: Harmonium, c: ConjugationParams, x, y) -> float:
    """log p(x, y), normalized through the conjugated log-partition."""
    sx = h.obs.sufficient_statistic(x)
    sy = h.lat.sufficient_statistic(y)
    return (
        float(sx @ h.obs_params)
        + float(sy @ h.lat_params)
        + float(sx @ h.interaction @ sy)
        - conjugated_log_partition(h, c)
        + h.obs.log_base_measure(x)
        + h.lat.log_base_measure(y)
    )


def em_iteration(
    h: Harmonium,
    data: NDArray,
    latent_forward: Callable[[NDArray], NDArray],
    joint_backward: Callable[[NDArray, NDArray, NDArray], object],
):
    """One closed-form EM iteration on observed data.

    Expectation step: per-sample latent expectations
    ``tau_Y(theta_Y + s_X(x_i) . Theta_XY)`` via the batched
    ``latent_forward`` callback. The per-sample statistics are averaged
    into ``(eta_X, eta_Y, H_XY)`` and handed to ``joint_backward``, which
    owns the (model-specific) closed-form maximization step and returns
    the updated model. Training log-likelihood is nondecreasing.

    The sample loop is a map plus an associative reduction; results do not
    depend on data ordering beyond float reassociation.
    """
    data = np.asarray(data)
    if len(data) == 0:
        raise ValueError("EM requires a nonempty dataset")
    obs_stats = h.obs.sufficient_statistics(data)
    posterior_nats = h.lat_params + obs_stats @ h.interaction
    lat_means = latent_forward(posterior_nats)
    count = len(data)
    eta_x = obs_stats.mean(axis=0)
    eta_y = lat_means.mean(axis=0)
    cross = obs_stats.T @ lat_means / count
    return joint_backward(eta_x, eta_y, cross)
