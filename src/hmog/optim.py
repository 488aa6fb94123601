"""Adam optimizer, formerly used for the unified maximization step.

Deprecated: the unified maximization step is now exact and closed-form
(see `hmog.hierarchical.hmog_em_iteration`), so nothing in the package
calls this module. It stays importable for existing callers and will be
removed.

Operates on flat parameter vectors; the model module owns the packing.
Descent on the supplied gradient (callers hand in ``tau(theta) - eta``, so
descending it ascends the likelihood). A domain guard may reject proposed
iterates, in which case the step size of the violating coordinate blocks
is halved and the proposal retried without advancing the optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "AdamConfig",
    "AdamState",
    "OptimizationError",
    "adam_step",
    "adam_optimize",
]

MAX_CONSECUTIVE_REJECTIONS = 60


class OptimizationError(RuntimeError):
    """Raised when optimization cannot proceed; carries the last iterate."""

    def __init__(self, message: str, iterate: NDArray | None = None):
        super().__init__(message)
        self.iterate = iterate


@dataclass(frozen=True)
class AdamConfig:
    """Adam learning parameters (deprecated; ignored by `FitConfig`)."""

    learning_rate: float = 1e-4
    epsilon: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    steps: int = 2000

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class AdamState:
    """First and second moment estimates plus the step counter."""

    first_moment: NDArray
    second_moment: NDArray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), 0)


def _update(
    state: AdamState, grad: NDArray, cfg: AdamConfig
) -> tuple[NDArray, NDArray, int, NDArray]:
    """Moment updates and the bias-corrected step direction."""
    t = state.step + 1
    m = cfg.beta1 * state.first_moment + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.second_moment + (1.0 - cfg.beta2) * grad**2
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    delta = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return m, v, t, delta


def adam_step(
    state: AdamState, theta: NDArray, grad: NDArray, cfg: AdamConfig
) -> tuple[AdamState, NDArray]:
    """One bias-corrected Adam descent step."""
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise ValueError(f"non-finite gradient at index {bad}")
    m, v, t, delta = _update(state, grad, cfg)
    return AdamState(m, v, t), theta - delta


def adam_optimize(
    grad_fn: Callable[[NDArray], NDArray],
    theta0: NDArray,
    cfg: AdamConfig,
    domain_guard: Callable[[NDArray], Sequence[str]] | None = None,
    blocks: Mapping[str, slice] | None = None,
    grad_norm_tol: float | None = None,
) -> tuple[NDArray, dict]:
    """Run ``cfg.steps`` Adam steps with rejection-and-halving guarding.

    ``domain_guard(theta)`` returns the names of violating coordinate
    blocks (empty when the iterate is valid); ``blocks`` maps those names
    to slices of the flat vector. A rejected proposal leaves the optimizer
    state untouched, halves the step scale of the violating blocks, and is
    retried; more than 60 consecutive rejections abort with the current
    iterate attached. With ``grad_norm_tol`` set, iteration stops early
    once the gradient norm falls below it.

    Returns the final iterate and a diagnostics dict with the committed
    step count, total rejections, and final gradient norm. Deterministic:
    identical inputs produce identical outputs.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    state = AdamState.zeros(theta.size)
    scales = np.ones_like(theta)
    rejections_total = 0
    grad = np.asarray(grad_fn(theta), dtype=float)
    committed = 0
    while committed < cfg.steps:
        if grad_norm_tol is not None and float(np.linalg.norm(grad)) < grad_norm_tol:
            break
        if not np.all(np.isfinite(grad)):
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise OptimizationError(f"non-finite gradient at index {bad}", theta)
        m, v, t, delta = _update(state, grad, cfg)
        consecutive = 0
        while True:
            proposal = theta - scales * delta
            violations = list(domain_guard(proposal)) if domain_guard else []
            if not violations:
                break
            consecutive += 1
            rejections_total += 1
            if consecutive > MAX_CONSECUTIVE_REJECTIONS:
                raise OptimizationError(
                    f"{consecutive} consecutive rejected steps "
                    f"(violating blocks: {sorted(set(violations))})",
                    theta,
                )
            for name in violations:
                if blocks is not None and name in blocks:
                    scales[blocks[name]] *= 0.5
                else:
                    scales *= 0.5
                    break
        state = AdamState(m, v, t)
        theta = proposal
        committed += 1
        grad = np.asarray(grad_fn(theta), dtype=float)
    diagnostics = {
        "steps": committed,
        "rejections": rejections_total,
        "grad_norm": float(np.linalg.norm(grad)),
    }
    return theta, diagnostics
