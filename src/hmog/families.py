"""Categorical and multivariate normal exponential families.

Both families are handled in natural coordinates. A distribution with
density ``exp(s(x) . theta - psi(theta)) nu(x)`` is identified by a flat
parameter vector ``theta`` whose layout matches the minimal sufficient
statistic of the family:

* categorical over ``1..k``: ``theta`` has length ``k - 1`` (category 1 is
  the reference and carries a zero sufficient statistic);
* ``n``-dimensional normal: ``theta = [theta_mu, packed(Theta)]`` where the
  second-order block ``Theta`` is packed according to the covariance
  structure (lower triangle, diagonal, or a single scalar).

Packing conventions are chosen so that plain dot products recover the
correct bilinear forms: natural vectors store off-diagonal entries of
``Theta`` doubled, while sufficient statistics and mean vectors store each
product ``x_i x_j`` once. Hence ``dot(s(x), theta) = x . theta_mu +
x . Theta . x`` exactly, and the gradient of the log-partition function in
these coordinates is exactly the flat mean vector.

This module alone knows the packed layout. For FULL structure the helpers
``split_natural``, ``split_mean``, ``join_natural``, ``join_mean`` and
``from_mean_cov`` also take stacks, one row per component: flat vectors
``(k, param_dim)`` against first-order blocks ``(k, dim)`` and matrices
``(k, dim, dim)``. Each row is converted as it would be on its own.

Every positive-definite matrix of the package is factored here, by
numpy's LAPACK Cholesky: `_cholesky` returns the lower factors of a
stack and `_spd_inverse` turns one such factorization into inverses and
log-determinants. Non-finite or indefinite input raises DomainError with
the caller's context. The other modules call these two helpers and
factor nothing themselves.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Structure",
    "DomainError",
    "Categorical",
    "MultivariateNormal",
    "log_sum_exp",
    "normalize_logits",
]

LOG_2PI = math.log(2.0 * math.pi)


class DomainError(ValueError):
    """Parameters outside the valid domain of a family or model.

    Raised when a definiteness constraint fails (e.g. a covariance loses
    positive-definiteness) or a mean vector sits on the boundary of the
    mean-parameter space. Never silently regularized.
    """


class Structure(enum.Enum):
    """Constraint on the second-order block of a normal family."""

    FULL = "full"
    DIAGONAL = "diagonal"
    ISOTROPIC = "isotropic"


@functools.lru_cache(maxsize=None)
def _tril_rows_cols(n: int) -> tuple[NDArray, NDArray]:
    rows, cols = np.tril_indices(n)
    return rows, cols


def _cholesky(matrix: NDArray, context: str) -> NDArray:
    """Lower Cholesky factors of positive-definite matrices ``(..., n, n)``.

    numpy's Cholesky lets non-finite entries through; they are rejected
    first, as an indefinite matrix would be.
    """
    if not np.all(np.isfinite(matrix)):
        raise DomainError(f"{context}: matrix is not positive-definite")
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"{context}: matrix is not positive-definite") from exc


def _spd_inverse(matrix: NDArray, context: str) -> tuple[NDArray, NDArray]:
    """Inverses ``L^{-T} L^{-1}`` and log-determinants ``(...,)`` from one factoring."""
    lower = _cholesky(matrix, context)
    inv_lower = np.linalg.inv(lower)
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    return np.swapaxes(inv_lower, -1, -2) @ inv_lower, logdet


def _exp_shifted(logits: NDArray) -> tuple[NDArray, NDArray]:
    """``logits`` (k, N) becomes ``exp(logits - column max)`` in place.

    Returns the column log-sum-exp and the column sums of the exponentials.
    The maximum is factored out before exponentiating, so no entry
    overflows and the largest is exactly ``exp(0)``.
    """
    top = np.max(logits, axis=0)
    logits -= top
    np.exp(logits, out=logits)
    total = np.sum(logits, axis=0)
    return top + np.log(total), total


def log_sum_exp(logits: NDArray) -> NDArray:
    """Column-wise log-sum-exp (N,) of finite logits (k, N), which it overwrites."""
    return _exp_shifted(logits)[0]


def normalize_logits(logits: NDArray) -> tuple[NDArray, NDArray]:
    """Column-wise log-sum-exp and softmax of finite logits (k, N), in place.

    The categories run down the short first axis and the points along the
    long last one, so every reduction is elementwise across contiguous
    rows. Returns the log-sum-exp (N,) and the posteriors (k, N), which
    are ``logits`` itself, overwritten; nothing is transposed or copied.
    """
    lse, total = _exp_shifted(logits)
    logits /= total
    return lse, logits


# ---------------------------------------------------------------------------
# Categorical family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Categorical:
    """Categorical distribution over the indices ``1..num_categories``.

    The natural parameter vector has length ``num_categories - 1``; the
    sufficient statistic of category 1 is the zero vector and category
    ``z > 1`` maps to the indicator vector with a one at slot ``z - 1``.
    """

    num_categories: int

    def __post_init__(self) -> None:
        if self.num_categories < 1:
            raise ValueError(f"num_categories must be >= 1, got {self.num_categories}")

    @property
    def param_dim(self) -> int:
        return self.num_categories - 1

    def sufficient_statistic(self, z: int) -> NDArray:
        k = self.num_categories
        if not 1 <= z <= k:
            raise ValueError(f"category index {z} outside 1..{k}")
        stat = np.zeros(k - 1)
        if z > 1:
            stat[z - 2] = 1.0
        return stat

    def sufficient_statistics(self, zs: NDArray) -> NDArray:
        zs = np.asarray(zs)
        if np.any(zs < 1) or np.any(zs > self.num_categories):
            raise ValueError(f"category indices outside 1..{self.num_categories}")
        stats = np.zeros((len(zs), self.param_dim))
        hot = zs > 1
        stats[np.nonzero(hot)[0], zs[hot] - 2] = 1.0
        return stats

    def log_base_measure(self, z: int) -> float:
        return 0.0

    def log_partition(self, theta: NDArray) -> float:
        """log(1 + sum_i exp(theta_i)), the one-row `log_partition_batch`."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"expected {self.param_dim} natural parameters")
        if not np.all(np.isfinite(theta)):
            raise DomainError("non-finite categorical natural parameters")
        return float(self.log_partition_batch(theta[None, :])[0])

    def _padded(self, thetas: NDArray) -> NDArray:
        """Logits (k, N) of all categories for rows of ``thetas`` (N, k - 1).

        The reference category's row is zero.
        """
        thetas = np.asarray(thetas, dtype=float)
        logits = np.zeros((self.num_categories, thetas.shape[0]))
        logits[1:] = thetas.T
        return logits

    def log_partition_batch(self, thetas: NDArray) -> NDArray:
        return log_sum_exp(self._padded(thetas))

    def to_mean(self, theta: NDArray) -> NDArray:
        """Forward mapping: eta_i = exp(theta_i) / (1 + sum_j exp(theta_j))."""
        psi = self.log_partition(theta)
        return np.exp(np.asarray(theta, dtype=float) - psi)

    def to_mean_batch(self, thetas: NDArray) -> NDArray:
        """Probability rows (N, num_categories - 1) of the non-reference categories."""
        return normalize_logits(self._padded(thetas))[1][1:].T

    def probabilities_batch(self, thetas: NDArray) -> NDArray:
        """Full probability rows (N, num_categories)."""
        return normalize_logits(self._padded(thetas))[1].T

    def to_natural(self, eta: NDArray) -> NDArray:
        """Backward mapping: theta_i = log(eta_i / (1 - sum_j eta_j))."""
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (self.param_dim,):
            raise ValueError(f"expected {self.param_dim} mean parameters")
        if eta.size == 0:
            return eta.copy()
        rest = 1.0 - float(np.sum(eta))
        if np.any(eta <= 0.0) or rest <= 0.0:
            raise DomainError(
                "categorical mean parameters on the probability boundary"
            )
        return np.log(eta) - math.log(rest)

    def probabilities(self, theta: NDArray) -> NDArray:
        """Full probability vector over all ``num_categories`` indices."""
        mean = self.to_mean(theta)
        return np.concatenate([[1.0 - float(np.sum(mean))], mean])

    def log_density(self, theta: NDArray, z: int) -> float:
        stat = self.sufficient_statistic(z)
        return float(stat @ np.asarray(theta, dtype=float)) - self.log_partition(theta)

    def sample(self, theta: NDArray, size: int, rng: np.random.Generator) -> NDArray:
        """i.i.d. category indices in ``1..num_categories``."""
        # float noise in the complement can dip a hair below zero at
        # extreme parameters; clean it up for the sampler only
        probs = np.clip(self.probabilities(theta), 0.0, None)
        probs = probs / probs.sum()
        return rng.choice(self.num_categories, size=size, p=probs) + 1


# ---------------------------------------------------------------------------
# Multivariate normal family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultivariateNormal:
    """Multivariate normal family with a structured second-order block.

    ``structure`` restricts the precision (equivalently the covariance):
    FULL allows any symmetric positive-definite matrix, DIAGONAL restricts
    to independent coordinates, and ISOTROPIC to a shared variance. The
    base measure is ``(2 pi)^(-dim/2)``.
    """

    dim: int
    structure: Structure = Structure.FULL

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def second_dim(self) -> int:
        if self.structure is Structure.FULL:
            return self.dim * (self.dim + 1) // 2
        if self.structure is Structure.DIAGONAL:
            return self.dim
        return 1

    @property
    def param_dim(self) -> int:
        return self.dim + self.second_dim

    # -- packing -----------------------------------------------------------

    def _vectors(self, vec: NDArray, length: int, what: str) -> NDArray:
        """``vec`` as floats: one vector of ``length``, or a stack (FULL only)."""
        vec = np.asarray(vec, dtype=float)
        ranks = (1, 2) if self.structure is Structure.FULL else (1,)
        if vec.ndim not in ranks or vec.shape[-1] != length:
            raise ValueError(f"expected {what} of length {length}, got {vec.shape}")
        return vec

    def _unpack(self, packed: NDArray) -> NDArray:
        """Dense symmetric matrices from packed lower triangles (FULL)."""
        n = self.dim
        rows, cols = _tril_rows_cols(n)
        mat = np.empty(packed.shape[:-1] + (n, n))
        mat[..., rows, cols] = packed
        mat[..., cols, rows] = packed
        return mat

    def split_natural(self, theta: NDArray) -> tuple[NDArray, NDArray]:
        """Split a flat natural vector into ``(theta_mu, Theta)``.

        ``Theta`` comes back as a dense symmetric matrix regardless of
        structure; stored off-diagonal entries are halved on the way out so
        that the matrix satisfies ``x . Theta . x = dot(s_2(x), theta_2)``.
        """
        theta = self._vectors(theta, self.param_dim, "natural vector")
        n = self.dim
        first = theta[..., :n].copy()
        packed = theta[..., n:]
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(n)
            mat = self._unpack(np.where(rows != cols, 0.5 * packed, packed))
        elif self.structure is Structure.DIAGONAL:
            mat = np.diag(packed)
        else:
            mat = packed[0] * np.eye(n)
        return first, mat

    def join_natural(self, first: NDArray, second: NDArray) -> NDArray:
        """Pack ``(theta_mu, Theta)`` into a flat natural vector.

        ``second`` may be the dense symmetric matrix, a diagonal vector
        (DIAGONAL), or a scalar (ISOTROPIC).
        """
        first = self._vectors(first, self.dim, "first-order block")
        second = np.asarray(second, dtype=float)
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(self.dim)
            tri = second[..., rows, cols]
            packed = np.where(rows != cols, 2.0 * tri, tri)
        elif self.structure is Structure.DIAGONAL:
            packed = np.diag(second) if second.ndim == 2 else second
        else:
            packed = np.atleast_1d(second[0, 0] if second.ndim == 2 else second)
        return np.concatenate([first, packed], axis=-1)

    def split_mean(self, eta: NDArray) -> tuple[NDArray, NDArray]:
        """Split a flat mean vector into ``(E[x], second moments)``.

        The second element is a dense symmetric matrix for FULL structure,
        the vector of ``E[x_i^2]`` for DIAGONAL, and the scalar
        ``E[sum_i x_i^2]`` for ISOTROPIC.
        """
        eta = self._vectors(eta, self.param_dim, "mean vector")
        n = self.dim
        first = eta[..., :n].copy()
        packed = eta[..., n:]
        if self.structure is Structure.FULL:
            return first, self._unpack(packed)
        if self.structure is Structure.DIAGONAL:
            return first, packed.copy()
        return first, packed[0]

    def join_mean(self, first: NDArray, second) -> NDArray:
        first = self._vectors(first, self.dim, "first-order block")
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(self.dim)
            second = np.asarray(second, dtype=float)[..., rows, cols]
            return np.concatenate([first, second], axis=-1)
        if self.structure is Structure.DIAGONAL:
            second = np.asarray(second, dtype=float)
            if second.ndim == 2:
                second = np.diag(second)
            return np.concatenate([first, second])
        scalar = float(np.trace(second)) if np.ndim(second) == 2 else float(second)
        return np.concatenate([first, [scalar]])

    # -- sufficient statistics ----------------------------------------------

    def _points(self, xs: NDArray) -> NDArray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {xs.shape}")
        return xs

    def sufficient_statistic(self, x: NDArray) -> NDArray:
        """Flat minimal sufficient statistic ``(x, packed(x (x) x))``."""
        return self.sufficient_statistics(np.asarray(x, dtype=float)[None, :])[0]

    def sufficient_statistics(self, xs: NDArray) -> NDArray:
        """Batched sufficient statistics, shape ``(len(xs), param_dim)``."""
        xs = self._points(xs)
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(self.dim)
            second = xs[:, rows] * xs[:, cols]
        elif self.structure is Structure.DIAGONAL:
            second = xs**2
        else:
            second = np.sum(xs**2, axis=1, keepdims=True)
        return np.concatenate([xs, second], axis=1)

    def dot_statistics(self, theta: NDArray, xs: NDArray) -> NDArray:
        """Rows of ``sufficient_statistics(xs) @ theta`` without forming them.

        Structured blocks contract without the (N, n) squares; an isotropic
        block's one entry broadcasts over the coordinates.
        """
        xs = self._points(xs)
        n = self.dim
        theta = np.asarray(theta, dtype=float)
        linear = xs @ theta[:n]
        if self.structure is Structure.FULL:
            _, second = self.split_natural(theta)
            return linear + np.einsum("ni,ij,nj->n", xs, second, xs)
        return linear + np.einsum("ni,i,ni->n", xs, theta[n:], xs)

    def mean_statistics(self, xs: NDArray) -> NDArray:
        """Average sufficient statistic over the rows of ``xs``."""
        xs = self._points(xs)
        count = len(xs)
        mean = xs.mean(axis=0)
        if self.structure is Structure.FULL:
            return self.join_mean(mean, xs.T @ xs / count)
        squares = np.einsum("ni,ni->i", xs, xs) / count
        if self.structure is Structure.DIAGONAL:
            return self.join_mean(mean, squares)
        return self.join_mean(mean, float(np.sum(squares)))

    def log_base_measure(self, x: NDArray) -> float:
        return -0.5 * self.dim * LOG_2PI

    # -- scale factorization --------------------------------------------------

    def _scale(self, theta: NDArray, context: str = "normal natural parameters"):
        """Factor the positive-definite matrix ``A = -2 Theta``.

        Returns the pieces subsequent computations need: a solver for
        ``A^{-1} v``, ``log det A``, and the covariance ``A^{-1}`` (its
        diagonal for structured blocks, which never materialize a dense
        matrix here). Raises DomainError when the definiteness constraint
        fails.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(
                f"expected natural vector of length {self.param_dim}, got {theta.shape}"
            )
        n = self.dim
        first = theta[:n]
        if self.structure is Structure.FULL:
            _, second = self.split_natural(theta)
            cov, logdet = _spd_inverse(-2.0 * second, context)
            logdet = float(logdet)

            def solve(v: NDArray) -> NDArray:
                return cov @ v

        else:
            diag = -2.0 * theta[n:]
            if np.any(diag <= 0.0):
                raise DomainError(f"{context}: second-order block is not negative")
            if self.structure is Structure.ISOTROPIC:
                diag = np.full(n, diag[0])
            logdet = float(np.sum(np.log(diag)))

            def solve(v: NDArray) -> NDArray:
                if v.ndim == 1:
                    return v / diag
                return v / diag[:, None]

            cov = 1.0 / diag
        return first, solve, logdet, cov

    # -- log-partition, forward, backward ------------------------------------

    def log_partition(self, theta: NDArray) -> float:
        """psi(theta) = -1/4 theta_mu . Theta^-1 . theta_mu - 1/2 log|-2 Theta|.

        Computed through a symmetric factorization of ``-2 Theta``; the
        Gaussian base measure is accounted for in ``log_density``, not here.
        """
        first, solve, logdet, _ = self._scale(theta)
        return 0.5 * float(first @ solve(first)) - 0.5 * logdet

    def log_partition_batch(self, firsts: NDArray, second: NDArray) -> NDArray:
        """Log-partition over rows of first-order parameters.

        All rows share the dense second-order block ``second``; this is the
        shape of every conjugation computation downstream, where only the
        first-order block varies across data points.
        """
        theta0 = self.join_natural(np.zeros(self.dim), second)
        _, solve, logdet, _ = self._scale(theta0)
        solved = solve(firsts.T)
        return 0.5 * np.einsum("ni,in->n", firsts, solved) - 0.5 * logdet

    def to_mean(self, theta: NDArray) -> NDArray:
        """Forward mapping to flat mean coordinates (gradient of psi)."""
        first, solve, _, cov = self._scale(theta)
        mu = solve(first)
        if self.structure is Structure.FULL:
            return self.join_mean(mu, cov + np.outer(mu, mu))
        if self.structure is Structure.DIAGONAL:
            return self.join_mean(mu, cov + mu**2)
        return self.join_mean(mu, float(np.sum(cov) + mu @ mu))

    def to_mean_batch(self, firsts: NDArray, second: NDArray) -> tuple[NDArray, NDArray]:
        """Posterior moments for rows sharing one second-order block.

        Returns ``(means, cov)`` where ``means`` has shape ``(N, dim)`` and
        ``cov`` is the shared dense covariance ``(-2 Theta)^{-1}``.
        """
        theta0 = self.join_natural(np.zeros(self.dim), second)
        _, solve, _, cov = self._scale(theta0)
        means = solve(firsts.T).T
        if self.structure is not Structure.FULL:
            cov = np.diag(cov)
        return means, cov

    def to_natural(self, eta: NDArray) -> NDArray:
        """Backward mapping from flat mean coordinates."""
        mu, second = self.split_mean(eta)
        if self.structure is Structure.FULL:
            return self.from_mean_cov(mu, second - np.outer(mu, mu))
        if self.structure is Structure.DIAGONAL:
            return self.from_mean_cov(mu, second - mu**2)
        return self.from_mean_cov(mu, (second - float(mu @ mu)) / self.dim)

    # -- standard-form bridges ------------------------------------------------

    def from_mean_cov(self, mu: NDArray, sigma) -> NDArray:
        """Natural parameters from ``(mu, Sigma)``.

        ``sigma`` is a dense matrix for FULL structure, a variance vector
        for DIAGONAL, and a scalar variance for ISOTROPIC. ``theta_mu =
        Sigma^-1 mu`` and ``Theta = -1/2 Sigma^-1``. FULL structure also
        converts a stack, means ``(k, dim)`` with covariances ``(k, dim,
        dim)``, in one pass; a non-finite or indefinite covariance anywhere
        in it raises DomainError.
        """
        mu = self._vectors(mu, self.dim, "mean")
        if self.structure is Structure.FULL:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != mu.shape + (self.dim,):
                raise ValueError(
                    f"expected covariance of shape {mu.shape + (self.dim,)}, "
                    f"got {sigma.shape}"
                )
            inv, _ = _spd_inverse(sigma, "covariance")
            return self.join_natural((inv @ mu[..., None])[..., 0], -0.5 * inv)
        if self.structure is Structure.DIAGONAL:
            var = np.asarray(sigma, dtype=float)
            if var.ndim == 2:
                var = np.diag(var)
            if np.any(var <= 0.0):
                raise DomainError("diagonal covariance must be positive")
            return self.join_natural(mu / var, -0.5 / var)
        var = float(sigma)
        if var <= 0.0:
            raise DomainError("isotropic variance must be positive")
        return self.join_natural(mu / var, -0.5 / var)

    def to_mean_cov(self, theta: NDArray) -> tuple[NDArray, NDArray]:
        """Standard parameters ``(mu, Sigma)`` in structure shape."""
        first, solve, _, cov = self._scale(theta)
        mu = solve(first)
        if self.structure is Structure.ISOTROPIC:
            return mu, float(cov[0])
        return mu, cov

    # -- densities and sampling -----------------------------------------------

    def log_density(self, theta: NDArray, x: NDArray) -> float:
        stat = self.sufficient_statistic(x)
        return (
            float(stat @ np.asarray(theta, dtype=float))
            - self.log_partition(theta)
            + self.log_base_measure(x)
        )

    def log_densities(self, theta: NDArray, xs: NDArray) -> NDArray:
        stats = self.sufficient_statistics(xs)
        psi = self.log_partition(theta)
        return stats @ np.asarray(theta, dtype=float) - psi + self.log_base_measure(xs)

    def sample(self, theta: NDArray, size: int, rng: np.random.Generator) -> NDArray:
        """i.i.d. draws, shape ``(size, dim)``; deterministic given ``rng``."""
        mu, cov = self.to_mean_cov(theta)
        noise = rng.standard_normal((size, self.dim))
        if self.structure is Structure.FULL:
            return mu + noise @ _cholesky(cov, "covariance").T
        return mu + noise * np.sqrt(cov)
