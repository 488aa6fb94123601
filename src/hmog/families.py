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

Isotropic structure is diagonal structure with its ``n`` entries tied, so
both take one per-coordinate path and only the packing tells them apart: a
tied natural entry repeats over the coordinates, tied second moments pack
by summing, and a natural block packs by keeping its first ``second_dim``
entries.

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
factor nothing themselves; a normal draw around given means goes through
`MultivariateNormal._draw`, which takes a dense covariance's Cholesky
factor or structured variances' square roots.
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
# Shifted logits at or below this skip `exp`, whose vector path slows tenfold
# below about -708, and become exactly 0 (see `_exp_shifted`).
EXP_FLOOR = -700.0


class DomainError(ValueError):
    """Parameters outside the valid domain of a family or model.

    Raised when a definiteness constraint fails (e.g. a covariance loses
    positive-definiteness) or a mean vector sits on the boundary of the
    mean-parameter space. Never silently regularized. ``component`` is the
    1-based mixture component at fault, when one is.
    """

    component: int | None = None


class Structure(enum.Enum):
    """Second-order block constraint of a normal family; ISOTROPIC is tied DIAGONAL."""

    FULL = "full"
    DIAGONAL = "diagonal"
    ISOTROPIC = "isotropic"


@functools.lru_cache(maxsize=None)
def _tril_rows_cols(n: int) -> tuple[NDArray, NDArray]:
    rows, cols = np.tril_indices(n)
    return rows, cols


@functools.lru_cache(maxsize=None)
def _entry_of_coordinate(n: int, entries: int) -> NDArray:
    """Entry of a structured block that each of ``n`` coordinates reads."""
    return np.arange(n) // (n // entries)


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


def _freeze(model, *names: str) -> None:
    """Make the named fields of ``model`` read-only float arrays that no caller writes.

    A writable array is copied, in its own memory layout so that products
    round alike; one already read-only, such as another model's block, is shared.
    """
    for name in names:
        array = np.asarray(getattr(model, name), dtype=float)
        if array.flags.writeable:
            array = array.copy(order="K")
            array.flags.writeable = False
        object.__setattr__(model, name, array)


def _check_shapes(blocks: dict, shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise ValueError ``"<name>: shape (...), expected (...)"`` at the first misfit."""
    for name, shape in shapes.items():
        if blocks[name].shape != shape:
            raise ValueError(f"{name}: shape {blocks[name].shape}, expected {shape}")


def _exp_shifted(logits: NDArray) -> tuple[NDArray, NDArray]:
    """``logits`` (k, N) becomes ``exp(logits - column max)`` in place.

    Returns the column log-sum-exp and the column sums of the exponentials.
    The maximum is factored out before exponentiating, so no entry
    overflows and the largest is exactly ``exp(0)``; terms flushed at
    ``EXP_FLOOR``, under 1e-304, leave both outputs bit for bit unchanged.
    """
    top = np.maximum.reduce(logits, axis=0)
    logits -= top
    if np.minimum.reduce(logits, axis=None, initial=0.0) <= EXP_FLOOR:
        kept = logits > EXP_FLOOR
        np.exp(np.maximum(logits, EXP_FLOOR, out=logits), out=logits)
        logits *= kept
    else:
        np.exp(logits, out=logits)
    total = np.add.reduce(logits, axis=0)
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
    Posteriors of terms flushed at ``EXP_FLOOR`` (all under 1e-304) are 0.
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
    The log-partition, the forward map and the probabilities are all read
    off one column of logits, the reference category's zero on top.
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

    def _padded(self, thetas: NDArray) -> NDArray:
        """Logits (k, N) of rows of ``thetas`` (N, k - 1), the reference's zero first."""
        thetas = np.asarray(thetas, dtype=float)
        return np.vstack([np.zeros(len(thetas)), thetas.T])

    def _column(self, theta: NDArray) -> NDArray:
        """The logit column (k, 1) of one checked natural vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"expected {self.param_dim} natural parameters")
        if not np.all(np.isfinite(theta)):
            raise DomainError("non-finite categorical natural parameters")
        return self._padded(theta[None, :])

    def log_partition(self, theta: NDArray) -> float:
        """log(1 + sum_i exp(theta_i))."""
        return float(log_sum_exp(self._column(theta))[0])

    def to_mean(self, theta: NDArray) -> NDArray:
        """Forward mapping: eta_i = exp(theta_i) / (1 + sum_j exp(theta_j))."""
        return self.probabilities(theta)[1:]

    def to_mean_batch(self, thetas: NDArray) -> NDArray:
        """Probability rows (N, num_categories - 1) of the non-reference categories."""
        return normalize_logits(self._padded(thetas))[1][1:].T

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
        return normalize_logits(self._column(theta))[1][:, 0]

    def log_density(self, theta: NDArray, z: int) -> float:
        stat = self.sufficient_statistic(z)
        return float(stat @ np.asarray(theta, dtype=float)) - self.log_partition(theta)

    def sample(self, theta: NDArray, size: int, rng: np.random.Generator) -> NDArray:
        """i.i.d. category indices in ``1..num_categories``."""
        return rng.choice(self.num_categories, size=size, p=self.probabilities(theta)) + 1


# ---------------------------------------------------------------------------
# Multivariate normal family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultivariateNormal:
    """Multivariate normal family with a structured second-order block.

    ``structure`` restricts the precision (equivalently the covariance):
    FULL allows any symmetric positive-definite matrix, DIAGONAL restricts
    to independent coordinates, and ISOTROPIC to independent coordinates
    whose variances are tied. The base measure is ``(2 pi)^(-dim/2)``.
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
        return 1 if self.structure is Structure.ISOTROPIC else self.dim

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

    def _expand(self, packed: NDArray) -> NDArray:
        """Per-coordinate entries ``(..., dim)`` of a structured block (ties repeat)."""
        return packed[..., _entry_of_coordinate(self.dim, self.second_dim)]

    def _pack(self, per_coordinate: NDArray) -> NDArray:
        """Structured block of per-coordinate second moments: summed when tied."""
        tied = self.structure is Structure.ISOTROPIC
        return np.sum(per_coordinate, axis=-1, keepdims=True) if tied else per_coordinate

    def _pack_squares(self, mu: NDArray) -> NDArray:
        """`_pack` of the squares ``mu_i^2``."""
        return mu @ mu if self.structure is Structure.ISOTROPIC else mu**2

    @property
    def _ties(self) -> int:
        """Coordinates sharing each entry of a structured block."""
        return self.dim // self.second_dim

    def _standard(self, block: NDArray):
        """A copy of a second-order block in standard form: a scalar when tied."""
        tied = self.structure is Structure.ISOTROPIC
        return float(block[0]) if tied else np.array(block)

    def _variances(self, sigma) -> NDArray:
        """Per-coordinate variances of a structured block or of a dense covariance."""
        var = np.asarray(sigma, dtype=float)
        if var.ndim == 2:
            var = self._pack(np.diagonal(var)) / self._ties
        return self._expand(var.reshape(self.second_dim))

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
        else:
            mat = np.diag(self._expand(packed))
        return first, mat

    def join_natural(self, first: NDArray, second: NDArray) -> NDArray:
        """Pack ``(theta_mu, Theta)`` into a flat natural vector.

        ``second`` may be the dense symmetric matrix or, for structured
        blocks, the per-coordinate diagonal (a scalar when tied). A
        structured block keeps its first ``second_dim`` entries.
        """
        first = self._vectors(first, self.dim, "first-order block")
        second = np.asarray(second, dtype=float)
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(self.dim)
            tri = second[..., rows, cols]
            packed = np.where(rows != cols, 2.0 * tri, tri)
        else:
            diagonal = np.diagonal(second) if second.ndim == 2 else np.atleast_1d(second)
            packed = self._expand(diagonal)[: self.second_dim]
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
        return first, self._standard(packed)

    def join_mean(self, first: NDArray, second) -> NDArray:
        """Pack ``(E[x], second moments)``: a dense matrix or `split_mean`'s block."""
        first = self._vectors(first, self.dim, "first-order block")
        second = np.asarray(second, dtype=float)
        if self.structure is Structure.FULL:
            rows, cols = _tril_rows_cols(self.dim)
            return np.concatenate([first, second[..., rows, cols]], axis=-1)
        if second.ndim == 2:
            second = self._pack(np.diagonal(second))
        return np.concatenate([first, second.reshape(self.second_dim)])

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
        else:
            second = self._pack(xs**2)
        return np.concatenate([xs, second], axis=1)

    def dot_statistics(self, theta: NDArray, xs: NDArray) -> NDArray:
        """Rows of ``sufficient_statistics(xs) @ theta`` without forming them.

        Structured blocks contract without the (N, n) squares; an isotropic
        block's one entry broadcasts over the coordinates.
        """
        return self._dot_checked(theta, self._points(xs))

    def _dot_checked(self, theta: NDArray, xs: NDArray) -> NDArray:
        """`dot_statistics` of points that `_points` has already checked."""
        n = self.dim
        theta = np.asarray(theta, dtype=float)
        linear = xs @ theta[:n]
        if self.structure is Structure.FULL:
            _, second = self.split_natural(theta)
            return linear + np.einsum("ni,ij,nj->n", xs, second, xs)
        return linear + np.einsum("ni,i,ni->n", xs, theta[n:], xs)

    def mean_statistics(self, xs: NDArray) -> NDArray:
        """Average sufficient statistic over the rows of ``xs``."""
        return self._mean_checked(self._points(xs))

    def _mean_checked(self, xs: NDArray) -> NDArray:
        """`mean_statistics` of points that `_points` has already checked."""
        count = len(xs)
        mean = xs.mean(axis=0)
        if self.structure is Structure.FULL:
            return self.join_mean(mean, xs.T @ xs / count)
        squares = np.einsum("ni,ni->i", xs, xs) / count
        return self.join_mean(mean, self._pack(squares))

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
            diag = self._expand(diag)
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

    def log_partition_batch(self, theta: NDArray, shifts: NDArray) -> NDArray:
        """Log-partitions of ``theta`` with each row of ``shifts`` added to ``theta_mu``.

        ``theta`` is factored once: this is the shape of every conjugation
        computation downstream, where only the first-order block varies
        across data points, by ``x @ W``.
        """
        first, solve, logdet, _ = self._scale(theta)
        firsts = first + shifts
        return 0.5 * np.einsum("ni,in->n", firsts, solve(firsts.T)) - 0.5 * logdet

    def to_mean(self, theta: NDArray) -> NDArray:
        """Forward mapping to flat mean coordinates (gradient of psi)."""
        first, solve, _, cov = self._scale(theta)
        mu = solve(first)
        if self.structure is Structure.FULL:
            return self.join_mean(mu, cov + np.outer(mu, mu))
        return self.join_mean(mu, self._pack(cov) + self._pack_squares(mu))

    def to_mean_batch(self, theta: NDArray, shifts: NDArray) -> tuple[NDArray, NDArray]:
        """Moments of ``theta`` with each row of ``shifts`` added to ``theta_mu``.

        ``theta`` is factored once. Returns the means ``(N, dim)`` and the
        shared covariance ``(-2 Theta)^{-1}`` as a dense matrix.
        """
        first, solve, _, cov = self._scale(theta)
        means = solve((first + shifts).T).T
        if self.structure is not Structure.FULL:
            cov = np.diag(cov)
        return means, cov

    def to_natural(self, eta: NDArray) -> NDArray:
        """Backward mapping from flat mean coordinates."""
        mu, second = self.split_mean(eta)
        if self.structure is Structure.FULL:
            return self.from_mean_cov(mu, second - np.outer(mu, mu))
        return self.from_mean_cov(mu, (second - self._pack_squares(mu)) / self._ties)

    # -- standard-form bridges ------------------------------------------------

    def from_mean_cov(self, mu: NDArray, sigma) -> NDArray:
        """Natural parameters from ``(mu, Sigma)``.

        ``sigma`` is a dense matrix for FULL structure, a variance vector
        for DIAGONAL, and a scalar variance for ISOTROPIC; a dense one gives
        a structured family its diagonal, pooled when tied. ``theta_mu =
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
        var = self._variances(sigma)
        if np.any(var <= 0.0):
            raise DomainError(f"{self.structure.value} variances must be positive")
        return self.join_natural(mu / var, -0.5 / var)

    def to_mean_cov(self, theta: NDArray) -> tuple[NDArray, NDArray]:
        """Standard parameters ``(mu, Sigma)`` in structure shape."""
        first, solve, _, cov = self._scale(theta)
        return solve(first), self._standard(cov)

    # -- densities and sampling -----------------------------------------------

    def log_density(self, theta: NDArray, x: NDArray) -> float:
        stat = self.sufficient_statistic(x)
        return (
            float(stat @ np.asarray(theta, dtype=float))
            - self.log_partition(theta)
            + self.log_base_measure(x)
        )

    def sample(self, theta: NDArray, size: int, rng: np.random.Generator) -> NDArray:
        """i.i.d. draws, shape ``(size, dim)``; deterministic given ``rng``."""
        return self._draw(*self.to_mean_cov(theta), size, rng, "covariance")

    def _draw(self, means: NDArray, cov, size: int, rng, context: str) -> NDArray:
        """``size`` draws around ``means`` of covariance ``cov`` (dense, or variances)."""
        noise = rng.standard_normal((size, self.dim))
        if self.structure is Structure.FULL:
            return means + noise @ _cholesky(cov, context).T
        return means + noise * np.sqrt(cov)
