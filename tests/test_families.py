"""Exponential family primitives: statistics, partitions, mappings, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp, softmax

from hmog.families import (
    Categorical,
    DomainError,
    MultivariateNormal,
    Structure,
    _spd_inverse,
    log_sum_exp,
    normalize_logits,
)

ALL_STRUCTURES = [Structure.FULL, Structure.DIAGONAL, Structure.ISOTROPIC]


def random_natural(fam: MultivariateNormal, rng: np.random.Generator) -> np.ndarray:
    """A random valid natural vector for the family."""
    mu = rng.normal(size=fam.dim)
    if fam.structure is Structure.FULL:
        a = rng.normal(size=(fam.dim, fam.dim))
        sigma = a @ a.T + fam.dim * np.eye(fam.dim)
    elif fam.structure is Structure.DIAGONAL:
        sigma = rng.uniform(0.3, 2.5, fam.dim)
    else:
        sigma = float(rng.uniform(0.3, 2.5))
    return fam.from_mean_cov(mu, sigma)


def finite_difference_gradient(func, theta, step=1e-6):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (func(hi) - func(lo)) / (2 * step)
    return grad


class TestCategoricalSufficientStatistic:
    def test_reference_category_is_zero(self):
        fam = Categorical(3)
        np.testing.assert_array_equal(fam.sufficient_statistic(1), [0.0, 0.0])

    def test_indicator_position(self):
        fam = Categorical(3)
        np.testing.assert_array_equal(fam.sufficient_statistic(3), [0.0, 1.0])

    def test_single_category_is_empty(self):
        fam = Categorical(1)
        assert fam.sufficient_statistic(1).shape == (0,)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Categorical(3).sufficient_statistic(4)
        with pytest.raises(ValueError):
            Categorical(3).sufficient_statistic(0)

    def test_batch_matches_single(self):
        fam = Categorical(4)
        zs = np.array([1, 2, 3, 4, 2])
        batch = fam.sufficient_statistics(zs)
        for row, z in zip(batch, zs):
            np.testing.assert_array_equal(row, fam.sufficient_statistic(int(z)))


class TestCategoricalLogPartition:
    def test_uniform(self):
        assert Categorical(3).log_partition(np.zeros(2)) == pytest.approx(math.log(3))

    def test_empty_sum(self):
        assert Categorical(1).log_partition(np.zeros(0)) == 0.0

    def test_overflow_safe(self):
        value = Categorical(2).log_partition(np.array([1000.0]))
        assert value == pytest.approx(1000.0, abs=1e-9)
        assert np.isfinite(value)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Categorical(2).log_partition(np.array([np.inf]))


class TestCategoricalMappings:
    def test_uniform_forward(self):
        np.testing.assert_allclose(
            Categorical(3).to_mean(np.zeros(2)), [1 / 3, 1 / 3], atol=1e-14
        )

    def test_forward_known_value(self):
        np.testing.assert_allclose(
            Categorical(2).to_mean(np.array([math.log(2)])), [2 / 3], atol=1e-14
        )

    def test_forward_is_log_partition_gradient(self):
        rng = np.random.default_rng(11)
        fam = Categorical(5)
        for _ in range(10):
            theta = rng.normal(size=4)
            grad = finite_difference_gradient(fam.log_partition, theta)
            np.testing.assert_allclose(fam.to_mean(theta), grad, rtol=1e-5, atol=1e-8)

    def test_uniform_backward(self):
        np.testing.assert_allclose(
            Categorical(3).to_natural(np.array([1 / 3, 1 / 3])), [0.0, 0.0], atol=1e-14
        )

    def test_backward_known_value(self):
        np.testing.assert_allclose(
            Categorical(2).to_natural(np.array([2 / 3])), [math.log(2)], atol=1e-12
        )

    @given(st.lists(st.floats(-8, 8), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=50)
    def test_round_trip(self, values):
        theta = np.asarray(values)
        fam = Categorical(len(values) + 1)
        recovered = fam.to_natural(fam.to_mean(theta))
        np.testing.assert_allclose(recovered, theta, atol=1e-10)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            Categorical(3).to_natural(np.array([0.0, 0.5]))
        with pytest.raises(DomainError):
            Categorical(2).to_natural(np.array([1.0]))


class TestNormalizeLogits:
    """Column-wise log-sum-exp and softmax of (k, N) logits against scipy."""

    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("spread", [1.0, 700.0])
    def test_matches_scipy(self, k, spread):
        rng = np.random.default_rng(70 + k)
        logits = rng.uniform(-spread, spread, size=(k, 300))
        logits[:, :4] = rng.uniform(-spread, spread, size=4)  # equal in each column
        expected_lse = logsumexp(logits, axis=0)
        expected_probs = softmax(logits, axis=0)

        lse = log_sum_exp(logits.copy())
        work = logits.copy()
        lse_too, probs = normalize_logits(work)
        assert lse.shape == lse_too.shape == (300,)
        assert probs.shape == (k, 300)
        assert probs is work  # normalized in place, nothing transposed or copied
        np.testing.assert_array_equal(lse, lse_too)
        np.testing.assert_allclose(lse, expected_lse, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(probs, expected_probs, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(lse[:4], logits[0, :4] + math.log(k))
        np.testing.assert_allclose(probs[:, :4], 1.0 / k, rtol=1e-15, atol=0)


class TestCategoricalBatch:
    """The batch helpers keep one row per point on top of the (k, N) helper."""

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_shapes_and_values(self, k):
        rng = np.random.default_rng(80 + k)
        count = 37
        thetas = rng.uniform(-30.0, 30.0, size=(count, k - 1))
        logits = np.hstack([np.zeros((count, 1)), thetas])
        fam = Categorical(k)

        psi = fam.log_partition_batch(thetas)
        means = fam.to_mean_batch(thetas)
        probs = fam.probabilities_batch(thetas)
        assert psi.shape == (count,)
        assert means.shape == (count, k - 1)
        assert probs.shape == (count, k)
        expected_psi, expected_probs = logsumexp(logits, axis=1), softmax(logits, axis=1)
        np.testing.assert_allclose(psi, expected_psi, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(probs, expected_probs, rtol=1e-12, atol=1e-300)
        np.testing.assert_array_equal(means, probs[:, 1:])
        for theta, row in zip(thetas, means):
            np.testing.assert_allclose(fam.to_mean(theta), row, rtol=1e-12, atol=1e-300)


class TestMvnSufficientStatistic:
    def test_full_lower_triangle(self):
        fam = MultivariateNormal(2, Structure.FULL)
        stat = fam.sufficient_statistic(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(stat, [1.0, 2.0, 1.0, 2.0, 4.0])

    def test_diagonal(self):
        fam = MultivariateNormal(2, Structure.DIAGONAL)
        stat = fam.sufficient_statistic(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(stat, [1.0, 2.0, 1.0, 4.0])

    def test_isotropic_trace(self):
        fam = MultivariateNormal(2, Structure.ISOTROPIC)
        stat = fam.sufficient_statistic(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(stat, [1.0, 2.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultivariateNormal(3).sufficient_statistic(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_pairing_recovers_quadratic_form(self, structure):
        """dot(s(x), theta) equals x . theta_mu + x . Theta . x exactly."""
        rng = np.random.default_rng(3)
        fam = MultivariateNormal(4, structure)
        for _ in range(20):
            theta = random_natural(fam, rng)
            x = rng.normal(size=4)
            first, second = fam.split_natural(theta)
            expected = x @ first + x @ second @ x
            actual = fam.sufficient_statistic(x) @ theta
            assert actual == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_batch_helpers_match_materialized_statistics(self, structure):
        rng = np.random.default_rng(4)
        fam = MultivariateNormal(4, structure)
        xs = rng.normal(size=(30, 4))
        theta = random_natural(fam, rng)
        stats = fam.sufficient_statistics(xs)
        np.testing.assert_allclose(fam.dot_statistics(theta, xs), stats @ theta, atol=1e-12)
        np.testing.assert_allclose(fam.mean_statistics(xs), stats.mean(axis=0), atol=1e-12)
        with pytest.raises(ValueError):
            fam.dot_statistics(theta, xs[:, :3])


class TestMvnLogPartition:
    def test_standard_normal_1d(self):
        fam = MultivariateNormal(1)
        theta = fam.join_natural(np.zeros(1), np.array([[-0.5]]))
        assert fam.log_partition(theta) == pytest.approx(0.0, abs=1e-14)

    def test_unit_mean_1d(self):
        """mu = sigma^2 = 1 gives psi = mu^2/(2 sigma^2) + log(sigma)/... = 1/2."""
        fam = MultivariateNormal(1)
        theta = fam.join_natural(np.ones(1), np.array([[-0.5]]))
        assert fam.log_partition(theta) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_indefinite(self):
        fam = MultivariateNormal(2)
        theta = fam.join_natural(np.zeros(2), np.diag([0.5, -0.5]))
        with pytest.raises(DomainError):
            fam.log_partition(theta)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_density_normalizes_1d(self, structure):
        rng = np.random.default_rng(5)
        fam = MultivariateNormal(1, structure)
        theta = random_natural(fam, rng)
        total, _ = quad(lambda x: math.exp(fam.log_density(theta, np.array([x]))), -30, 30)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_normalizes_2d(self):
        rng = np.random.default_rng(6)
        fam = MultivariateNormal(2, Structure.FULL)
        theta = random_natural(fam, rng)
        total, _ = dblquad(
            lambda y, x: math.exp(fam.log_density(theta, np.array([x, y]))),
            -15, 15, -15, 15, epsabs=1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestMvnMappings:
    def test_standard_normal_moments(self):
        fam = MultivariateNormal(2)
        theta = fam.join_natural(np.zeros(2), -0.5 * np.eye(2))
        mu, second = fam.split_mean(fam.to_mean(theta))
        np.testing.assert_allclose(mu, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(second, np.eye(2), atol=1e-14)

    def test_unit_mean_second_moment(self):
        fam = MultivariateNormal(1)
        theta = fam.join_natural(np.ones(1), np.array([[-0.5]]))
        eta = fam.to_mean(theta)
        np.testing.assert_allclose(eta, [1.0, 2.0], atol=1e-13)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_forward_is_log_partition_gradient(self, structure, dim):
        rng = np.random.default_rng(dim)
        fam = MultivariateNormal(dim, structure)
        theta = random_natural(fam, rng)
        grad = finite_difference_gradient(fam.log_partition, theta)
        np.testing.assert_allclose(fam.to_mean(theta), grad, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_backward_round_trip(self, structure, dim):
        rng = np.random.default_rng(10 * dim)
        fam = MultivariateNormal(dim, structure)
        for _ in range(5):
            theta = random_natural(fam, rng)
            recovered = fam.to_natural(fam.to_mean(theta))
            np.testing.assert_allclose(recovered, theta, rtol=1e-8, atol=1e-8)

    def test_backward_known_value(self):
        fam = MultivariateNormal(1)
        theta = fam.to_natural(np.array([1.0, 2.0]))
        np.testing.assert_allclose(theta, fam.join_natural(np.ones(1), [[-0.5]]), atol=1e-12)

    def test_backward_rejects_singular(self):
        fam = MultivariateNormal(2)
        eta = fam.join_mean(np.array([1.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(DomainError):
            fam.to_natural(eta)


class TestStandardBridges:
    def test_standard_normal(self):
        fam = MultivariateNormal(2)
        theta = fam.from_mean_cov(np.zeros(2), np.eye(2))
        np.testing.assert_allclose(
            theta, fam.join_natural(np.zeros(2), -0.5 * np.eye(2)), atol=1e-14
        )

    def test_scaled(self):
        fam = MultivariateNormal(2)
        theta = fam.from_mean_cov(np.array([1.0, 0.0]), 2.0 * np.eye(2))
        np.testing.assert_allclose(
            theta, fam.join_natural([0.5, 0.0], -0.25 * np.eye(2)), atol=1e-14
        )

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_round_trip(self, structure):
        rng = np.random.default_rng(21)
        fam = MultivariateNormal(3, structure)
        theta = random_natural(fam, rng)
        mu, sigma = fam.to_mean_cov(theta)
        np.testing.assert_allclose(fam.from_mean_cov(mu, sigma), theta, atol=1e-10)

    def test_rejects_indefinite_covariance(self):
        fam = MultivariateNormal(2)
        with pytest.raises(DomainError):
            fam.from_mean_cov(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    # -1.0 leaves the covariance finite but indefinite: same message
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_covariance(self, bad):
        fam = MultivariateNormal(2)
        sigma = np.stack([np.eye(2), np.eye(2)])
        sigma[1, 0, 0] = bad
        for mu, cov in ((np.zeros(2), sigma[1]), (np.zeros((2, 2)), sigma)):
            with pytest.raises(
                DomainError, match="^covariance: matrix is not positive-definite$"
            ):
                fam.from_mean_cov(mu, cov)


def stacked_rows(value, i):
    """Row ``i`` of a stacked helper result, a flat array or a pair of them."""
    return tuple(v[i] for v in value) if isinstance(value, tuple) else (value[i],)


class TestStackedHelpers:
    """FULL-structure helpers convert a (k, .) stack row by row, as if alone."""

    @given(
        k=st.sampled_from([1, 3]),
        m=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_stack_matches_rows(self, k, m, seed):
        rng = np.random.default_rng(seed)
        fam = MultivariateNormal(m, Structure.FULL)
        mus = rng.normal(size=(k, m)) * 2.0
        a = rng.normal(size=(k, m, m))
        sigmas = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(m)
        thetas = fam.from_mean_cov(mus, sigmas)
        etas = rng.normal(size=(k, fam.param_dim))
        nat_first, nat_second = fam.split_natural(thetas)
        mean_first, mean_second = fam.split_mean(etas)
        stacked = {
            "from_mean_cov": thetas,
            "split_natural": (nat_first, nat_second),
            "split_mean": (mean_first, mean_second),
            "join_natural": fam.join_natural(nat_first, nat_second),
            "join_mean": fam.join_mean(mean_first, mean_second),
        }
        assert thetas.shape == etas.shape == (k, fam.param_dim)
        for i in range(k):
            rows = {
                "from_mean_cov": fam.from_mean_cov(mus[i], sigmas[i]),
                "split_natural": fam.split_natural(thetas[i]),
                "split_mean": fam.split_mean(etas[i]),
                "join_natural": fam.join_natural(nat_first[i], nat_second[i]),
                "join_mean": fam.join_mean(mean_first[i], mean_second[i]),
            }
            for name, row in rows.items():
                row = row if isinstance(row, tuple) else (row,)
                for got, want in zip(stacked_rows(stacked[name], i), row, strict=True):
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(stacked["join_natural"], thetas)
        np.testing.assert_array_equal(stacked["join_mean"], etas)

    @pytest.mark.parametrize("k, m", [(1, 1), (4, 3), (2, 5)])
    def test_spd_inverse_matches_numpy_rows(self, k, m):
        rng = np.random.default_rng(10 * k + m)
        a = rng.normal(size=(k, m, m))
        stack = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(m)
        inverse, logdet = _spd_inverse(stack, "covariance")
        assert inverse.shape == (k, m, m) and logdet.shape == (k,)
        for i in range(k):
            sign, want = np.linalg.slogdet(stack[i])
            assert sign == 1.0
            np.testing.assert_allclose(
                inverse[i], np.linalg.inv(stack[i]), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(logdet[i], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("structure", [Structure.DIAGONAL, Structure.ISOTROPIC])
    def test_stacks_rejected_for_structured_families(self, structure):
        fam = MultivariateNormal(3, structure)
        stack = np.ones((2, fam.param_dim))
        for helper in (fam.split_natural, fam.split_mean):
            with pytest.raises(ValueError, match="expected"):
                helper(stack)
        with pytest.raises(ValueError, match="expected"):
            fam.from_mean_cov(np.zeros((2, 3)), np.ones(3))

    def test_wrong_trailing_length_rejected(self):
        fam = MultivariateNormal(2, Structure.FULL)
        for helper in (fam.split_natural, fam.split_mean):
            with pytest.raises(ValueError, match="expected"):
                helper(np.zeros((3, fam.param_dim + 1)))
            with pytest.raises(ValueError, match="expected"):
                helper(np.zeros((2, 3, fam.param_dim)))
        with pytest.raises(ValueError, match="expected"):
            fam.join_natural(np.zeros((3, 3)), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="expected covariance of shape"):
            fam.from_mean_cov(np.zeros((3, 2)), np.stack([np.eye(2)] * 2))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        fam = MultivariateNormal(1)
        theta = fam.from_mean_cov(np.zeros(1), np.array([[1.0]]))
        expected = -0.5 * math.log(2 * math.pi)
        assert fam.log_density(theta, np.zeros(1)) == pytest.approx(expected, abs=1e-14)

    def test_categorical_uniform(self):
        fam = Categorical(3)
        assert fam.log_density(np.zeros(2), 2) == pytest.approx(math.log(1 / 3))

    def test_categorical_sums_to_one(self):
        rng = np.random.default_rng(9)
        fam = Categorical(4)
        theta = rng.normal(size=3)
        total = sum(math.exp(fam.log_density(theta, z)) for z in range(1, 5))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        fam = MultivariateNormal(3, Structure.DIAGONAL)
        theta = random_natural(fam, rng)
        xs = rng.normal(size=(6, 3))
        batch = fam.log_densities(theta, xs)
        singles = [fam.log_density(theta, x) for x in xs]
        np.testing.assert_allclose(batch, singles, atol=1e-13)


class TestSampling:
    def test_normal_sample_moments(self):
        """1e5 standard-normal draws land within the 4 sigma / sqrt(N) band."""
        fam = MultivariateNormal(2)
        theta = fam.from_mean_cov(np.zeros(2), np.eye(2))
        draws = fam.sample(theta, 100_000, np.random.default_rng(0))
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_categorical_sample_frequencies(self):
        fam = Categorical(3)
        draws = fam.sample(np.zeros(2), 100_000, np.random.default_rng(1))
        freqs = np.bincount(draws, minlength=4)[1:] / len(draws)
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.01)

    @pytest.mark.parametrize("structure", ALL_STRUCTURES)
    def test_deterministic_given_seed(self, structure):
        fam = MultivariateNormal(3, structure)
        theta = random_natural(fam, np.random.default_rng(2))
        first = fam.sample(theta, 50, np.random.default_rng(7))
        second = fam.sample(theta, 50, np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)

    def test_sample_covariance_matches(self):
        rng = np.random.default_rng(3)
        fam = MultivariateNormal(2, Structure.FULL)
        sigma = np.array([[2.0, 0.7], [0.7, 1.0]])
        theta = fam.from_mean_cov(np.array([1.0, -1.0]), sigma)
        draws = fam.sample(theta, 200_000, rng)
        np.testing.assert_allclose(np.cov(draws.T), sigma, atol=0.05)
