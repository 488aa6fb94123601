"""Exponential family primitives: statistics, partitions, mappings, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import logsumexp, softmax

from hmog.families import (
    EXP_FLOOR,
    Categorical,
    DomainError,
    MultivariateNormal,
    Structure,
    _exp_shifted,
    _spd_inverse,
    log_sum_exp,
    normalize_logits,
)
from hmog.hierarchical import hmog_classify_batch
from hmog.pipeline import default_synthetic_hmog, gen_synthetic

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

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_probabilities_match_softmax(self, k):
        """Every category, the reference one too, off one normalized logit column."""
        rng = np.random.default_rng(90 + k)
        fam = Categorical(k)
        for theta in rng.uniform(-40.0, 40.0, size=(50, k - 1)):
            expected = softmax(np.concatenate([[0.0], theta]))
            np.testing.assert_allclose(
                fam.probabilities(theta), expected, rtol=1e-12, atol=1e-300
            )

    def test_reference_probability_at_large_parameters(self):
        """At theta = [40, 40] the reference category keeps its 2.1e-18."""
        probs = Categorical(3).probabilities(np.array([40.0, 40.0]))
        expected = softmax(np.array([0.0, 40.0, 40.0]))
        np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=1e-300)

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


def beyond_floor_logits() -> np.ndarray:
    """(8, 400) logits spread far below their column maxima.

    The first four columns have their maximum 0 in row 0 and hold, in row
    1, a logit at ``EXP_FLOOR`` exactly, just above it, just below it, and
    where ``exp`` returns a subnormal or zero.
    """
    rng = np.random.default_rng(71)
    logits = rng.uniform(-2000.0, 0.0, size=(8, 400))
    edges = [EXP_FLOOR, EXP_FLOOR + 1e-9, EXP_FLOOR - 1e-9, -745.5]
    logits[0, : len(edges)] = 0.0
    logits[1, : len(edges)] = edges
    return logits


class TestNormalizeLogits:
    """Column-wise log-sum-exp and softmax of (k, N) logits against scipy.

    Terms at or below ``e^EXP_FLOOR`` of their column maximum are flushed to
    exactly 0 before ``exp``; nothing else changes.
    """

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

    def test_totals_bit_equal_and_posteriors_flushed(self):
        """Totals as the plain max-shift formula's; flushed posteriors are 0."""
        logits = beyond_floor_logits()
        top = np.max(logits, axis=0)
        plain = np.exp(logits - top)
        plain_total = np.sum(plain, axis=0)
        plain_lse = top + np.log(plain_total)
        flushed = logits - top <= EXP_FLOOR
        np.testing.assert_array_equal(flushed[1, :4], [True, False, True, True])
        assert 0.1 < flushed.mean() < 0.9

        lse, total = _exp_shifted(logits.copy())
        np.testing.assert_array_equal(lse, plain_lse)
        np.testing.assert_array_equal(total, plain_total)
        np.testing.assert_array_equal(log_sum_exp(logits.copy()), plain_lse)
        lse_too, probs = normalize_logits(logits.copy())
        np.testing.assert_array_equal(lse_too, plain_lse)
        np.testing.assert_allclose(lse, logsumexp(logits, axis=0), rtol=1e-14, atol=1e-14)
        assert np.all(probs[flushed] == 0.0)
        expected = softmax(logits, axis=0)
        np.testing.assert_allclose(probs[~flushed], expected[~flushed], rtol=1e-12, atol=0)
        assert probs[1, 1] > 0.0

    def test_empty_batch(self):
        """The floor check reduces over no entries without failing."""
        lse = log_sum_exp(np.zeros((3, 0)))
        lse_too, probs = normalize_logits(np.zeros((3, 0)))
        assert lse.shape == lse_too.shape == (0,)
        assert probs.shape == (3, 0)

    @staticmethod
    def smallest_exp_arguments(monkeypatch) -> list[float]:
        """Record the smallest argument of every later ``np.exp`` call."""
        seen, exp = [], np.exp

        def spy(x, *args, **kwargs):
            seen.append(float(np.min(x, initial=np.inf)))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        return seen

    def test_log_sum_exp_stays_on_the_fast_path(self, monkeypatch):
        logits = beyond_floor_logits()
        seen = self.smallest_exp_arguments(monkeypatch)
        log_sum_exp(logits.copy())
        normalize_logits(logits.copy())
        assert len(seen) == 2
        assert min(seen) == EXP_FLOOR  # terms were flushed, none passed below

    def test_classify_stays_on_the_fast_path(self, monkeypatch):
        """Well-separated clusters put posterior logits far below the floor."""
        model = default_synthetic_hmog(8, 5, 50)
        points = gen_synthetic(model, 300, 3).points
        seen = self.smallest_exp_arguments(monkeypatch)
        probs = hmog_classify_batch(model, points)
        assert seen and min(seen) == EXP_FLOOR
        assert np.any(probs == 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)


class TestCategoricalBatch:
    """The forward map keeps one row per point on top of the (k, N) helper."""

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_shapes_and_values(self, k):
        rng = np.random.default_rng(80 + k)
        count = 37
        thetas = rng.uniform(-30.0, 30.0, size=(count, k - 1))
        logits = np.hstack([np.zeros((count, 1)), thetas])
        fam = Categorical(k)

        psi = np.array([fam.log_partition(theta) for theta in thetas])
        means = fam.to_mean_batch(thetas)
        assert means.shape == (count, k - 1)
        expected_psi, expected_probs = logsumexp(logits, axis=1), softmax(logits, axis=1)
        np.testing.assert_allclose(psi, expected_psi, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(means, expected_probs[:, 1:], rtol=1e-12, atol=1e-300)
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


class TestMvnShiftedBatch:
    @pytest.mark.parametrize("dim", [1, 3])
    def test_rows_match_single_evaluations(self, dim):
        """Row i of each batch method is the single method at theta, shifted by row i."""
        rng = np.random.default_rng(40 + dim)
        fam = MultivariateNormal(dim)
        theta = random_natural(fam, rng)
        shifts = rng.normal(size=(7, dim))
        psis = fam.log_partition_batch(theta, shifts)
        means, cov = fam.to_mean_batch(theta, shifts)
        assert psis.shape == (7,) and means.shape == (7, dim)
        for shift, psi, mu in zip(shifts, psis, means):
            shifted = np.concatenate([theta[:dim] + shift, theta[dim:]])
            assert psi == pytest.approx(fam.log_partition(shifted), abs=1e-12)
            np.testing.assert_allclose(
                fam.join_mean(mu, cov + np.outer(mu, mu)), fam.to_mean(shifted),
                rtol=0, atol=1e-12,
            )


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


class TestIsotropicIsTiedDiagonal:
    """Isotropic results equal diagonal ones on tied or pooled inputs."""

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_family_maps(self, dim):
        rng = np.random.default_rng(40 + dim)
        iso = MultivariateNormal(dim, Structure.ISOTROPIC)
        diag = MultivariateNormal(dim, Structure.DIAGONAL)
        for _ in range(10):
            mu = rng.normal(size=dim) * 2.0
            var = float(rng.uniform(0.2, 3.0))
            theta_iso = iso.from_mean_cov(mu, var)
            theta_diag = diag.from_mean_cov(mu, np.full(dim, var))
            # from_mean_cov: the diagonal entries are the tied entry
            np.testing.assert_allclose(theta_iso[:dim], theta_diag[:dim], rtol=1e-12)
            np.testing.assert_allclose(theta_diag[dim:], theta_iso[dim], rtol=1e-12)
            assert iso.log_partition(theta_iso) == pytest.approx(
                diag.log_partition(theta_diag), rel=1e-12, abs=1e-12
            )
            # to_mean: the isotropic second moment is the pooled diagonal one
            eta_iso, eta_diag = iso.to_mean(theta_iso), diag.to_mean(theta_diag)
            np.testing.assert_allclose(eta_iso[:dim], eta_diag[:dim], rtol=1e-12)
            assert eta_iso[dim] == pytest.approx(np.sum(eta_diag[dim:]), rel=1e-12)
            # to_natural of the pooled statistics recovers the tied model
            back = iso.to_natural(eta_iso)
            np.testing.assert_allclose(back[:dim], diag.to_natural(eta_diag)[:dim],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(diag.to_natural(eta_diag)[dim:], back[dim],
                                       rtol=1e-12)
            xs = rng.normal(size=(5, dim))
            stats_iso, stats_diag = iso.sufficient_statistics(xs), diag.sufficient_statistics(xs)
            np.testing.assert_allclose(stats_iso[:, :dim], stats_diag[:, :dim], rtol=0)
            np.testing.assert_allclose(
                stats_iso[:, dim], np.sum(stats_diag[:, dim:], axis=1), rtol=1e-12
            )

    def test_standard_shapes_keep_the_scalar(self):
        """split_mean and to_mean_cov still give the tied entry as a scalar."""
        iso = MultivariateNormal(3, Structure.ISOTROPIC)
        theta = iso.from_mean_cov(np.array([1.0, -2.0, 0.5]), 0.7)
        mu, var = iso.to_mean_cov(theta)
        assert isinstance(var, float) and var == pytest.approx(0.7, rel=1e-15)
        np.testing.assert_allclose(mu, [1.0, -2.0, 0.5], rtol=1e-15)
        _, second = iso.split_mean(iso.to_mean(theta))
        assert np.ndim(second) == 0
        assert second == pytest.approx(3 * 0.7 + 1.0 + 4.0 + 0.25, rel=1e-15)
        # a dense covariance is pooled over the tied coordinates
        pooled = iso.from_mean_cov(mu, np.diag([0.5, 0.7, 0.9]))
        np.testing.assert_allclose(pooled, theta, rtol=1e-15)
        with pytest.raises(ValueError):
            iso.from_mean_cov(mu, np.array([0.5, 0.7, 0.9]))


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
