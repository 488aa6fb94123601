"""Gaussian mixtures as conjugated harmoniums."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from hmog import mixture as mx
from hmog.families import DomainError, MultivariateNormal, Structure
from hmog.harmonium import check_conjugation
from hmog.hierarchical import disassemble_hmog
from hmog.pipeline import default_synthetic_hmog


def random_mog(rng, k, dim):
    weights = rng.dirichlet(np.full(k, 6.0))
    means = rng.normal(size=(k, dim)) * 1.5
    covs = np.stack(
        [np.eye(dim) * u + 0.25 * np.outer(v, v)
         for u, v in zip(rng.uniform(0.4, 1.2, k), rng.normal(size=(k, dim)))]
    )
    return mx.mog_from_standard(weights, means, covs), (weights, means, covs)


def brute_force_log_density(weights, means, covs, y):
    return math.log(
        sum(w * multivariate_normal.pdf(y, m, c) for w, m, c in zip(weights, means, covs))
    )


class TestConjugationParameters:
    def test_zero_interaction(self):
        """No interaction: rho vanishes and rho0 is the base log-partition."""
        lat = MultivariateNormal(2, Structure.FULL)
        base = lat.from_mean_cov(np.zeros(2), np.eye(2))
        model = mx.MixtureModel(
            lat=lat, base_params=base, cat_params=np.zeros(2),
            interaction=np.zeros((lat.param_dim, 2)),
        )
        conj = mx.mixture_conjugation_parameters(model)
        np.testing.assert_array_equal(conj.rho, np.zeros(2))
        assert conj.rho0 == pytest.approx(lat.log_partition(base))

    def test_two_component_residual_exact(self):
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]),
            np.array([[0.0], [1.0]]),
            np.array([[[1.0]], [[1.0]]]),
        )
        conj = mx.mixture_conjugation_parameters(model)
        residual = check_conjugation(mx.as_harmonium(model), conj, probes=[1, 2])
        assert residual < 1e-12

    @pytest.mark.parametrize("k,dim", [(2, 1), (3, 2), (5, 3)])
    def test_residual_exact_at_every_index(self, k, dim):
        rng = np.random.default_rng(k * 10 + dim)
        model, _ = random_mog(rng, k, dim)
        conj = mx.mixture_conjugation_parameters(model)
        residual = check_conjugation(
            mx.as_harmonium(model), conj, probes=list(range(1, k + 1))
        )
        assert residual < 1e-12


class TestForwardMapping:
    def test_single_component(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(size=2)
        cov = np.eye(2) * 0.7
        model = mx.mog_from_standard(np.array([1.0]), mean[None], cov[None])
        eta_y, eta_z, cross = mx.mixture_forward(model)
        assert eta_z.shape == (0,)
        assert cross.shape == (model.lat.param_dim, 0)
        np.testing.assert_allclose(eta_y, model.lat.to_mean(model.base_params), atol=1e-12)

    def test_equal_components_convexity(self):
        mean = np.array([0.5, -0.5])
        cov = np.eye(2) * 0.9
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]), np.stack([mean, mean]), np.stack([cov, cov])
        )
        eta_y, eta_z, _ = mx.mixture_forward(model)
        lone = model.lat.to_mean(model.lat.from_mean_cov(mean, cov))
        np.testing.assert_allclose(eta_y, lone, atol=1e-10)
        np.testing.assert_allclose(eta_z, [0.5], atol=1e-12)

    def test_matches_monte_carlo(self):
        """All three blocks sit within 5 standard errors of 1e6-sample averages."""
        rng = np.random.default_rng(2)
        model, _ = random_mog(rng, 3, 2)
        eta_y, eta_z, cross = mx.mixture_forward(model)
        ys, zs = mx.mog_sample(model, 1_000_000, rng)
        stats_y = model.lat.sufficient_statistics(ys)
        stats_z = model.cat.sufficient_statistics(zs)
        cross_samples = np.einsum("ni,nj->nij", stats_y, stats_z)
        for exact, samples in [
            (eta_y, stats_y),
            (eta_z, stats_z),
            (cross, cross_samples.reshape(len(ys), -1)),
        ]:
            mc = samples.mean(axis=0)
            se = samples.std(axis=0) / math.sqrt(len(ys)) + 1e-12
            deviation = np.abs(np.ravel(exact) - mc) / se
            assert np.max(deviation) < 5.0

    def test_backward_round_trip(self):
        rng = np.random.default_rng(3)
        model, _ = random_mog(rng, 3, 2)
        eta_y, eta_z, cross = mx.mixture_forward(model)
        recovered = mx.mixture_backward(model.lat, eta_y, eta_z, cross)
        np.testing.assert_allclose(recovered.base_params, model.base_params, atol=1e-8)
        np.testing.assert_allclose(recovered.cat_params, model.cat_params, atol=1e-8)
        np.testing.assert_allclose(recovered.interaction, model.interaction, atol=1e-8)

    def test_forward_of_backward_reproduces_blocks(self):
        """The backward map's categorical parameters, taken from the moments,
        give back the weights the forward map started from."""
        model, _ = random_mog(np.random.default_rng(12), 4, 3)
        blocks = mx.mixture_forward(model)
        again = mx.mixture_forward(mx.mixture_backward(model.lat, *blocks))
        for got, want in zip(again, blocks, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestObservableDensity:
    def test_standard_normal_at_origin(self):
        dim = 3
        model = mx.mog_from_standard(
            np.array([1.0]), np.zeros((1, dim)), np.eye(dim)[None]
        )
        expected = -0.5 * dim * math.log(2 * math.pi)
        assert mx.mog_log_densities(model, np.zeros(dim)[None])[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_symmetric_pair_at_midpoint(self):
        """Components N(+-1, 1) at y=0: density is exp(-1/2)/sqrt(2 pi)."""
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.ones((2, 1, 1))
        )
        expected = math.log(math.exp(-0.5) / math.sqrt(2 * math.pi))
        assert mx.mog_log_densities(model, np.zeros(1)[None])[0] == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize("k,dim", list(itertools.product([1, 2, 5], [1, 2, 4])))
    def test_matches_brute_force(self, k, dim):
        rng = np.random.default_rng(100 * k + dim)
        model, (weights, means, covs) = random_mog(rng, k, dim)
        for _ in range(20):
            y = rng.normal(size=dim) * 2
            expected = brute_force_log_density(weights, means, covs, y)
            assert mx.mog_log_densities(model, y[None])[0] == pytest.approx(
                expected, abs=1e-9
            )


class TestPosterior:
    def test_equal_components_uniform(self):
        mean = np.zeros(2)
        cov = np.eye(2)
        model = mx.mog_from_standard(
            np.full(3, 1 / 3), np.stack([mean] * 3), np.stack([cov] * 3)
        )
        post = mx.mog_posteriors(model, np.array([0.7, -0.2])[None])[0]
        np.testing.assert_allclose(post, 1 / 3, atol=1e-12)

    def test_well_separated_confidence(self):
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]), np.array([[0.0], [10.0]]), 0.25 * np.ones((2, 1, 1))
        )
        post = mx.mog_posteriors(model, np.array([0.0])[None])[0]
        assert post[0] > 0.99

    def test_matches_bayes_rule(self):
        rng = np.random.default_rng(4)
        model, (weights, means, covs) = random_mog(rng, 3, 2)
        ys = rng.normal(size=(30, 2)) * 2
        ours = mx.mog_posteriors(model, ys)
        per = np.stack(
            [weights[i] * multivariate_normal.pdf(ys, means[i], covs[i]) for i in range(3)],
            axis=1,
        )
        np.testing.assert_allclose(ours, per / per.sum(axis=1, keepdims=True), atol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        model, _ = random_mog(rng, 4, 2)
        ys = rng.normal(size=(50, 2))
        post = mx.mog_posteriors(model, ys)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_index_shift_follows_odds_law(self):
        """Adding c to the index parameters scales non-reference odds by e^c.

        A uniform shift of the full logit vector is a no-op (the softmax
        normalizes it away); in minimal coordinates the reference category
        is pinned, so the exact transformation law is the odds rescaling.
        Relative posteriors among non-reference categories are unchanged,
        and huge shifts stay finite through log-sum-exp.
        """
        rng = np.random.default_rng(5)
        model, _ = random_mog(rng, 4, 2)
        ys = rng.normal(size=(50, 2))
        post = mx.mog_posteriors(model, ys)
        for c in [3.7, 700.0]:
            shifted = mx.MixtureModel(
                lat=model.lat, base_params=model.base_params,
                cat_params=model.cat_params + c, interaction=model.interaction,
            )
            moved = mx.mog_posteriors(shifted, ys)
            assert np.all(np.isfinite(moved))
            np.testing.assert_allclose(moved.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_array_equal(
                np.argmax(post[:, 1:], axis=1), np.argmax(moved[:, 1:], axis=1)
            )
            if c < 10:
                odds = moved[:, 1:] / moved[:, :1]
                expected = np.exp(c) * post[:, 1:] / post[:, :1]
                np.testing.assert_allclose(odds, expected, rtol=1e-9)


class TestBlockShapes:
    @pytest.mark.parametrize(
        "field, value",
        [("base_params", np.zeros(4)), ("cat_params", np.zeros((2, 1))),
         ("interaction", np.zeros((5, 1)))],
    )
    def test_wrong_shape_fails_when_built(self, field, value):
        """A block of the wrong shape fails at once, naming the field."""
        _, mog = disassemble_hmog(default_synthetic_hmog(3, 2, 4))
        expected = getattr(mog, field).shape
        message = f"{field}: shape {value.shape}, expected {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(mog, **{field: value})


class TestEmStep:
    def test_recovers_separated_truth(self):
        """100 steps on well-separated data recover means up to permutation."""
        rng = np.random.default_rng(6)
        truth = mx.mog_from_standard(
            np.array([0.4, 0.6]),
            np.array([[-3.0, 0.0], [3.0, 1.0]]),
            np.stack([np.eye(2) * 0.5, np.eye(2) * 0.7]),
        )
        data, _ = mx.mog_sample(truth, 2000, rng)
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]),
            np.array([[-1.0, 0.0], [1.0, 0.0]]),
            np.stack([np.eye(2)] * 2),
        )
        for _ in range(100):
            model = mx.mog_em_step(model, data)
        _, means, _ = mx.mog_to_standard(model)
        truth_means = np.array([[-3.0, 0.0], [3.0, 1.0]])
        direct = np.max(np.abs(means - truth_means))
        swapped = np.max(np.abs(means[::-1] - truth_means))
        assert min(direct, swapped) < 0.1

    def test_requires_enough_samples(self):
        rng = np.random.default_rng(7)
        model, _ = random_mog(rng, 3, 2)
        with pytest.raises(ValueError):
            mx.mog_em_step(model, rng.normal(size=(2, 2)))

    def test_jitter_disabled_by_default(self):
        """A component pinned to a single point fails; nothing regularizes it."""
        data = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.stack([np.eye(2) * 0.01] * 2),
        )
        with pytest.raises(DomainError, match="component"):
            for _ in range(50):
                model = mx.mog_em_step(model, data)


class TestBackwardRescue:
    """Mixture moments with component 2 of k=3 collapsed onto a point."""

    WEIGHTS = np.array([0.25, 0.25, 0.5])
    MEANS = np.array([[0.0, 0.5], [1.0, -1.0], [-2.0, 0.25]])
    COVS = np.array([[[1.0, 0.5], [0.5, 2.0]], np.zeros((2, 2)), [[0.5, 0.25], [0.25, 1.0]]])

    def target(self):
        lat = MultivariateNormal(2, Structure.FULL)
        outer = self.MEANS[:, :, None] * self.MEANS[:, None, :]
        stats = lat.join_mean(self.MEANS, self.COVS + outer)
        cross = (stats[1:] * self.WEIGHTS[1:, None]).T
        return lat, self.WEIGHTS @ stats, self.WEIGHTS[1:], cross

    def test_names_the_collapsed_component(self):
        with pytest.raises(
            DomainError, match="^component 2 covariance is not positive-definite$"
        ):
            mx.mixture_backward(*self.target())


class TestStandardBridges:
    def test_single_standard_component(self):
        model = mx.mog_from_standard(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
        assert model.interaction.shape == (model.lat.param_dim, 0)
        np.testing.assert_allclose(
            model.base_params,
            model.lat.from_mean_cov(np.zeros(2), np.eye(2)),
            atol=1e-14,
        )

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        model, (weights, means, covs) = random_mog(rng, 4, 3)
        w2, m2, c2 = mx.mog_to_standard(model)
        np.testing.assert_allclose(w2, weights, atol=1e-8)
        np.testing.assert_allclose(m2, means, atol=1e-8)
        np.testing.assert_allclose(c2, covs, atol=1e-8)

    def test_uniform_weights_recovered(self):
        model = mx.mog_from_standard(
            np.array([0.5, 0.5]), np.array([[0.0], [2.0]]), np.ones((2, 1, 1))
        )
        w, _, _ = mx.mog_to_standard(model)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            mx.mog_from_standard(
                np.array([0.7, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1))
            )


class TestShiftedComputations:
    def test_shifted_log_partition_matches_direct(self):
        """Per-sample shifted partitions agree with rebuilt models."""
        rng = np.random.default_rng(9)
        model, _ = random_mog(rng, 3, 2)
        shifts = rng.normal(size=(10, 2))
        batch = mx.shifted_log_partition(model, shifts)
        for i, shift in enumerate(shifts):
            moved = mx.MixtureModel(
                lat=model.lat,
                base_params=model.base_params + np.concatenate([shift, np.zeros(3)]),
                cat_params=model.cat_params,
                interaction=model.interaction,
            )
            assert batch[i] == pytest.approx(mx.mixture_log_partition(moved), abs=1e-10)

    def test_posterior_stats_match_forward(self):
        """Shift-free posterior stats equal the plain forward mapping."""
        rng = np.random.default_rng(10)
        model, _ = random_mog(rng, 3, 2)
        shifts = np.zeros((1, 2))
        stats = mx.mixture_posterior_stats(model, shifts)
        eta_y, eta_z, cross = mx.mixture_forward(model)
        np.testing.assert_allclose(stats.component_stats.sum(axis=0), eta_y, atol=1e-10)
        probabilities = mx.shifted_posteriors(model, shifts)
        np.testing.assert_allclose(probabilities[0, 1:], eta_z, atol=1e-10)
        np.testing.assert_allclose(stats.weights[1:], eta_z, atol=1e-10)
        np.testing.assert_allclose(stats.component_stats[1:].T, cross, atol=1e-10)


class TestSeededState:
    def test_backward_seeds_fresh_state(self):
        """Models from the backward map hold the state a fresh model builds."""
        rng = np.random.default_rng(11)
        truth, _ = random_mog(rng, 3, 2)
        ys, _ = mx.mog_sample(truth, 400, rng)
        model, _ = random_mog(rng, 3, 2)
        shifts = rng.normal(size=(50, 2)) * 2.0
        for _ in range(5):
            model = mx.mog_em_step(model, ys)
            fresh = dataclasses.replace(model)
            seeded, built = model.prepared, fresh.prepared
            np.testing.assert_allclose(
                seeded.log_partitions, built.log_partitions, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(seeded.bias, built.bias, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                mx.shifted_log_partition(model, shifts),
                mx.shifted_log_partition(fresh, shifts), rtol=1e-12, atol=0,
            )
            for apply in (mx.shifted_posteriors, mx.shifted_feature_means):
                np.testing.assert_allclose(
                    apply(model, shifts), apply(fresh, shifts), rtol=1e-10, atol=1e-14
                )
