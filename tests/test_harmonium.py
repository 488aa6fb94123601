"""Generic harmonium machinery, exercised through mixtures and linear models."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.stats import multivariate_normal

from hmog import linear_gaussian as lg
from hmog import mixture as mx
from hmog.families import DomainError, Structure
from hmog.harmonium import (
    ConjugationParams,
    check_conjugation,
    conjugated_log_partition,
    em_iteration,
    observable_log_density,
    posterior_natural_params,
)


def random_mog(rng, k=3, dim=2):
    weights = rng.dirichlet(np.full(k, 5.0))
    means = rng.normal(size=(k, dim)) * 1.5
    covs = np.stack(
        [np.eye(dim) * u + 0.3 * np.outer(v, v)
         for u, v in zip(rng.uniform(0.4, 1.2, k), rng.normal(size=(k, dim)))]
    )
    return mx.mog_from_standard(weights, means, covs), (weights, means, covs)


def random_lgm(rng, n=3, m=2, structure=Structure.DIAGONAL):
    mean = rng.normal(size=n)
    loading = rng.normal(size=(n, m)) * 0.7
    if structure is Structure.DIAGONAL:
        noise = rng.uniform(0.3, 1.2, n)
    elif structure is Structure.ISOTROPIC:
        noise = float(rng.uniform(0.3, 1.2))
    else:
        a = rng.normal(size=(n, n))
        noise = a @ a.T + n * np.eye(n)
    return lg.lgm_from_standard(mean, noise, loading, structure), (mean, noise, loading)


class TestPosteriorParams:
    def test_zero_interaction_returns_prior(self):
        rng = np.random.default_rng(0)
        model, _ = random_lgm(rng)
        h = lg.as_harmonium(model)
        h = type(h)(h.obs, h.lat, h.obs_params, h.lat_params, np.zeros_like(h.interaction))
        x = rng.normal(size=3)
        np.testing.assert_array_equal(posterior_natural_params(h, x), h.lat_params)

    def test_lgm_posterior_mean_closed_form(self):
        """Posterior mean equals W^T (W W^T + Sigma)^-1 x for the centered model."""
        rng = np.random.default_rng(1)
        n, m = 4, 2
        loading = rng.normal(size=(n, m))
        noise = rng.uniform(0.4, 1.5, n)
        model = lg.lgm_from_standard(np.zeros(n), noise, loading, Structure.DIAGONAL)
        h = lg.as_harmonium(model)
        x = rng.normal(size=n)
        post = posterior_natural_params(h, x)
        mean, _ = model.lat.to_mean_cov(post)
        marginal = loading @ loading.T + np.diag(noise)
        expected = loading.T @ np.linalg.solve(marginal, x)
        np.testing.assert_allclose(mean, expected, atol=1e-12)

    def test_mog_posterior_matches_bayes(self):
        rng = np.random.default_rng(2)
        model, (weights, means, covs) = random_mog(rng)
        h = mx.as_harmonium(model)
        y = rng.normal(size=2)
        post = posterior_natural_params(h, y)
        probs = model.cat.probabilities(post)
        brute = np.array(
            [weights[i] * multivariate_normal.pdf(y, means[i], covs[i]) for i in range(3)]
        )
        np.testing.assert_allclose(probs, brute / brute.sum(), atol=1e-12)


class TestCheckConjugation:
    def test_lgm_residual_under_1e8(self):
        rng = np.random.default_rng(3)
        for structure in [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]:
            model, _ = random_lgm(rng, structure=structure)
            conj = lg.lgm_conjugation_parameters(model)
            probes = [rng.normal(size=2) * 3 for _ in range(100)]
            assert check_conjugation(lg.as_harmonium(model), conj, probes) < 1e-8

    def test_mog_residual_exact(self):
        rng = np.random.default_rng(4)
        model, _ = random_mog(rng)
        conj = mx.mixture_conjugation_parameters(model)
        residual = check_conjugation(mx.as_harmonium(model), conj, probes=[1, 2, 3])
        assert residual < 1e-12

    def test_perturbed_offset_detected(self):
        rng = np.random.default_rng(5)
        model, _ = random_mog(rng)
        conj = mx.mixture_conjugation_parameters(model)
        bad = ConjugationParams(rho=conj.rho, rho0=conj.rho0 + 0.1)
        residual = check_conjugation(mx.as_harmonium(model), bad, probes=[1, 2, 3])
        assert residual >= 0.1 - 1e-12

    def test_invalid_probe_raises_with_context(self):
        rng = np.random.default_rng(6)
        model, _ = random_lgm(rng, n=2, m=1)
        h = lg.as_harmonium(model)
        big = np.zeros((h.obs.param_dim, h.lat.param_dim))
        big[2:, 1:] = 50.0  # second-order coupling destroys definiteness
        h = type(h)(h.obs, h.lat, h.obs_params, h.lat_params, big)
        conj = ConjugationParams(rho=np.zeros(h.lat.param_dim), rho0=0.0)
        with pytest.raises(DomainError, match="probe"):
            check_conjugation(h, conj, probes=[np.array([5.0])])


class TestConjugatedLogPartition:
    def test_zero_interaction_is_product(self):
        rng = np.random.default_rng(7)
        model, _ = random_lgm(rng)
        h = lg.as_harmonium(model)
        h = type(h)(h.obs, h.lat, h.obs_params, h.lat_params, np.zeros_like(h.interaction))
        conj = ConjugationParams(
            rho=np.zeros(h.lat.param_dim), rho0=h.obs.log_partition(h.obs_params)
        )
        expected = h.obs.log_partition(h.obs_params) + h.lat.log_partition(h.lat_params)
        assert conjugated_log_partition(h, conj) == pytest.approx(expected, abs=1e-12)

    def test_lgm_matches_dense_joint(self):
        rng = np.random.default_rng(8)
        model, _ = random_lgm(rng, n=1, m=1)
        joint_fam, joint_theta = lg.lgm_joint_params(model)
        conj = lg.lgm_conjugation_parameters(model)
        ours = conjugated_log_partition(lg.as_harmonium(model), conj)
        assert ours == pytest.approx(joint_fam.log_partition(joint_theta), abs=1e-10)

    def test_mog_matches_brute_force(self):
        """psi_YZ = log sum_z exp(theta_Z . s(z) + psi_Y(theta_Y + offset_z))."""
        rng = np.random.default_rng(9)
        model, _ = random_mog(rng)
        conj = mx.mixture_conjugation_parameters(model)
        ours = conjugated_log_partition(mx.as_harmonium(model), conj)
        terms = [
            float(model.cat.sufficient_statistic(z) @ model.cat_params)
            + model.lat.log_partition(model.base_params + offset)
            for z, offset in zip(range(1, 4), [0.0, *model.interaction.T])
        ]
        brute = math.log(sum(math.exp(t - max(terms)) for t in terms)) + max(terms)
        assert ours == pytest.approx(brute, abs=1e-10)


class TestObservableLogDensity:
    def test_mog_matches_brute_force_mixture(self):
        rng = np.random.default_rng(10)
        model, (weights, means, covs) = random_mog(rng)
        h = mx.as_harmonium(model)
        conj = mx.mixture_conjugation_parameters(model)
        for _ in range(50):
            y = rng.normal(size=2) * 2
            brute = math.log(
                sum(weights[i] * multivariate_normal.pdf(y, means[i], covs[i])
                    for i in range(3))
            )
            assert observable_log_density(h, conj, y) == pytest.approx(brute, abs=1e-9)

    def test_lgm_matches_marginal_normal(self):
        rng = np.random.default_rng(11)
        model, (mean, noise, loading) = random_lgm(rng)
        h = lg.as_harmonium(model)
        conj = lg.lgm_conjugation_parameters(model)
        marginal_cov = loading @ loading.T + np.diag(noise)
        for _ in range(20):
            x = rng.normal(size=3) * 2
            expected = multivariate_normal.logpdf(x, mean, marginal_cov)
            assert observable_log_density(h, conj, x) == pytest.approx(expected, abs=1e-9)

    def test_single_component_mixture_is_component(self):
        rng = np.random.default_rng(12)
        mean = rng.normal(size=2)
        cov = np.eye(2) * 0.8
        model = mx.mog_from_standard(np.array([1.0]), mean[None, :], cov[None, :, :])
        h = mx.as_harmonium(model)
        conj = mx.mixture_conjugation_parameters(model)
        y = rng.normal(size=2)
        expected = multivariate_normal.logpdf(y, mean, cov)
        assert observable_log_density(h, conj, y) == pytest.approx(expected, abs=1e-12)

    def test_normalizes_by_quadrature(self):
        rng = np.random.default_rng(13)
        model, _ = random_mog(rng, k=2, dim=2)
        h = mx.as_harmonium(model)
        conj = mx.mixture_conjugation_parameters(model)
        total, _ = dblquad(
            lambda y2, y1: math.exp(
                observable_log_density(h, conj, np.array([y1, y2]))
            ),
            -12, 12, -12, 12, epsabs=1e-8,
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestEmIteration:
    def test_single_component_matches_sample_moments(self):
        """One EM step of a one-component mixture is the Gaussian MLE."""
        rng = np.random.default_rng(14)
        data = rng.normal(size=(500, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]) + 1.5
        model = mx.mog_from_standard(
            np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None, :, :]
        )
        updated = mx.mog_em_step(model, data)
        _, means, covs = mx.mog_to_standard(updated)
        np.testing.assert_allclose(means[0], data.mean(axis=0), atol=1e-10)
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(covs[0], centered.T @ centered / len(data), atol=1e-10)

    def test_em_monotone_mog(self):
        rng = np.random.default_rng(15)
        truth, _ = random_mog(rng, k=2)
        data, _ = mx.mog_sample(truth, 200, rng)
        model, _ = random_mog(rng, k=2)
        previous = float(np.mean(mx.mog_log_densities(model, data)))
        for _ in range(100):
            model = mx.mog_em_step(model, data)
            current = float(np.mean(mx.mog_log_densities(model, data)))
            assert current >= previous - 1e-9
            previous = current

    def test_em_monotone_lgm(self):
        rng = np.random.default_rng(16)
        truth, _ = random_lgm(rng)
        data, _ = lg.lgm_sample(truth, 200, rng)
        model, _ = random_lgm(rng)
        previous = lg.lgm_mean_log_likelihood(model, data)
        for _ in range(100):
            model = lg.lgm_em_step(model, data)
            current = lg.lgm_mean_log_likelihood(model, data)
            assert current >= previous - 1e-9
            previous = current

    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_first_order_lgm_step_matches_skeleton(self, structure):
        """The GEMM E-step of lgm_em_step equals the generic dense-embedding step."""
        rng = np.random.default_rng(19)
        truth, _ = random_lgm(rng, structure=structure)
        data, _ = lg.lgm_sample(truth, 300, rng)
        model, _ = random_lgm(rng, structure=structure)
        lat = model.lat

        def latent_forward(posterior_nats):
            shifts = posterior_nats[:, : lat.dim] - model.lat_params[: lat.dim]
            means, cov = lat.to_mean_batch(model.lat_params, shifts)
            return np.stack([lat.join_mean(mu, cov + np.outer(mu, mu)) for mu in means])

        def joint_backward(eta_x, eta_y, cross):
            block = cross[: model.obs.dim, : lat.dim]
            return lg.lgm_backward(model.obs, lat, eta_x, eta_y, block)

        reference = em_iteration(
            lg.as_harmonium(model), data, latent_forward, joint_backward
        )
        stepped = lg.lgm_em_step(model, data)
        for name in ("obs_params", "lat_params", "interaction"):
            np.testing.assert_allclose(
                getattr(stepped, name), getattr(reference, name), rtol=1e-10, atol=1e-12
            )

    def test_mog_step_matches_skeleton(self):
        """The mixture EM step on precomputed statistics equals the generic step."""
        rng = np.random.default_rng(20)
        truth, _ = random_mog(rng, k=3)
        data, _ = mx.mog_sample(truth, 300, rng)
        model, _ = random_mog(rng, k=3)

        def backward(eta_y, eta_z, cross):
            return mx.mixture_backward(model.lat, eta_y, eta_z, cross)

        reference = em_iteration(
            mx.as_harmonium(model), data, model.cat.to_mean_batch, backward
        )
        stepped = mx.mog_em_step(model, data)
        for name in ("base_params", "cat_params", "interaction"):
            np.testing.assert_allclose(
                getattr(stepped, name), getattr(reference, name), rtol=1e-12, atol=1e-12
            )

    def test_self_consistency_near_mle(self):
        """EM from the truth moves parameters O(1/sqrt(N)) on its own sample."""
        rng = np.random.default_rng(17)
        truth, _ = random_lgm(rng, n=2, m=1)
        data, _ = lg.lgm_sample(truth, 20_000, rng)
        before = lg.lgm_mean_log_likelihood(truth, data)
        stepped = lg.lgm_em_step(truth, data)
        after = lg.lgm_mean_log_likelihood(stepped, data)
        assert after >= before - 1e-9
        drift = np.max(np.abs(stepped.obs_params - truth.obs_params))
        assert drift < 0.1

    def test_empty_data_rejected(self):
        rng = np.random.default_rng(18)
        model, _ = random_mog(rng)
        with pytest.raises(ValueError):
            em_iteration(
                mx.as_harmonium(model), np.zeros((0, 2)),
                model.cat.to_mean_batch, lambda *a: None,
            )
