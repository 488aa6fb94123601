"""Linear Gaussian models: conjugation, forward mapping, EM, projection."""

import dataclasses
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.stats import multivariate_normal

from hmog import linear_gaussian as lg
from hmog.families import DomainError, MultivariateNormal, Structure
from hmog.harmonium import check_conjugation
from hmog.hierarchical import disassemble_hmog
from hmog.pipeline import default_synthetic_hmog

DATA_DIR = Path(__file__).parent / "data"


def random_lgm(rng, n, m, structure):
    mean = rng.normal(size=n)
    loading = rng.normal(size=(n, m)) * 0.7
    if structure is Structure.DIAGONAL:
        noise = rng.uniform(0.3, 1.4, n)
        noise_mat = np.diag(noise)
    elif structure is Structure.ISOTROPIC:
        noise = float(rng.uniform(0.3, 1.4))
        noise_mat = noise * np.eye(n)
    else:
        a = rng.normal(size=(n, n)) * 0.4
        noise = a @ a.T + np.eye(n)
        noise_mat = noise
    model = lg.lgm_from_standard(mean, noise, loading, structure)
    return model, (mean, noise_mat, loading)


def finite_difference_gradient(func, theta, step=1e-6):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        hi, lo = theta.copy(), theta.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (func(hi) - func(lo)) / (2 * step)
    return grad


class TestConjugationParameters:
    def test_zero_interaction(self):
        rng = np.random.default_rng(0)
        model, _ = random_lgm(rng, 3, 2, Structure.DIAGONAL)
        model = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=np.zeros((3, 2)),
        )
        conj = lg.lgm_conjugation_parameters(model)
        np.testing.assert_array_equal(conj.rho, np.zeros(model.lat.param_dim))
        assert conj.rho0 == pytest.approx(model.obs.log_partition(model.obs_params))

    def test_standard_observable_rho0_zero(self):
        obs = MultivariateNormal(1, Structure.ISOTROPIC)
        lat = MultivariateNormal(1, Structure.FULL)
        model = lg.LinearGaussianModel(
            obs=obs, lat=lat,
            obs_params=obs.join_natural(np.zeros(1), -0.5),
            lat_params=lat.from_mean_cov(np.zeros(1), np.eye(1)),
            interaction=np.array([[0.4]]),
        )
        assert lg.lgm_conjugation_parameters(model).rho0 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("structure", [Structure.ISOTROPIC, Structure.DIAGONAL])
    @pytest.mark.parametrize("n,m", [(2, 1), (5, 3), (20, 3)])
    def test_residual_under_1e8(self, structure, n, m):
        rng = np.random.default_rng(n * 7 + m)
        model, _ = random_lgm(rng, n, m, structure)
        conj = lg.lgm_conjugation_parameters(model)
        probes = [rng.normal(size=m) * 2.5 for _ in range(100)]
        assert check_conjugation(lg.as_harmonium(model), conj, probes) < 1e-8

    def test_scaling_linear_in_observable_dim(self):
        """Conjugation cost at n=1000 stays within 20x of n=100."""
        rng = np.random.default_rng(1)

        def build(n):
            loading = rng.normal(size=(n, 3)) * 0.4
            return lg.lgm_from_standard(
                np.zeros(n), rng.uniform(0.5, 1.5, n), loading, Structure.DIAGONAL
            )

        def clock(model, repeats=50):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(repeats):
                    lg.lgm_conjugation_parameters(model)
                best = min(best, (time.perf_counter() - start) / repeats)
            return best

        small, large = build(100), build(1000)
        clock(small, repeats=5)  # warm caches
        ratio = clock(large) / clock(small)
        assert ratio < 20.0, f"time ratio {ratio:.1f}"


class TestForwardMapping:
    def test_zero_interaction_independence(self):
        rng = np.random.default_rng(2)
        model, _ = random_lgm(rng, 3, 2, Structure.DIAGONAL)
        model = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=np.zeros((3, 2)),
        )
        eta_x, eta_y, cross = lg.lgm_forward(model)
        np.testing.assert_allclose(eta_x, model.obs.to_mean(model.obs_params), atol=1e-12)
        np.testing.assert_allclose(eta_y, model.lat.to_mean(model.lat_params), atol=1e-12)
        np.testing.assert_allclose(cross, np.outer(eta_x[:3], eta_y[:2]), atol=1e-12)

    def test_standard_joint(self):
        obs = MultivariateNormal(2, Structure.DIAGONAL)
        lat = MultivariateNormal(1, Structure.FULL)
        model = lg.LinearGaussianModel(
            obs=obs, lat=lat,
            obs_params=obs.from_mean_cov(np.zeros(2), np.ones(2)),
            lat_params=lat.from_mean_cov(np.zeros(1), np.eye(1)),
            interaction=np.zeros((2, 1)),
        )
        eta_x, eta_y, cross = lg.lgm_forward(model)
        np.testing.assert_allclose(eta_x, [0.0, 0.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(eta_y, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(cross, np.zeros((2, 1)), atol=1e-14)

    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_matches_joint_log_partition_gradient(self, structure):
        """Blocks agree with finite differences of the dense joint partition."""
        rng = np.random.default_rng(3)
        model, _ = random_lgm(rng, 3, 2, structure)
        joint_fam, joint_theta = lg.lgm_joint_params(model)
        grad = finite_difference_gradient(joint_fam.log_partition, joint_theta)
        mu_joint, second_joint = joint_fam.split_mean(grad)
        eta_x, eta_y, cross = lg.lgm_forward(model)
        np.testing.assert_allclose(eta_x[:3], mu_joint[:3], rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(eta_y[:2], mu_joint[3:], rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(cross, second_joint[:3, 3:], rtol=1e-5, atol=1e-6)
        mu_x, second_x = model.obs.split_mean(eta_x)
        if structure is Structure.FULL:
            np.testing.assert_allclose(second_x, second_joint[:3, :3], rtol=1e-5, atol=1e-6)
        elif structure is Structure.DIAGONAL:
            np.testing.assert_allclose(
                second_x, np.diag(second_joint[:3, :3]), rtol=1e-5, atol=1e-6
            )
        else:
            assert second_x == pytest.approx(np.trace(second_joint[:3, :3]), rel=1e-5)


class TestEmStep:
    def test_zero_interaction_collapses_to_structured_mle(self):
        """With the coupling held at zero, one step gives the structured MLE."""
        rng = np.random.default_rng(4)
        data = rng.normal(size=(400, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
        model, _ = random_lgm(rng, 3, 2, Structure.DIAGONAL)
        model = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=np.zeros((3, 2)),
        )
        updated = lg.lgm_em_step(model, data)
        mean, noise, loading = lg.lgm_to_standard(updated)
        np.testing.assert_allclose(mean, data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(noise, data.var(axis=0), atol=1e-9)
        np.testing.assert_allclose(loading, np.zeros((3, 2)), atol=1e-9)

    def test_recovers_ground_truth_marginal(self):
        """PCA truth, N=5000, 100 steps: marginal covariance within 5 percent."""
        rng = np.random.default_rng(5)
        n, m = 5, 2
        loading = rng.normal(size=(n, m)) * 0.8
        truth = lg.lgm_from_standard(np.zeros(n), 0.4, loading, Structure.ISOTROPIC)
        data, _ = lg.lgm_sample(truth, 5000, rng)
        model = lg.lgm_from_standard(
            data.mean(axis=0), float(data.var(axis=0).mean()),
            rng.uniform(-0.01, 0.01, (n, m)), Structure.ISOTROPIC,
        )
        for _ in range(100):
            model = lg.lgm_em_step(model, data)
        joint_fam, joint_theta = lg.lgm_joint_params(model)
        mu_joint, second_joint = joint_fam.split_mean(joint_fam.to_mean(joint_theta))
        learned = second_joint[:n, :n] - np.outer(mu_joint[:n], mu_joint[:n])
        target = loading @ loading.T + 0.4 * np.eye(n)
        rel = np.linalg.norm(learned - target) / np.linalg.norm(target)
        assert rel < 0.05

    @pytest.mark.parametrize("structure", [Structure.ISOTROPIC, Structure.DIAGONAL])
    def test_monotone_log_likelihood(self, structure):
        rng = np.random.default_rng(6)
        truth, _ = random_lgm(rng, 4, 2, structure)
        data, _ = lg.lgm_sample(truth, 300, rng)
        model, _ = random_lgm(rng, 4, 2, structure)
        previous = lg.lgm_mean_log_likelihood(model, data)
        for _ in range(100):
            model = lg.lgm_em_step(model, data)
            current = lg.lgm_mean_log_likelihood(model, data)
            assert current >= previous - 1e-9
            previous = current


class TestMomentPass:
    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_mean_log_likelihood_matches_per_point(self, structure):
        """The moment form equals the mean of the per-point log-densities."""
        rng = np.random.default_rng(21)
        truth, _ = random_lgm(rng, 5, 2, structure)
        data, _ = lg.lgm_sample(truth, 400, rng)
        model, _ = random_lgm(rng, 5, 2, structure)
        for candidate in (model, lg.lgm_em_step(model, data)):
            per_point = float(np.mean(lg.lgm_log_densities(candidate, data)))
            moments = lg.data_moments(candidate.obs, data)
            moment = lg.lgm_moment_pass(candidate, moments).mean_log_likelihood
            assert abs(moment - per_point) <= 1e-12 * max(1.0, abs(per_point))

    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_offset_data_matches_dense_marginal(self, structure):
        """On Iris shifted by +1e3, both forms match the dense marginal density."""
        iris = np.loadtxt(
            DATA_DIR / "iris.csv", delimiter=",", skiprows=1, usecols=range(4)
        )
        data = iris + 1e3
        noise = {
            Structure.ISOTROPIC: 0.5,
            Structure.DIAGONAL: np.full(4, 0.5),
            Structure.FULL: 0.5 * np.eye(4),
        }[structure]
        loading = np.random.default_rng(22).normal(size=(4, 2)) * 0.3
        model = lg.lgm_from_standard(data.mean(axis=0), noise, loading, structure)
        for _ in range(20):
            model = lg.lgm_em_step(model, data)
        joint, theta = lg.lgm_joint_params(model)
        mean, cov = joint.to_mean_cov(theta)
        dense = float(np.mean(multivariate_normal.logpdf(data, mean[:4], cov[:4, :4])))
        moments = lg.data_moments(model.obs, data)
        assert abs(lg.lgm_moment_pass(model, moments).mean_log_likelihood - dense) <= 1e-7
        assert abs(lg.lgm_mean_log_likelihood(model, data) - dense) <= 1e-7

    def test_empty_data_rejected(self):
        model, _ = random_lgm(np.random.default_rng(24), 3, 1, Structure.DIAGONAL)
        with pytest.raises(ValueError, match="nonempty"):
            lg.lgm_em_step(model, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="nonempty"):
            lg.lgm_mean_log_likelihood(model, np.zeros((0, 3)))


def assert_relative(actual, expected, tol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= tol * np.max(np.abs(expected))


class TestBlockShapes:
    @pytest.mark.parametrize(
        "field, value",
        [("obs_params", np.zeros(5)), ("lat_params", np.zeros(3)),
         ("interaction", np.zeros((4, 3)))],
    )
    def test_wrong_shape_fails_when_built(self, field, value):
        """A block of the wrong shape fails at once, naming the field."""
        lgm, _ = disassemble_hmog(default_synthetic_hmog(3, 2, 4))
        expected = getattr(lgm, field).shape
        message = f"{field}: shape {value.shape}, expected {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(lgm, **{field: value})


class TestSeededState:
    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_backward_seeds_fresh_state(self, structure):
        """The state `lgm_backward` seeds equals the one a fresh model builds."""
        rng = np.random.default_rng(25)
        truth, _ = random_lgm(rng, 5, 2, structure)
        moments = lg.data_moments(truth.obs, lg.lgm_sample(truth, 400, rng)[0])
        model, _ = random_lgm(rng, 5, 2, structure)
        for _ in range(5):
            target = lg.lgm_moment_pass(model, moments).target
            model = lg.lgm_backward(model.obs, model.lat, *target)
            conj, fresh = model.conjugation, dataclasses.replace(model)
            assert_relative(conj.rho, fresh.conjugation.rho, 1e-12)
            assert_relative(conj.rho0, fresh.conjugation.rho0, 1e-12)
            assert_relative(model.log_partition, fresh.log_partition, 1e-12)


class TestIsotropicIsTiedDiagonal:
    """Isotropic linear Gaussian maps equal diagonal ones on tied or pooled inputs."""

    @pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (8, 3)])
    def test_conditional_forward(self, n, m):
        rng = np.random.default_rng(50 + n)
        mean, loading = rng.normal(size=n), rng.normal(size=(n, m))
        var = float(rng.uniform(0.3, 1.4))
        iso = lg.lgm_from_standard(mean, var, loading, Structure.ISOTROPIC)
        diag = lg.lgm_from_standard(mean, np.full(n, var), loading, Structure.DIAGONAL)
        for _ in range(5):
            a, mu_y = rng.normal(size=(m, m)), rng.normal(size=m)
            eta_y = iso.lat.join_mean(mu_y, a @ a.T + np.eye(m) + np.outer(mu_y, mu_y))
            eta_iso, cross_iso = lg.lgm_conditional_forward(iso, eta_y)
            eta_diag, cross_diag = lg.lgm_conditional_forward(diag, eta_y)
            np.testing.assert_allclose(cross_iso, cross_diag, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(eta_iso[:n], eta_diag[:n], rtol=1e-12, atol=1e-12)
            assert eta_iso[n] == pytest.approx(np.sum(eta_diag[n:]), rel=1e-12)

    @pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (8, 3)])
    def test_backward_pools_the_noise(self, n, m):
        """Same offset and loading; the tied noise is the mean diagonal noise."""
        rng = np.random.default_rng(60 + n)
        truth, _ = random_lgm(rng, n, m, Structure.DIAGONAL)
        xs = lg.lgm_sample(truth, 300, rng)[0]
        model, _ = random_lgm(rng, n, m, Structure.DIAGONAL)
        eta_x, eta_y, cross = lg.lgm_moment_pass(
            model, lg.data_moments(model.obs, xs)
        ).target
        iso_obs = MultivariateNormal(n, Structure.ISOTROPIC)
        pooled = iso_obs.join_mean(eta_x[:n], np.sum(eta_x[n:]))
        np.testing.assert_allclose(
            pooled, lg.data_moments(iso_obs, xs).statistic, rtol=1e-12
        )
        diag = lg.lgm_backward(model.obs, model.lat, eta_x, eta_y, cross)
        iso = lg.lgm_backward(iso_obs, model.lat, pooled, eta_y, cross)
        mean_d, noise_d, loading_d = lg.lgm_to_standard(diag)
        mean_i, noise_i, loading_i = lg.lgm_to_standard(iso)
        np.testing.assert_allclose(mean_i, mean_d, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(loading_i, loading_d, rtol=1e-12, atol=1e-12)
        assert noise_i == pytest.approx(np.mean(noise_d), rel=1e-12)


class TestProjection:
    def test_zero_loading_gives_prior_mean(self):
        rng = np.random.default_rng(7)
        prior_mean = np.array([0.7, -0.3])
        lat = MultivariateNormal(2, Structure.FULL)
        obs = MultivariateNormal(3, Structure.DIAGONAL)
        model = lg.LinearGaussianModel(
            obs=obs, lat=lat,
            obs_params=obs.from_mean_cov(np.zeros(3), np.ones(3)),
            lat_params=lat.from_mean_cov(prior_mean, np.eye(2)),
            interaction=np.zeros((3, 2)),
        )
        np.testing.assert_allclose(
            lg.lgm_project_batch(model, rng.normal(size=(1, 3)))[0], prior_mean, atol=1e-12
        )

    def test_hand_computed_example(self):
        """n=2, m=1, W=(1,0), Sigma=I, x=(2,0): projection is 1."""
        model = lg.lgm_from_standard(
            np.zeros(2), np.ones(2), np.array([[1.0], [0.0]]), Structure.DIAGONAL
        )
        projection = lg.lgm_project_batch(model, np.array([2.0, 0.0])[None])[0]
        assert projection[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("structure", [Structure.ISOTROPIC, Structure.DIAGONAL])
    def test_matches_closed_form(self, structure):
        rng = np.random.default_rng(8)
        model, (mean, noise_mat, loading) = random_lgm(rng, 4, 2, structure)
        marginal = loading @ loading.T + noise_mat
        xs = rng.normal(size=(20, 4)) * 2
        ours = lg.lgm_project_batch(model, xs)
        expected = np.linalg.solve(marginal, (xs - mean).T).T @ loading
        np.testing.assert_allclose(ours, expected, atol=1e-9)


class TestObservableDensity:
    def test_independent_standard(self):
        model = lg.lgm_from_standard(
            np.zeros(3), np.ones(3), np.zeros((3, 1)), Structure.DIAGONAL
        )
        expected = -1.5 * math.log(2 * math.pi)
        assert lg.lgm_log_densities(model, np.zeros(3)[None])[0] == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_matches_marginal_oracle(self, structure):
        rng = np.random.default_rng(9)
        model, (mean, noise_mat, loading) = random_lgm(rng, 4, 2, structure)
        marginal = loading @ loading.T + noise_mat
        for _ in range(10):
            x = rng.normal(size=4) * 2
            expected = multivariate_normal.logpdf(x, mean, marginal)
            assert lg.lgm_log_densities(model, x[None])[0] == pytest.approx(
                expected, abs=1e-8
            )

    def test_normalizes_by_quadrature(self):
        rng = np.random.default_rng(10)
        model, _ = random_lgm(rng, 2, 1, Structure.DIAGONAL)
        total, _ = dblquad(
            lambda x2, x1: math.exp(
                lg.lgm_log_densities(model, np.array([x1, x2])[None])[0]
            ),
            -12, 12, -12, 12, epsabs=1e-8,
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestStandardBridges:
    def test_zero_loading_independent(self):
        model = lg.lgm_from_standard(
            np.zeros(2), np.ones(2), np.zeros((2, 1)), Structure.DIAGONAL
        )
        mean, noise, loading = lg.lgm_to_standard(model)
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(noise, np.ones(2), atol=1e-14)
        np.testing.assert_allclose(loading, np.zeros((2, 1)), atol=1e-14)
        prior_mean, prior_cov = model.lat.to_mean_cov(model.lat_params)
        np.testing.assert_allclose(prior_mean, np.zeros(1), atol=1e-14)
        np.testing.assert_allclose(prior_cov, np.eye(1), atol=1e-14)

    @pytest.mark.parametrize(
        "structure", [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]
    )
    def test_round_trip(self, structure):
        rng = np.random.default_rng(11)
        model, (mean, _, loading) = random_lgm(rng, 4, 2, structure)
        mean2, noise2, loading2 = lg.lgm_to_standard(model)
        np.testing.assert_allclose(mean2, mean, atol=1e-8)
        np.testing.assert_allclose(loading2, loading, atol=1e-10)
        rebuilt = lg.lgm_from_standard(mean2, noise2, loading2, structure)
        np.testing.assert_allclose(rebuilt.obs_params, model.obs_params, atol=1e-8)
        np.testing.assert_allclose(rebuilt.lat_params, model.lat_params, atol=1e-8)
        np.testing.assert_allclose(rebuilt.interaction, model.interaction, atol=1e-8)

    def test_rejects_bad_noise(self):
        with pytest.raises(DomainError):
            lg.lgm_from_standard(
                np.zeros(2), np.array([1.0, -0.5]), np.zeros((2, 1)), Structure.DIAGONAL
            )


class TestSampling:
    def test_sample_moments(self):
        rng = np.random.default_rng(12)
        model, (mean, noise_mat, loading) = random_lgm(rng, 3, 2, Structure.DIAGONAL)
        xs, ys = lg.lgm_sample(model, 200_000, rng)
        marginal = loading @ loading.T + noise_mat
        np.testing.assert_allclose(xs.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(np.cov(xs.T), marginal, atol=0.05)

    def test_deterministic(self):
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        model, _ = random_lgm(np.random.default_rng(0), 3, 2, Structure.DIAGONAL)
        xs_a, _ = lg.lgm_sample(model, 100, rng_a)
        xs_b, _ = lg.lgm_sample(model, 100, rng_b)
        np.testing.assert_array_equal(xs_a, xs_b)
