"""Hierarchical mixtures of Gaussians: densities, forward mapping, EM."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from hmog import hierarchical as hh
from hmog import linear_gaussian as lg
from hmog import mixture as mx
from hmog.families import DomainError, Structure
from hmog.pipeline import default_synthetic_hmog, model_from_dict, model_to_dict


def random_hmog(rng, n=3, m=2, k=3, structure=Structure.DIAGONAL, spread=1.5):
    mean = rng.normal(size=n) * 0.5
    loading = rng.normal(size=(n, m)) * 0.8
    noise = rng.uniform(0.3, 1.0, n)
    if structure is Structure.ISOTROPIC:
        noise = float(noise.mean())
    lgm = lg.lgm_from_standard(mean, noise, loading, structure)
    weights = rng.dirichlet(np.full(k, 6.0))
    comp_means = rng.normal(size=(k, m)) * spread
    comp_covs = np.stack(
        [np.eye(m) * u + 0.2 * np.outer(v, v)
         for u, v in zip(rng.uniform(0.4, 1.0, k), rng.normal(size=(k, m)))]
    )
    mog = mx.mog_from_standard(weights, comp_means, comp_covs)
    model = hh.assemble_hmog(lgm, mog)
    return model, (mean, noise, loading), (weights, comp_means, comp_covs)


def marginal_log_density(parts_lgm, parts_mog, xs):
    """Analytic observable density: sum_z pi_z N(x; mu + W mu_z, W S_z W^T + Sigma)."""
    mean, noise, loading = parts_lgm
    weights, comp_means, comp_covs = parts_mog
    noise_mat = np.diag(noise) if np.ndim(noise) else noise * np.eye(len(mean))
    per = [
        w * multivariate_normal.pdf(
            xs, mean + loading @ mu, loading @ cov @ loading.T + noise_mat
        )
        for w, mu, cov in zip(weights, comp_means, comp_covs)
    ]
    return np.log(np.sum(per, axis=0))


class TestJointDensity:
    def test_factorizes_into_conditional_and_prior(self):
        """log p(x,y,z) = log p(x|y) + log p(y,z) at random points."""
        rng = np.random.default_rng(0)
        model, (mean, noise, loading), _ = random_hmog(rng)
        _, prior = hh.disassemble_hmog(model)
        prior_h = mx.as_harmonium(prior)
        prior_c = mx.mixture_conjugation_parameters(prior)
        from hmog.harmonium import joint_log_density

        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal(size=2)
            z = int(rng.integers(1, 4))
            conditional = multivariate_normal.logpdf(
                x, mean + loading @ y, np.diag(noise)
            )
            expected = conditional + joint_log_density(prior_h, prior_c, y, z)
            assert hh.hmog_joint_log_density(model, x, y, z) == pytest.approx(
                expected, abs=1e-10
            )

    def test_single_cluster_matches_lgm_joint(self):
        rng = np.random.default_rng(1)
        model, parts_lgm, parts_mog = random_hmog(rng, k=1)
        mean, noise, loading = parts_lgm
        weights, comp_means, comp_covs = parts_mog
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        conditional = multivariate_normal.logpdf(x, mean + loading @ y, np.diag(noise))
        prior = multivariate_normal.logpdf(y, comp_means[0], comp_covs[0])
        assert hh.hmog_joint_log_density(model, x, y, 1) == pytest.approx(
            conditional + prior, abs=1e-10
        )

    def test_marginalization_consistency(self):
        """Integrating the joint over (y, z) reproduces the observable density."""
        rng = np.random.default_rng(2)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        x = rng.normal(size=2)
        total = 0.0
        for z in range(1, 3):
            value, _ = quad(
                lambda y, z=z: math.exp(
                    hh.hmog_joint_log_density(model, x, np.array([y]), z)
                ),
                -20, 20, epsabs=1e-10,
            )
            total += value
        expected = math.exp(hh.hmog_log_densities(model, x[None])[0])
        assert total == pytest.approx(expected, rel=1e-5)

    def test_uniform_index_shift_renormalizes(self):
        """Adding c to theta_Z and to psi changes nothing observable."""
        rng = np.random.default_rng(3)
        model, _, _ = random_hmog(rng)
        shifted = hh.Hmog(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, cat_params=model.cat_params + 1.3,
            obs_interaction=model.obs_interaction,
            lat_interaction=model.lat_interaction,
        )
        x = rng.normal(size=3)
        y = rng.normal(size=2)
        raw = lambda h, z: (
            hh.hmog_joint_log_density(h, x, y, z) + hh.hmog_log_partition(h)
        )
        for z in range(1, 4):
            expected = raw(model, z) + (1.3 if z > 1 else 0.0)
            assert raw(shifted, z) == pytest.approx(expected, abs=1e-9)


class TestObservableDensity:
    def test_single_cluster_equals_lgm(self):
        """k=1 collapses to the linear Gaussian observable density."""
        rng = np.random.default_rng(4)
        model, parts_lgm, parts_mog = random_hmog(rng, k=1)
        # the embedded linear Gaussian model: identical joint over (x, y)
        lgm = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat,
            obs_params=model.obs_params,
            lat_params=model.lat_params,
            interaction=model.obs_interaction,
        )
        xs = rng.normal(size=(25, 3)) * 2
        np.testing.assert_allclose(
            hh.hmog_log_densities(model, xs), lg.lgm_log_densities(lgm, xs), atol=1e-10
        )

    @pytest.mark.parametrize("structure", [Structure.ISOTROPIC, Structure.DIAGONAL])
    def test_matches_analytic_marginal(self, structure):
        rng = np.random.default_rng(5)
        model, parts_lgm, parts_mog = random_hmog(rng, n=2, m=1, k=3, structure=structure)
        xs = rng.normal(size=(40, 2)) * 2
        expected = marginal_log_density(parts_lgm, parts_mog, xs)
        np.testing.assert_allclose(hh.hmog_log_densities(model, xs), expected, atol=1e-8)

    def test_normalizes_by_quadrature(self):
        from scipy.integrate import dblquad

        rng = np.random.default_rng(6)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        total, _ = dblquad(
            lambda x2, x1: math.exp(
                hh.hmog_log_densities(model, np.array([x1, x2])[None])[0]
            ),
            -15, 15, -15, 15, epsabs=1e-8,
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestForwardMapping:
    def test_single_cluster_reduces_to_lgm_forward(self):
        rng = np.random.default_rng(7)
        model, _, _ = random_hmog(rng, k=1)
        lgm = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=model.obs_interaction,
        )
        eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = hh.hmog_forward(model)
        ex, ey, cxy = lg.lgm_forward(lgm)
        np.testing.assert_allclose(eta_obs, ex, atol=1e-10)
        np.testing.assert_allclose(eta_lat, ey, atol=1e-10)
        np.testing.assert_allclose(cross_xy, cxy, atol=1e-10)
        assert eta_cat.shape == (0,) and cross_yz.shape[1] == 0

    def test_independent_blocks(self):
        """Zero couplings factorize all expectations."""
        rng = np.random.default_rng(8)
        model, _, _ = random_hmog(rng, n=3, m=2, k=2)
        model = hh.Hmog(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, cat_params=model.cat_params,
            obs_interaction=np.zeros((3, 2)),
            lat_interaction=np.zeros_like(model.lat_interaction),
        )
        eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = hh.hmog_forward(model)
        np.testing.assert_allclose(
            eta_obs, model.obs.to_mean(model.obs_params), atol=1e-12
        )
        np.testing.assert_allclose(
            eta_lat, model.lat.to_mean(model.lat_params), atol=1e-12
        )
        np.testing.assert_allclose(
            cross_xy, np.outer(eta_obs[:3], eta_lat[:2]), atol=1e-12
        )
        np.testing.assert_allclose(
            cross_yz, np.outer(eta_lat, eta_cat), atol=1e-12
        )

    def test_matches_monte_carlo(self):
        """All blocks within 5 standard errors of 1e6 ancestral samples."""
        rng = np.random.default_rng(9)
        model, _, _ = random_hmog(rng, n=3, m=2, k=3)
        packed = hh.pack_means(*hh.hmog_forward(model))
        xs, ys, zs = hh.hmog_sample(model, 1_000_000, rng)
        sx = model.obs.sufficient_statistics(xs)
        sy = model.lat.sufficient_statistics(ys)
        sz = model.cat.sufficient_statistics(zs)
        cross_xy = np.einsum("ni,nj->nij", xs, ys).reshape(len(xs), -1)
        cross_yz = np.einsum("ni,nj->nij", sy, sz).reshape(len(xs), -1)
        samples = np.concatenate([sx, sy, sz, cross_xy, cross_yz], axis=1)
        mc = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(len(xs)) + 1e-12
        assert np.max(np.abs(packed - mc) / se) < 5.0


def per_component(forward):
    """Cluster probabilities (k,) and weighted feature statistics (k, s_Y)."""
    _, eta_lat, eta_cat, _, cross_yz = forward
    probs = np.concatenate([[1.0 - eta_cat.sum()], eta_cat])
    stats = np.vstack([eta_lat - cross_yz.sum(axis=1), cross_yz.T])
    return probs, stats


class TestRelabelling:
    """Cluster labels are arbitrary, including which one is the reference."""

    @given(perm=st.permutations([0, 1, 2]), seed=st.integers(0, 2**32 - 1))
    @example(perm=[2, 0, 1], seed=0)
    @settings(deadline=None, max_examples=25)
    def test_density_invariant_and_forward_permuted(self, perm, seed):
        rng = np.random.default_rng(seed)
        model, (mean, noise, loading), (weights, means, covs) = random_hmog(rng, k=3)
        perm = np.asarray(perm)
        relabelled = hh.assemble_hmog(
            lg.lgm_from_standard(mean, noise, loading, Structure.DIAGONAL),
            mx.mog_from_standard(weights[perm], means[perm], covs[perm]),
        )
        xs = rng.normal(size=(20, 3)) * 2.0
        np.testing.assert_allclose(
            hh.hmog_log_densities(relabelled, xs),
            hh.hmog_log_densities(model, xs),
            rtol=1e-10, atol=1e-10,
        )
        before, after = hh.hmog_forward(model), hh.hmog_forward(relabelled)
        for block in (0, 1, 3):  # eta_obs, eta_lat, cross_xy
            np.testing.assert_allclose(after[block], before[block], rtol=1e-10, atol=1e-10)
        for got, want in zip(per_component(after), per_component(before)):
            np.testing.assert_allclose(got, want[perm], rtol=1e-10, atol=1e-10)


class TestGradientIdentity:
    def test_log_likelihood_gradient_matches_finite_differences(self):
        """d/dtheta mean log p(x) equals posterior stats minus forward."""
        rng = np.random.default_rng(10)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        xs, _, _ = hh.hmog_sample(model, 100, rng)
        analytic = hh.hmog_posterior_stats(model, xs) - hh.pack_means(
            *hh.hmog_forward(model)
        )
        flat = hh.pack_params(model)
        step = 1e-5
        numeric = np.zeros_like(flat)
        for i in range(len(flat)):
            hi, lo = flat.copy(), flat.copy()
            hi[i] += step
            lo[i] -= step
            numeric[i] = (
                hh.hmog_mean_log_likelihood(hh.unpack_params(model, hi), xs)
                - hh.hmog_mean_log_likelihood(hh.unpack_params(model, lo), xs)
            ) / (2 * step)
        np.testing.assert_allclose(numeric, analytic, rtol=1e-4, atol=1e-7)


class TestEmIteration:
    @pytest.mark.parametrize("structure", [Structure.DIAGONAL, Structure.ISOTROPIC])
    @pytest.mark.parametrize("k", [1, 3])
    def test_exact_step_fixed_point(self, structure, k):
        """The M-step is exact: the update's forward mapping is the E-step target."""
        rng = np.random.default_rng(11)
        truth, _, _ = random_hmog(rng, k=k, structure=structure)
        xs, _, _ = hh.hmog_sample(truth, 400, rng)
        model, _, _ = random_hmog(np.random.default_rng(98), k=k, structure=structure)
        target = hh.hmog_posterior_stats(model, xs)
        updated, diag = hh.hmog_em_iteration(model, xs)
        assert not diag.m_step_discarded
        gap = np.max(np.abs(hh.pack_means(*hh.hmog_forward(updated)) - target))
        assert gap <= 1e-10

    def test_self_consistency_near_mle(self):
        rng = np.random.default_rng(12)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2, spread=2.5)
        xs, _, _ = hh.hmog_sample(model, 20_000, rng)
        updated, diag = hh.hmog_em_iteration(model, xs)
        assert diag.log_likelihood_after >= diag.log_likelihood_before - 1e-6
        drift = np.max(np.abs(hh.pack_params(updated) - hh.pack_params(model)))
        assert drift < 0.2

    def test_monotone_across_iterations(self):
        rng = np.random.default_rng(13)
        truth, _, _ = random_hmog(rng, n=2, m=1, k=2, spread=2.5)
        xs, _, _ = hh.hmog_sample(truth, 500, rng)
        model, _, _ = random_hmog(np.random.default_rng(99), n=2, m=1, k=2)
        previous = hh.hmog_mean_log_likelihood(model, xs)
        for _ in range(25):
            model, diag = hh.hmog_em_iteration(model, xs)
            assert diag.log_likelihood_after >= previous - 1e-9
            previous = diag.log_likelihood_after


class TestProjectionClassification:
    def test_single_cluster_projection_matches_lgm(self):
        rng = np.random.default_rng(14)
        model, _, _ = random_hmog(rng, k=1)
        lgm = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=model.obs_interaction,
        )
        xs = rng.normal(size=(20, 3))
        np.testing.assert_allclose(
            hh.hmog_project_batch(model, xs), lg.lgm_project_batch(lgm, xs), atol=1e-10
        )

    def test_symmetric_model_midpoint(self):
        """Mirror-symmetric clusters: on-axis points project to the midpoint."""
        lgm = lg.lgm_from_standard(
            np.zeros(2), np.ones(2), np.array([[1.0], [0.0]]), Structure.DIAGONAL
        )
        mog = mx.mog_from_standard(
            np.array([0.5, 0.5]), np.array([[-2.0], [2.0]]), 0.5 * np.ones((2, 1, 1))
        )
        model = hh.assemble_hmog(lgm, mog)
        projection = hh.hmog_project_batch(model, np.array([0.0, 1.7])[None])[0]
        assert projection[0] == pytest.approx(0.0, abs=1e-10)
        posterior = hh.hmog_classify_batch(model, np.array([0.0, -0.4])[None])[0]
        np.testing.assert_allclose(posterior, [0.5, 0.5], atol=1e-12)

    def test_single_cluster_classification_is_certain(self):
        rng = np.random.default_rng(15)
        model, _, _ = random_hmog(rng, k=1)
        np.testing.assert_array_equal(
            hh.hmog_classify_batch(model, rng.normal(size=3)[None])[0], [1.0]
        )

    def test_projection_matches_quadrature(self):
        """E[y | x] against direct quadrature of y p(y | x) in 1-D features."""
        rng = np.random.default_rng(16)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        for _ in range(3):
            x = rng.normal(size=2) * 1.5
            log_px = hh.hmog_log_densities(model, x[None])[0]

            def integrand(y, weight):
                total = sum(
                    math.exp(hh.hmog_joint_log_density(model, x, np.array([y]), z))
                    for z in (1, 2)
                )
                return weight(y) * total

            numerator, _ = quad(lambda y: integrand(y, lambda v: v), -20, 20,
                                epsabs=1e-10, limit=200)
            expected = numerator / math.exp(log_px)
            projection = hh.hmog_project_batch(model, x[None])[0]
            assert projection[0] == pytest.approx(expected, abs=1e-5)

    def test_classification_shift_law(self):
        """Shifting theta_Z rescales non-reference odds; rows stay normalized."""
        rng = np.random.default_rng(24)
        model, _, _ = random_hmog(rng, n=2, m=1, k=3)
        xs = rng.normal(size=(30, 2))
        base = hh.hmog_classify_batch(model, xs)
        shifted_model = hh.Hmog(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, cat_params=model.cat_params + 2.1,
            obs_interaction=model.obs_interaction,
            lat_interaction=model.lat_interaction,
        )
        shifted = hh.hmog_classify_batch(shifted_model, xs)
        np.testing.assert_allclose(shifted.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(
            np.argmax(base[:, 1:], axis=1), np.argmax(shifted[:, 1:], axis=1)
        )
        np.testing.assert_allclose(
            shifted[:, 1:] / shifted[:, :1],
            np.exp(2.1) * base[:, 1:] / base[:, :1],
            rtol=1e-9,
        )

    def test_classification_matches_quadrature(self):
        rng = np.random.default_rng(17)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        x = rng.normal(size=2)
        log_px = hh.hmog_log_densities(model, x[None])[0]
        posterior = hh.hmog_classify_batch(model, x[None])[0]
        assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
        for z in (1, 2):
            mass, _ = quad(
                lambda y: math.exp(hh.hmog_joint_log_density(model, x, np.array([y]), z)),
                -20, 20, epsabs=1e-12, limit=200,
            )
            assert posterior[z - 1] == pytest.approx(mass / math.exp(log_px), abs=1e-5)


class TestAssembly:
    def test_standard_mog_reproduces_lgm_density(self):
        """A standard-normal one-cluster prior leaves the LGM marginal intact."""
        rng = np.random.default_rng(18)
        lgm, _ = (lambda r: (lg.lgm_from_standard(
            r.normal(size=3), r.uniform(0.4, 1.0, 3), r.normal(size=(3, 2)) * 0.6,
            Structure.DIAGONAL), None))(rng)
        mog = mx.mog_from_standard(
            np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None]
        )
        model = hh.assemble_hmog(lgm, mog)
        xs = rng.normal(size=(20, 3)) * 2
        np.testing.assert_allclose(
            hh.hmog_log_densities(model, xs), lg.lgm_log_densities(lgm, xs), atol=1e-10
        )

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        model, _, _ = random_hmog(rng)
        lgm, mog = hh.disassemble_hmog(model)
        rebuilt = hh.assemble_hmog(lgm, mog)
        np.testing.assert_allclose(
            hh.pack_params(rebuilt), hh.pack_params(model), atol=1e-12
        )

    def test_assembled_state_matches_fresh_build(self):
        """EM's assembled models hold the state a fresh model builds."""
        rng = np.random.default_rng(24)
        model, _, _ = random_hmog(rng)
        xs, _, _ = hh.hmog_sample(model, 200, rng)
        model, _, _ = random_hmog(rng)
        for _ in range(3):
            model, _ = hh.hmog_em_iteration(model, xs)
            fresh = dataclasses.replace(model)
            assert hh.hmog_log_partition(model) == pytest.approx(
                hh.hmog_log_partition(fresh), rel=1e-12, abs=0
            )
            np.testing.assert_allclose(
                hh.hmog_log_densities(model, xs), hh.hmog_log_densities(fresh, xs),
                rtol=1e-12, atol=0,
            )

    def test_disassemble_returns_the_assembled_parts(self):
        """The prior is the mixture assembled; the likelihood's prior is standard."""
        rng = np.random.default_rng(25)
        model, _, _ = random_hmog(rng)
        lgm, mog = hh.disassemble_hmog(model)
        lgm_back, mog_back = hh.disassemble_hmog(hh.assemble_hmog(lgm, mog))
        assert mog_back is mog
        for block in ("base_params", "cat_params", "interaction"):
            assert getattr(mog_back, block).tobytes() == getattr(mog, block).tobytes()
        eta_y = lg.lgm_forward(lgm_back)[1]
        np.testing.assert_allclose(
            eta_y, lgm.lat.join_mean(np.zeros(2), np.eye(2)), atol=1e-12
        )

    def test_non_finite_likelihood_fails_at_assembly(self):
        rng = np.random.default_rng(26)
        model, _, _ = random_hmog(rng)
        lgm, mog = hh.disassemble_hmog(model)
        obs_params = lgm.obs_params.copy()
        obs_params[0] = np.nan
        bad = dataclasses.replace(lgm, obs_params=obs_params)
        same = hh.Hmog(
            obs=bad.obs, lat=mog.lat, obs_params=obs_params,
            lat_params=mog.base_params - lg.lgm_conjugation_parameters(bad).rho,
            cat_params=mog.cat_params, obs_interaction=bad.interaction,
            lat_interaction=mog.interaction,
        )
        assembled, loaded = assembly_and_load_failures(bad, mog, same)
        assert assembled.startswith("non-finite parameters in theta_x_mu")
        assert loaded == assembled

    def test_non_negative_observable_block_fails_at_assembly(self):
        rng = np.random.default_rng(27)
        model, _, _ = random_hmog(rng)
        lgm, mog = hh.disassemble_hmog(model)
        obs_params = lgm.obs_params.copy()
        obs_params[3:] = 0.5
        bad = dataclasses.replace(lgm, obs_params=obs_params)
        # theta_y does not enter the message
        same = dataclasses.replace(model, obs_params=obs_params)
        assembled, loaded = assembly_and_load_failures(bad, mog, same)
        assert assembled.startswith("theta_xx: ")
        assert loaded == assembled

    def test_assembly_ignores_the_likelihood_feature_prior(self):
        """Assembly reads the conjugation alone, so any feature block serves.

        A zero feature block makes the likelihood's own joint invalid; the
        mixture replaces that prior, so the model assembles all the same.
        """
        rng = np.random.default_rng(28)
        for structure in (Structure.DIAGONAL, Structure.ISOTROPIC):
            model, _, _ = random_hmog(rng, structure=structure)
            lgm, mog = hh.disassemble_hmog(model)
            zeroed = dataclasses.replace(lgm, lat_params=np.zeros(lgm.lat.param_dim))
            with pytest.raises(DomainError):
                lg.lgm_log_partition(zeroed)
            np.testing.assert_allclose(
                hh.pack_params(hh.assemble_hmog(zeroed, mog)),
                hh.pack_params(hh.assemble_hmog(lgm, mog)),
                rtol=0, atol=1e-12,
            )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(20)
        lgm = lg.lgm_from_standard(
            np.zeros(3), np.ones(3), rng.normal(size=(3, 2)), Structure.DIAGONAL
        )
        mog = mx.mog_from_standard(np.array([1.0]), np.zeros((1, 3)), np.eye(3)[None])
        with pytest.raises(ValueError):
            hh.assemble_hmog(lgm, mog)


def assembly_and_load_failures(lgm, mog, model):
    """The DomainError messages of assembling ``lgm`` and ``mog``, and of loading ``model``."""
    with pytest.raises(DomainError) as assembled:
        hh.assemble_hmog(lgm, mog)
    payload = json.loads(json.dumps(model_to_dict(model, "hmog_fa", 0)))
    with pytest.raises(DomainError) as loaded:
        model_from_dict(payload)
    return str(assembled.value), str(loaded.value)


class TestReadOnlyBlocks:
    PARTS = {
        "lgm": ("obs_params", "lat_params", "interaction"),
        "mog": ("base_params", "cat_params", "interaction"),
        "hmog": ("obs_params", "lat_params", "cat_params", "obs_interaction",
                 "lat_interaction"),
    }

    @pytest.mark.parametrize(
        "kind, block",
        [(kind, block) for kind, blocks in PARTS.items() for block in blocks],
    )
    def test_write_raises(self, kind, block):
        """Every block refuses writes, on built models and on EM's."""
        rng = np.random.default_rng(28)
        model, _, _ = random_hmog(rng)
        fitted, _ = hh.hmog_em_iteration(model, hh.hmog_sample(model, 50, rng)[0])
        for h in (model, fitted):
            lgm, mog = hh.disassemble_hmog(h)
            array = getattr({"lgm": lgm, "mog": mog, "hmog": h}[kind], block)
            before = array.copy()
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1.0
            assert array.tobytes() == before.tobytes()

    def test_callers_arrays_keep_their_flag(self):
        model, _, _ = random_hmog(np.random.default_rng(30))
        arrays = {name: getattr(model, name).copy() for name in self.PARTS["hmog"]}
        rebuilt = dataclasses.replace(model, **arrays)
        for name, array in arrays.items():
            assert array.flags.writeable
            assert not getattr(rebuilt, name).flags.writeable

    def test_callers_writes_do_not_reach_the_model(self):
        """After a write to its source arrays a model still scores as a fresh copy."""
        model = default_synthetic_hmog(3, 2, 4)
        xs = hh.hmog_sample(model, 20, np.random.default_rng(31))[0]
        flat = hh.pack_params(model)
        expected = hh.hmog_log_densities(hh.unpack_params(model, flat.copy()), xs)
        arrays = {name: getattr(model, name).copy() for name in self.PARTS["hmog"]}
        built = (hh.unpack_params(model, flat), hh.Hmog(model.obs, model.lat, **arrays))
        for h in built:
            hh.hmog_log_densities(h, xs)  # builds the prepared state
        k = model.num_clusters - 1
        start = len(flat) - model.lat_interaction.size - model.obs_interaction.size - k
        flat[start : start + k] += 1.0  # the theta_z entries
        arrays["cat_params"] += 1.0
        for h in built:
            np.testing.assert_array_equal(h.cat_params, model.cat_params)
            np.testing.assert_array_equal(hh.hmog_log_densities(h, xs), expected)
            fresh = dataclasses.replace(h)
            np.testing.assert_array_equal(hh.hmog_log_densities(fresh, xs), expected)


class TestBlockTable:
    """One table names and shapes the six blocks for every site that reads them."""

    @pytest.mark.parametrize(
        "field, block, delta",
        [("obs_params", "theta_xx", 1), ("obs_params", "theta_x_mu", -4),
         ("lat_params", "theta_y", 1), ("lat_params", "theta_y", -1)],
    )
    def test_wrong_length_fails_when_built(self, field, block, delta):
        model, _, _ = random_hmog(np.random.default_rng(60))
        value = getattr(model, field)
        wrong = np.resize(value, len(value) + delta)
        with pytest.raises(ValueError, match=f"^{block}: shape "):
            dataclasses.replace(model, **{field: wrong})

    @pytest.mark.parametrize("delta", [1, -1])
    def test_unpack_rejects_wrong_length(self, delta):
        model, _, _ = random_hmog(np.random.default_rng(61))
        flat = hh.pack_params(model)
        message = f"expected a flat vector of length {len(flat)}, got ({len(flat) + delta},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hh.unpack_params(model, np.resize(flat, len(flat) + delta))

    def test_sites_agree(self):
        """JSON, flat vector and model read the same blocks in the same order."""
        model, _, _ = random_hmog(np.random.default_rng(62), structure=Structure.ISOTROPIC)
        shapes = hh.block_shapes(model.obs, model.lat, model.num_clusters)
        params = model_to_dict(model, "hmog_pca", 0)["params"]
        assert list(params) == list(shapes)
        assert {name: np.shape(value) for name, value in params.items()} == shapes
        flat = hh.pack_params(model)
        assert len(flat) == sum(math.prod(shape) for shape in shapes.values())
        rebuilt = hh.unpack_params(model, flat)
        for name, block in hh.hmog_blocks(rebuilt).items():
            assert block.tobytes() == np.asarray(params[name]).tobytes()


class TestValidityGuard:
    """`valid_blocks` reads the prepared build that every load runs."""

    @staticmethod
    def assert_named(bad, block):
        """``bad`` fails `valid_blocks` and the JSON load, both naming ``block``."""
        assert hh.valid_blocks(bad) == [block]
        with pytest.raises(DomainError, match=f"^{block}: "):
            model_from_dict(model_to_dict(bad, "hmog_fa", 0))

    def test_valid_model_has_no_violations(self):
        rng = np.random.default_rng(21)
        model, _, _ = random_hmog(rng)
        assert hh.valid_blocks(model) == []

    def test_indefinite_observable_detected(self):
        rng = np.random.default_rng(22)
        model, _, _ = random_hmog(rng)
        blocks = hh.hmog_blocks(model)
        blocks["theta_xx"] = np.full(3, 0.5)
        self.assert_named(hh.hmog_from_blocks(model.obs, model.lat, blocks), "theta_xx")

    def test_indefinite_component_detected(self):
        rng = np.random.default_rng(23)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        blocks = hh.hmog_blocks(model)
        blocks["theta_yz"] = blocks["theta_yz"].copy()
        blocks["theta_yz"][-1, 0] = 1e4  # explode component 2's second-order offset
        self.assert_named(hh.hmog_from_blocks(model.obs, model.lat, blocks), "theta_yz")

    @given(data=st.data())
    @settings(deadline=None, max_examples=60, derandomize=True)
    def test_one_check_for_load_and_valid_blocks(self, data):
        """`valid_blocks` is empty exactly when the JSON round trip loads.

        Each random model gets one corruption: a non-finite entry in any
        block, a positive ``theta_xx`` entry, or an exploded second-order
        offset in ``theta_yz``. A non-empty result names the corrupted block.
        """
        structure = data.draw(st.sampled_from([Structure.DIAGONAL, Structure.ISOTROPIC]))
        k = data.draw(st.integers(1, 3), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        model, _, _ = random_hmog(np.random.default_rng(seed), k=k, structure=structure)
        blocks = {name: block.copy() for name, block in hh.hmog_blocks(model).items()}
        kinds = ["non-finite", "theta_xx"] + (["theta_yz"] if k > 1 else [])
        kind = data.draw(st.sampled_from(kinds), label="corruption")
        if kind == "non-finite":
            block = data.draw(st.sampled_from([n for n, b in blocks.items() if b.size]))
            entry = data.draw(st.integers(0, blocks[block].size - 1))
            blocks[block].flat[entry] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "theta_xx":
            block = kind
            entry = data.draw(st.integers(0, blocks[block].size - 1))
            blocks[block][entry] = data.draw(st.floats(1e-3, 10.0))
        else:
            block = kind
            row = data.draw(st.integers(model.lat_dim, model.lat.param_dim - 1))
            column = data.draw(st.integers(0, k - 2))
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            blocks[block][row, column] = sign * data.draw(st.floats(1e3, 1e6))
        bad = hh.hmog_from_blocks(model.obs, model.lat, blocks)
        method = "hmog_pca" if structure is Structure.ISOTROPIC else "hmog_fa"
        try:
            model_from_dict(model_to_dict(bad, method, 0))
            loads = True
        except DomainError:
            loads = False
        names = hh.valid_blocks(bad)
        assert (names == []) == loads
        assert names in ([], [block])


class TestPointChecks:
    """Every per-point entry point checks its points once, with one message."""

    ENTRIES = {
        hh.hmog_log_densities: None,
        hh.hmog_classify_batch: None,
        hh.hmog_project_batch: None,
        hh.hmog_mean_log_likelihood: "the mean log-likelihood needs a nonempty dataset",
        hh.hmog_posterior_pass: "the posterior pass needs a nonempty dataset",
        lg.lgm_log_densities: None,
        lg.lgm_project_batch: None,
    }

    @pytest.mark.parametrize("entry", list(ENTRIES), ids=lambda entry: entry.__name__)
    def test_wrong_width_and_empty_batches(self, entry):
        model, _, _ = random_hmog(np.random.default_rng(54), n=4)
        if entry.__module__ == lg.__name__:
            model, _ = hh.disassemble_hmog(model)
        for shape in [(3, 5), (4,)]:
            message = re.escape(f"expected points of dimension 4, got {shape}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(model, np.zeros(shape))
        empty = np.zeros((0, 4))
        if self.ENTRIES[entry] is None:
            assert len(entry(model, empty)) == 0
        else:
            with pytest.raises(ValueError, match=f"^{self.ENTRIES[entry]}$"):
                entry(model, empty)


SHIFT_ENTRIES = {
    "shifted_log_partition": lambda h, shifts: mx.shifted_log_partition(
        h.prepared.posterior, shifts
    ),
    "shifted_posteriors": lambda h, shifts: mx.shifted_posteriors(
        h.prepared.posterior, shifts
    ),
    "shifted_feature_means": lambda h, shifts: mx.shifted_feature_means(
        h.prepared.posterior, shifts
    ),
    "mixture_posterior_stats": lambda h, shifts: mx.mixture_posterior_stats(
        h.prepared.posterior, shifts
    ),
    "hmog_mean_log_likelihood_from_terms": lambda h, shifts: (
        hh.hmog_mean_log_likelihood_from_terms(h, shifts, np.zeros(h.obs.param_dim))
    ),
}


class TestShiftChecks:
    """The posterior kernel rejects shifts that are not (N, m) at its boundary."""

    @pytest.mark.parametrize("shape", [(3, 3), (2,)], ids=str)
    @pytest.mark.parametrize("entry", list(SHIFT_ENTRIES))
    def test_wrong_shape(self, entry, shape):
        model = default_synthetic_hmog(3, 2, 4)
        SHIFT_ENTRIES[entry](model, np.zeros((3, 2)))  # a good batch passes
        message = re.escape(f"expected shifts of dimension 2, got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SHIFT_ENTRIES[entry](model, np.zeros(shape))

    def test_wrong_length_mean_statistic(self):
        model = default_synthetic_hmog(3, 2, 4)
        message = re.escape("expected mean observable statistic of length 8, got (7,)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            hh.hmog_mean_log_likelihood_from_terms(model, np.zeros((3, 2)), np.zeros(7))


class TestEmMonotone:
    """Exact EM never lowers the mean log-likelihood by more than 1e-9.

    Each candidate is the exact maximizer of its E-step target, scored
    without the guard that discards a worse one.
    """

    @given(data=st.data())
    @settings(deadline=None, max_examples=30, derandomize=True)
    def test_unified_and_stage1_steps(self, data):
        m = data.draw(st.integers(1, 2), label="m")
        n = data.draw(st.integers(m + 1, 4), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        structure = data.draw(
            st.sampled_from([Structure.DIAGONAL, Structure.ISOTROPIC]), label="structure"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        truth, _, _ = random_hmog(rng, n=n, m=m, k=k, structure=structure)
        xs = hh.hmog_sample(truth, 80, rng)[0]
        model, _, _ = random_hmog(rng, n=n, m=m, k=k, structure=structure)
        lgm, _ = hh.disassemble_hmog(model)

        current = hh.hmog_posterior_pass(model, xs)
        for _ in range(15):
            eta_obs, eta_lat, eta_cat, cross_xy, cross_yz = current.target
            model = hh.assemble_hmog(
                lg.lgm_backward(model.obs, model.lat, eta_obs, eta_lat, cross_xy),
                mx.mixture_backward(model.lat, eta_lat, eta_cat, cross_yz),
            )
            after = hh.hmog_posterior_pass(model, xs)
            assert after.mean_log_likelihood >= current.mean_log_likelihood - 1e-9
            current = after

        moments = lg.data_moments(lgm.obs, xs)
        current = lg.lgm_moment_pass(lgm, moments)
        for _ in range(15):
            lgm = lg.lgm_backward(lgm.obs, lgm.lat, *current.target)
            after = lg.lgm_moment_pass(lgm, moments)
            assert after.mean_log_likelihood >= current.mean_log_likelihood - 1e-9
            current = after


def shifted_mixture(model, shift):
    """The feature-posterior mixture of one observation, built directly."""
    posterior = model.prepared.posterior
    return mx.MixtureModel(
        lat=posterior.lat,
        base_params=posterior.base_params
        + np.concatenate([shift, np.zeros(posterior.lat.param_dim - len(shift))]),
        cat_params=posterior.cat_params,
        interaction=posterior.interaction,
    )


def assert_carried_pass_is_bit_identical():
    rng = np.random.default_rng(44)
    truth, _, _ = random_hmog(rng, k=3)
    xs, _, _ = hh.hmog_sample(truth, 300, rng)
    start, _, _ = random_hmog(np.random.default_rng(45), k=3)
    carried, current = start, None
    uncached = start
    for _ in range(5):
        carried, diag = hh.hmog_em_iteration(carried, xs, posterior_pass=current)
        current = diag.posterior_pass
        # a fresh instance holds no prepared state
        uncached, _ = hh.hmog_em_iteration(dataclasses.replace(uncached), xs)
    assert hh.pack_params(carried).tobytes() == hh.pack_params(uncached).tobytes()


class TestPreparedKernel:
    @pytest.mark.parametrize("structure", [Structure.DIAGONAL, Structure.ISOTROPIC])
    @pytest.mark.parametrize("k", [1, 3])
    def test_fused_pass_matches_per_point_forward(self, structure, k):
        """Every kernel output equals mixture_forward of each shifted mixture."""
        rng = np.random.default_rng(30 + k)
        model, _, _ = random_hmog(rng, k=k, structure=structure)
        xs, _, _ = hh.hmog_sample(model, 40, rng)
        shifts = xs @ model.obs_interaction
        post = mx.mixture_posterior_stats(model.prepared.posterior, shifts)
        probabilities = mx.shifted_posteriors(model.prepared.posterior, shifts)

        m = model.lat_dim
        component_stats = np.zeros_like(post.component_stats)
        cross_xy = np.zeros((3, m))
        for i, (x, shift) in enumerate(zip(xs, shifts)):
            moved = shifted_mixture(model, shift)
            eta_y, eta_z, cross = mx.mixture_forward(moved)
            assert post.log_partition[i] == pytest.approx(
                mx.mixture_log_partition(moved), abs=1e-10
            )
            np.testing.assert_allclose(
                probabilities[i], mx.mixture_weights(moved), atol=1e-10
            )
            np.testing.assert_allclose(post.feature_means[i], eta_y[:m], atol=1e-10)
            component_stats[0] += eta_y - cross.sum(axis=1)
            component_stats[1:] += cross.T
            cross_xy += np.outer(x, eta_y[:m])
        np.testing.assert_allclose(post.component_stats, component_stats, atol=1e-10)
        np.testing.assert_allclose(post.weights, probabilities.sum(axis=0), atol=1e-12)

        eta_obs, eta_lat, eta_cat, target_xy, target_yz = hh.hmog_posterior_pass(
            model, xs
        ).target
        count = len(xs)
        np.testing.assert_allclose(eta_lat, component_stats.sum(axis=0) / count, atol=1e-10)
        np.testing.assert_allclose(eta_cat, post.weights[1:] / count, atol=1e-12)
        np.testing.assert_allclose(target_xy, cross_xy / count, atol=1e-10)
        np.testing.assert_allclose(target_yz, component_stats[1:].T / count, atol=1e-10)
        np.testing.assert_allclose(
            eta_obs, model.obs.sufficient_statistics(xs).mean(axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_fused_log_likelihood_matches_mean_log_density(self, k):
        rng = np.random.default_rng(40 + k)
        model, _, _ = random_hmog(rng, k=k)
        xs, _, _ = hh.hmog_sample(model, 200, rng)
        fused = hh.hmog_posterior_pass(model, xs).mean_log_likelihood
        assert abs(fused - hh.hmog_mean_log_likelihood(model, xs)) <= 1e-12
        assert abs(fused - float(np.mean(hh.hmog_log_densities(model, xs)))) <= 1e-12

    def test_carried_pass_is_bit_identical(self):
        """Handing each iteration's pass to the next changes no bit."""
        assert_carried_pass_is_bit_identical()

    def test_replace_does_not_reuse_prepared_state(self):
        rng = np.random.default_rng(46)
        model, _, _ = random_hmog(rng)
        prepared = model.prepared
        assert model.prepared is prepared
        assert dataclasses.replace(model).prepared is not prepared
        moved = dataclasses.replace(model, cat_params=model.cat_params + 0.7)
        assert moved.prepared.log_partition != prepared.log_partition
        x = rng.normal(size=3)
        assert hh.hmog_log_densities(moved, x[None])[0] != pytest.approx(
            hh.hmog_log_densities(model, x[None])[0], abs=1e-6
        )


class TestBlockedKernel:
    """Streaming the kernel over row blocks changes results only by reassociation."""

    APPLY = (hh.hmog_log_densities, hh.hmog_classify_batch, hh.hmog_project_batch)

    @pytest.mark.parametrize("count", [1, 6, 7, 8, 15, 40])
    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_match_one_pass(self, monkeypatch, count, k):
        rng = np.random.default_rng(60 + k)
        model, _, _ = random_hmog(rng, k=k)
        xs, _, _ = hh.hmog_sample(model, count, rng)
        whole = [apply(model, xs) for apply in self.APPLY]
        whole_pass = hh.hmog_posterior_pass(model, xs)

        monkeypatch.setattr(mx, "BLOCK_ROWS", 7)
        for apply, expected in zip(self.APPLY, whole):
            blocked = apply(model, xs)
            assert blocked.shape == expected.shape
            np.testing.assert_allclose(blocked, expected, rtol=0, atol=1e-12)
        blocked_pass = hh.hmog_posterior_pass(model, xs)
        whole_target = hh.pack_means(*whole_pass.target)
        blocked_target = hh.pack_means(*blocked_pass.target)
        scale = np.max(np.abs(whole_target))
        assert np.max(np.abs(blocked_target - whole_target)) <= 1e-12 * scale
        assert blocked_pass.mean_log_likelihood == pytest.approx(
            whole_pass.mean_log_likelihood, rel=1e-12, abs=0
        )

    def test_carried_pass_is_bit_identical_across_blocks(self, monkeypatch):
        monkeypatch.setattr(mx, "BLOCK_ROWS", 7)  # 300 points: 43 blocks
        assert_carried_pass_is_bit_identical()

    def test_empty_batch(self, monkeypatch):
        monkeypatch.setattr(mx, "BLOCK_ROWS", 7)
        model, _, _ = random_hmog(np.random.default_rng(64))
        empty = np.zeros((0, 3))
        assert hh.hmog_log_densities(model, empty).shape == (0,)
        with pytest.raises(ValueError, match="needs a nonempty dataset$"):
            hh.hmog_posterior_pass(model, empty)

    def test_memory_does_not_grow_with_batch(self):
        """At N = 1e5, no pass holds more than the (N, m) and (N, k) arrays."""
        model = default_synthetic_hmog(8, 5, 50)
        xs, _, _ = hh.hmog_sample(model, 100_000, np.random.default_rng(65))
        model.prepared
        for apply in (*self.APPLY, hh.hmog_posterior_pass):
            tracemalloc.start()
            try:
                apply(model, xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 2**20, f"{apply.__name__}: {peak / 2**20:.1f} MiB"


class TestDomainChecks:
    @pytest.mark.parametrize(
        "block", ["obs_params", "lat_params", "cat_params", "obs_interaction"]
    )
    def test_non_finite_block_named(self, block):
        """Apply calls fail at once, naming the block, instead of passing NaN on."""
        rng = np.random.default_rng(50)
        model, _, _ = random_hmog(rng)
        value = getattr(model, block).copy()
        value.flat[0] = np.nan
        bad = dataclasses.replace(model, **{block: value})
        names = {
            "obs_params": "theta_x_mu",
            "lat_params": "theta_y",
            "cat_params": "theta_z",
            "obs_interaction": "theta_xy",
        }
        xs = rng.normal(size=(5, 3))
        for apply in (hh.hmog_classify_batch, hh.hmog_project_batch, hh.hmog_log_densities):
            with pytest.raises(DomainError, match=names[block]):
                apply(bad, xs)

    def test_indefinite_component_named(self):
        rng = np.random.default_rng(51)
        model, _, _ = random_hmog(rng, n=2, m=1, k=2)
        interaction = model.lat_interaction.copy()
        interaction[-1, 0] = 1e4  # component 2's precision turns negative
        bad = dataclasses.replace(model, lat_interaction=interaction)
        with pytest.raises(
            DomainError,
            match="^theta_yz: feature prior component 2 precision is not positive-definite$",
        ):
            hh.hmog_classify_batch(bad, np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "apply",
        [hh.hmog_mean_log_likelihood, hh.hmog_posterior_pass, hh.hmog_posterior_stats],
    )
    def test_empty_batch_rejected(self, apply):
        model, _, _ = random_hmog(np.random.default_rng(53))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs a nonempty dataset$"):
                apply(model, np.zeros((0, 3)))

    def test_non_negative_observable_block_named(self):
        rng = np.random.default_rng(52)
        model, _, _ = random_hmog(rng)
        obs_params = model.obs_params.copy()
        obs_params[3:] = 0.5
        bad = dataclasses.replace(model, obs_params=obs_params)
        with pytest.raises(DomainError, match="theta_xx"):
            hh.hmog_log_densities(bad, np.zeros((1, 3)))
