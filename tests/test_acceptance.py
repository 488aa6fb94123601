"""Acceptance suite.

Each criterion below runs at its stated tolerance and reports one
``[PASS]``/``[FAIL]`` line in the terminal summary of every pytest run:

1. EM monotonicity of all four methods on the Iris dataset.
2. The synthetic two-cluster limitation demonstration.
3. Held-out log-likelihood ordering under 5-fold cross-validation.
4. The oracle suite (conjugation, densities, normalization, forward
   mappings, linear-in-n conjugation cost).
5. Bit-stable CLI reproducibility under a fixed seed.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.stats import multivariate_normal

from hmog import hierarchical as hh
from hmog import linear_gaussian as lg
from hmog import mixture as mx
from hmog.cli import main as cli_main
from hmog.families import Structure
from hmog.harmonium import check_conjugation
from hmog.pipeline import (
    FitConfig,
    cross_validate,
    default_synthetic_hmog,
    fit_hmog,
    fit_two_stage,
    gen_synthetic,
    load_csv,
)

from conftest import record_verdict

DATA_DIR = Path(__file__).parent / "data"
IRIS = DATA_DIR / "iris.csv"


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    record_verdict(name, ok, detail)
    assert ok, f"{name}: {detail}"


def min_diff(values) -> float:
    diffs = np.diff(np.asarray(values))
    return float(diffs.min()) if len(diffs) else 0.0


# ---------------------------------------------------------------------------
# Criterion 1: EM monotonicity on Iris
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def iris_fits():
    data = load_csv(IRIS, label_column="species")
    start = time.perf_counter()
    reports = {}
    for method in ["two_stage_pca", "two_stage_fa"]:
        cfg = FitConfig(
            method=method, latent_dim=2, clusters=3,
            stage1_iters=100, stage2_iters=100, restarts=1, seed=1,
        )
        reports[method] = fit_two_stage(data, cfg)[2]
    for method in ["hmog_pca", "hmog_fa"]:
        cfg = FitConfig(
            method=method, latent_dim=2, clusters=3,
            stage1_iters=100, stage2_iters=100, hmog_iters=110,
            restarts=1, seed=1,
        )
        reports[method] = fit_hmog(data, cfg)[1]
    return reports, time.perf_counter() - start


class TestCriterion1IrisMonotonicity:
    def test_all_four_trajectories_nondecreasing(self, iris_fits):
        reports, _ = iris_fits
        worst_two_stage = math.inf
        worst_unified = math.inf
        for report in reports.values():
            stages = {s.name: s.log_likelihoods for s in report.stages}
            worst_two_stage = min(
                worst_two_stage, min_diff(stages["stage1"]), min_diff(stages["stage2"])
            )
            if "unified" in stages:
                assert len(stages["unified"]) >= 100
                worst_unified = min(worst_unified, min_diff(stages["unified"]))
        ok = worst_two_stage >= -1e-9 and worst_unified >= -1e-9
        verdict(
            "criterion 1 (Iris EM monotonicity)", ok,
            f"worst two-stage step {worst_two_stage:.2e} (tol -1e-9), "
            f"worst unified step {worst_unified:.2e} (tol -1e-9)",
        )

    def test_runtime_bound(self, iris_fits):
        _, elapsed = iris_fits
        verdict(
            "criterion 1 (runtime)", elapsed < 120.0,
            f"all four Iris fits took {elapsed:.0f} s (< 120 s)",
        )


# ---------------------------------------------------------------------------
# Criterion 2: synthetic limitation demonstration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_runs():
    truth = default_synthetic_hmog(2, 1, 2)
    train = gen_synthetic(truth, 2000, seed=100)
    heldout = gen_synthetic(truth, 4000, seed=200)
    start = time.perf_counter()
    base = dict(
        latent_dim=1, clusters=2, stage1_iters=300, stage2_iters=100,
        restarts=2, seed=11,
    )
    lgm_pca, _, _ = fit_two_stage(train, FitConfig(method="two_stage_pca", **base))
    _, _, rep_fa = fit_two_stage(train, FitConfig(method="two_stage_fa", **base))
    model, rep_hmog = fit_hmog(
        train,
        FitConfig(method="hmog_fa", hmog_iters=400, **base),
    )
    elapsed = time.perf_counter() - start
    return truth, train, heldout, lgm_pca, rep_fa, rep_hmog, model, elapsed


class TestCriterion2SyntheticLimitation:
    def test_pca_follows_top_variance_direction(self, synthetic_runs):
        _, train, _, lgm_pca, _, _, _, _ = synthetic_runs
        _, _, loading = lg.lgm_to_standard(lgm_pca)
        direction = loading[:, 0] / np.linalg.norm(loading[:, 0])
        _, eigvecs = np.linalg.eigh(np.cov(train.points.T, bias=True))
        cosine = abs(float(direction @ eigvecs[:, -1]))
        verdict(
            "criterion 2a (PCA loading direction)", cosine > 0.99,
            f"|cos(loading, top eigenvector)| = {cosine:.6f} (> 0.99)",
        )

    def test_unified_exceeds_two_stage_on_identical_seeds(self, synthetic_runs):
        _, _, _, _, rep_fa, rep_hmog, _, _ = synthetic_runs
        gap = rep_hmog.final_train_log_likelihood - rep_fa.final_train_log_likelihood
        verdict(
            "criterion 2b (unified beats two-stage FA)", gap > 0.0,
            f"train log-likelihood gap {gap:+.4f} nats",
        )

    def test_heldout_within_tolerance_of_truth(self, synthetic_runs):
        truth, _, heldout, _, _, _, model, _ = synthetic_runs
        truth_ll = float(np.mean(hh.hmog_log_densities(truth, heldout.points)))
        model_ll = float(np.mean(hh.hmog_log_densities(model, heldout.points)))
        gap = truth_ll - model_ll
        verdict(
            "criterion 2c (held-out gap to ground truth)", abs(gap) < 0.05,
            f"held-out gap {gap:+.4f} nats (|gap| < 0.05)",
        )

    def test_runtime_bound(self, synthetic_runs):
        *_, elapsed = synthetic_runs
        verdict(
            "criterion 2 (runtime)", elapsed < 300.0,
            f"synthetic fits took {elapsed:.0f} s (< 300 s)",
        )


# ---------------------------------------------------------------------------
# Criterion 3: cross-validated ordering
# ---------------------------------------------------------------------------


def anisotropic_truth() -> hh.Hmog:
    """Ground truth with several noise axes louder than the cluster axis.

    Only per-coordinate (diagonal) noise can absorb the loud axes, so
    isotropic-noise models must spend factors on them; the cluster
    structure lives on the quiet first coordinate.
    """
    mog = mx.mog_from_standard(
        np.array([0.5, 0.5]), np.array([[-2.5], [2.5]]),
        np.stack([np.eye(1) * 0.25] * 2),
    )
    loading = np.zeros((5, 1))
    loading[0, 0] = 1.0
    loading[4, 0] = 0.05
    noise = np.array([0.1, 0.4, 9.0, 15.0, 27.0])
    lgm = lg.lgm_from_standard(np.zeros(5), noise, loading, Structure.DIAGONAL)
    return hh.assemble_hmog(lgm, mog)


@pytest.fixture(scope="module")
def cv_reports():
    data = gen_synthetic(anisotropic_truth(), 2000, seed=100)
    grid = [(2, 2), (3, 3)]
    reports = {}
    for method in ["two_stage_pca", "two_stage_fa", "hmog_fa"]:
        cfg = FitConfig(
            method=method, latent_dim=2, clusters=2,
            stage1_iters=150, stage2_iters=60, hmog_iters=120,
            restarts=2, seed=3,
        )
        reports[method] = cross_validate(data, cfg, folds=5, grid=grid)
    return reports, grid


class TestCriterion3CvOrdering:
    def test_ordering_within_one_standard_deviation(self, cv_reports):
        reports, grid = cv_reports
        ok = True
        details = []
        for m, k in grid:
            hmog_cell = reports["hmog_fa"].cell(m, k)
            fa_cell = reports["two_stage_fa"].cell(m, k)
            pca_cell = reports["two_stage_pca"].cell(m, k)
            gap_hf = hmog_cell.mean - fa_cell.mean
            sd_hf = max(hmog_cell.std, fa_cell.std)
            gap_fp = fa_cell.mean - pca_cell.mean
            sd_fp = max(fa_cell.std, pca_cell.std)
            ok &= gap_hf >= -sd_hf and gap_fp >= -sd_fp
            details.append(
                f"({m},{k}): hmog-fa {gap_hf:+.4f} (sd {sd_hf:.4f}), "
                f"fa-pca {gap_fp:+.4f} (sd {sd_fp:.4f})"
            )
        verdict(
            "criterion 3 (CV ordering hmog_fa >= two_stage_fa >= two_stage_pca)",
            ok, "; ".join(details),
        )

    def test_folds_partition(self, cv_reports):
        reports, _ = cv_reports
        report = reports["two_stage_pca"]
        assert all(len(cell.fold_scores) == 5 for cell in report.cells)


# ---------------------------------------------------------------------------
# Criterion 4: oracle suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_hmog():
    rng = np.random.default_rng(1)
    mean = rng.normal(size=2) * 0.5
    loading = rng.normal(size=(2, 1))
    noise = rng.uniform(0.4, 0.9, 2)
    lgm = lg.lgm_from_standard(mean, noise, loading, Structure.DIAGONAL)
    weights = np.array([0.45, 0.3, 0.25])
    comp_means = rng.normal(size=(3, 1)) * 2
    comp_covs = rng.uniform(0.3, 0.8, 3).reshape(3, 1, 1)
    mog = mx.mog_from_standard(weights, comp_means, comp_covs)
    model = hh.assemble_hmog(lgm, mog)
    return model, (mean, noise, loading), (weights, comp_means, comp_covs)


class TestCriterion4Oracles:
    def test_conjugation_residuals(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for structure in [Structure.ISOTROPIC, Structure.DIAGONAL, Structure.FULL]:
            for n, m in [(2, 1), (5, 3), (20, 3)]:
                loading = rng.normal(size=(n, m)) * 0.7
                if structure is Structure.FULL:
                    a = rng.normal(size=(n, n)) * 0.3
                    noise = a @ a.T + np.eye(n)
                elif structure is Structure.DIAGONAL:
                    noise = rng.uniform(0.3, 1.4, n)
                else:
                    noise = float(rng.uniform(0.3, 1.4))
                model = lg.lgm_from_standard(rng.normal(size=n), noise, loading, structure)
                conj = lg.lgm_conjugation_parameters(model)
                probes = [rng.normal(size=m) * 2.5 for _ in range(100)]
                worst = max(worst, check_conjugation(lg.as_harmonium(model), conj, probes))
        for k, dim in [(2, 1), (4, 2), (6, 3)]:
            weights = rng.dirichlet(np.full(k, 5.0))
            means = rng.normal(size=(k, dim)) * 1.5
            covs = np.stack(
                [np.eye(dim) * u + 0.2 * np.outer(v, v)
                 for u, v in zip(rng.uniform(0.4, 1.1, k), rng.normal(size=(k, dim)))]
            )
            model = mx.mog_from_standard(weights, means, covs)
            conj = mx.mixture_conjugation_parameters(model)
            worst = max(
                worst,
                check_conjugation(mx.as_harmonium(model), conj, list(range(1, k + 1))),
            )
        verdict(
            "criterion 4 (conjugation residuals)", worst < 1e-8,
            f"max residual {worst:.2e} (< 1e-8)",
        )

    def test_hmog_density_oracles(self, reference_hmog):
        model, (mean, noise, loading), (weights, comp_means, comp_covs) = reference_hmog
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(60, 2)) * 2.5
        analytic = np.log(
            np.sum(
                [w * multivariate_normal.pdf(
                    xs, mean + loading @ mu,
                    loading @ cov @ loading.T + np.diag(noise))
                 for w, mu, cov in zip(weights, comp_means, comp_covs)],
                axis=0,
            )
        )
        marginal_err = float(np.max(np.abs(hh.hmog_log_densities(model, xs) - analytic)))

        lone = hh.Hmog(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, cat_params=np.zeros(0),
            obs_interaction=model.obs_interaction,
            lat_interaction=np.zeros((model.lat.param_dim, 0)),
        )
        embedded = lg.LinearGaussianModel(
            obs=model.obs, lat=model.lat, obs_params=model.obs_params,
            lat_params=model.lat_params, interaction=model.obs_interaction,
        )
        lgm_err = float(
            np.max(np.abs(hh.hmog_log_densities(lone, xs) - lg.lgm_log_densities(embedded, xs)))
        )
        ok = marginal_err < 1e-8 and lgm_err < 1e-10
        verdict(
            "criterion 4 (density oracles)", ok,
            f"analytic-marginal err {marginal_err:.2e} (< 1e-8), "
            f"single-cluster vs LGM err {lgm_err:.2e} (< 1e-10)",
        )

    def test_density_normalization_by_quadrature(self, reference_hmog):
        model, parts_lgm, _ = reference_hmog
        mean, noise, loading = parts_lgm
        lgm = lg.lgm_from_standard(mean, noise, loading, Structure.DIAGONAL)
        rng = np.random.default_rng(3)
        mog2 = mx.mog_from_standard(
            np.array([0.6, 0.4]), rng.normal(size=(2, 2)),
            np.stack([np.eye(2) * 0.7, np.eye(2) * 1.1]),
        )
        integrals = {}
        integrals["lgm"] = dblquad(
            lambda x2, x1: math.exp(lg.lgm_log_densities(lgm, np.array([[x1, x2]]))[0]),
            -15, 15, -15, 15, epsabs=1e-8,
        )[0]
        integrals["mog"] = dblquad(
            lambda y2, y1: math.exp(mx.mog_log_densities(mog2, np.array([[y1, y2]]))[0]),
            -15, 15, -15, 15, epsabs=1e-8,
        )[0]
        integrals["hmog"] = dblquad(
            lambda x2, x1: math.exp(hh.hmog_log_densities(model, np.array([[x1, x2]]))[0]),
            -20, 20, -20, 20, epsabs=1e-8,
        )[0]
        worst = max(abs(v - 1.0) for v in integrals.values())
        verdict(
            "criterion 4 (quadrature normalization)", worst < 1e-4,
            ", ".join(f"{k}: {v:.8f}" for k, v in integrals.items()),
        )

    def test_forward_mappings_match_finite_differences(self, reference_hmog):
        model, _, _ = reference_hmog
        flat = hh.pack_params(model)
        packed = hh.pack_means(*hh.hmog_forward(model))
        step = 1e-6
        worst = 0.0
        for i in range(len(flat)):
            hi, lo = flat.copy(), flat.copy()
            hi[i] += step
            lo[i] -= step
            numeric = (
                hh.hmog_log_partition(hh.unpack_params(model, hi))
                - hh.hmog_log_partition(hh.unpack_params(model, lo))
            ) / (2 * step)
            scale = max(abs(packed[i]), 1e-3)
            worst = max(worst, abs(numeric - packed[i]) / scale)
        verdict(
            "criterion 4 (forward = log-partition gradient)", worst < 1e-5,
            f"max relative deviation {worst:.2e} (< 1e-5)",
        )

    def test_forward_mappings_match_monte_carlo(self, reference_hmog):
        model, _, _ = reference_hmog
        rng = np.random.default_rng(4)
        packed = hh.pack_means(*hh.hmog_forward(model))
        xs, ys, zs = hh.hmog_sample(model, 1_000_000, rng)
        sx = model.obs.sufficient_statistics(xs)
        sy = model.lat.sufficient_statistics(ys)
        sz = model.cat.sufficient_statistics(zs)
        cross_xy = np.einsum("ni,nj->nij", xs, ys).reshape(len(xs), -1)
        cross_yz = np.einsum("ni,nj->nij", sy, sz).reshape(len(xs), -1)
        samples = np.concatenate([sx, sy, sz, cross_xy, cross_yz], axis=1)
        se = samples.std(axis=0) / math.sqrt(len(xs)) + 1e-12
        worst = float(np.max(np.abs(packed - samples.mean(axis=0)) / se))
        verdict(
            "criterion 4 (forward = Monte Carlo expectations)", worst < 5.0,
            f"max deviation {worst:.2f} standard errors (< 5)",
        )

    def test_linear_conjugation_cost(self):
        rng = np.random.default_rng(5)

        def build(n, structure):
            noise = rng.uniform(0.5, 1.5, n)
            if structure is Structure.ISOTROPIC:
                noise = float(noise.mean())
            return lg.lgm_from_standard(
                np.zeros(n), noise, rng.normal(size=(n, 3)) * 0.4, structure
            )

        def clock(model, repeats=50):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(repeats):
                    lg.lgm_conjugation_parameters(model)
                best = min(best, (time.perf_counter() - start) / repeats)
            return best

        worst = 0.0
        for structure in [Structure.ISOTROPIC, Structure.DIAGONAL]:
            small, large = build(100, structure), build(1000, structure)
            clock(small, repeats=5)
            worst = max(worst, clock(large) / clock(small))
        verdict(
            "criterion 4 (linear-in-n conjugation cost)", worst < 20.0,
            f"time(n=1000) / time(n=100) = {worst:.1f} (< 20)",
        )


# ---------------------------------------------------------------------------
# Criterion 5: deterministic CLI reproducibility
# ---------------------------------------------------------------------------


class TestCriterion5Determinism:
    def test_cli_outputs_bit_stable(self, tmp_path):
        synth_args = [
            "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
            "--count", "250", "--seed", "9",
        ]
        fit_args = [
            "fit", "--label-col", "cluster", "--method", "hmog-fa",
            "--latent-dim", "1", "--clusters", "2", "--stage-iters", "20",
            "--hmog-iters", "3", "--restarts", "2", "--seed", "4",
        ]
        cv_args = [
            "cv", "--method", "two-stage-pca", "--grid", "1:2", "--folds", "3",
            "--stage-iters", "10", "--restarts", "1", "--seed", "5",
        ]
        outputs = {}
        for run in ("a", "b"):
            synth_out = tmp_path / f"synth_{run}.csv"
            cli_main(synth_args + ["--out", str(synth_out)])
            fit_out = tmp_path / f"model_{run}.json"
            cli_main(fit_args + ["--input", str(synth_out), "--out", str(fit_out)])
            cv_out = tmp_path / f"cv_{run}.csv"
            cli_main(cv_args + ["--input", str(synth_out), "--out", str(cv_out)])
            classify_out = tmp_path / f"classify_{run}.csv"
            points = tmp_path / f"points_{run}.csv"
            data = load_csv(synth_out, label_column="cluster")
            points.write_text(
                "x_1,x_2\n"
                + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data.points)
            )
            cli_main([
                "classify", "--model", str(fit_out),
                "--input", str(points), "--out", str(classify_out),
            ])
            project_out = tmp_path / f"project_{run}.csv"
            cli_main([
                "project", "--model", str(fit_out),
                "--input", str(points), "--out", str(project_out),
            ])
            outputs[run] = tuple(
                p.read_bytes()
                for p in (synth_out, fit_out, cv_out, classify_out, project_out)
            )
        stable = outputs["a"] == outputs["b"]
        verdict(
            "criterion 5 (bit-stable CLI reproducibility)", stable,
            "synth, fit, cv, project, classify outputs identical across runs",
        )
