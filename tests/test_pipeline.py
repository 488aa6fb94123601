"""Training pipeline: data handling, drivers, cross-validation, reports."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmog import hierarchical as hh
from hmog import linear_gaussian as lg
from hmog import mixture as mx
from hmog import pipeline as pl
from hmog.families import DomainError, Structure
from hmog.optim import AdamConfig
from hmog.pipeline import (
    CvReport,
    Dataset,
    FitConfig,
    canonical_json,
    cross_validate,
    default_synthetic_hmog,
    export_report,
    fit_hmog,
    fit_model,
    fit_two_stage,
    gen_synthetic,
    init_lgm,
    init_mog,
    load_csv,
    load_model,
    model_from_dict,
    model_to_dict,
    report_to_dict,
    save_model,
    score_classification,
)

DATA_DIR = Path(__file__).parent / "data"


def small_cfg(method, **overrides):
    defaults = dict(
        method=method, latent_dim=1, clusters=2, stage1_iters=40, stage2_iters=30,
        hmog_iters=5, restarts=1, seed=0,
    )
    defaults.update(overrides)
    return FitConfig(**defaults)


class TestLoadCsv:
    def test_iris(self):
        data = load_csv(DATA_DIR / "iris.csv", label_column="species")
        assert data.points.shape == (150, 4)
        assert data.labels.min() == 1 and data.labels.max() == 3
        assert data.feature_names == (
            "sepal_length", "sepal_width", "petal_length", "petal_width"
        )
        assert len(data.label_names) == 3

    def test_no_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.points, [[1.0, 2.0], [3.0, 4.0]])
        assert data.labels is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="missing label column"):
            load_csv(path, label_column="species")


class TestGenSynthetic:
    def test_single_cluster_moments(self):
        """k=1 sample covariance matches W W^T + Sigma within 5 percent."""
        truth = default_synthetic_hmog(1, 1, 2)
        data = gen_synthetic(truth, 10_000, seed=0)
        lgm, mog = hh.disassemble_hmog(truth)
        _, noise, loading = lg.lgm_to_standard(lgm)
        _, _, covs = mx.mog_to_standard(mog)
        target = loading @ covs[0] @ loading.T + np.diag(noise)
        sample_cov = np.cov(data.points.T, bias=True)
        rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_cluster_axis_perpendicular_to_top_variance(self):
        truth = default_synthetic_hmog(2, 1, 2)
        data = gen_synthetic(truth, 10_000, seed=1)
        lgm, _ = hh.disassemble_hmog(truth)
        _, _, loading = lg.lgm_to_standard(lgm)
        direction = loading[:, 0] / np.linalg.norm(loading[:, 0])
        _, eigvecs = np.linalg.eigh(np.cov(data.points.T, bias=True))
        assert abs(float(direction @ eigvecs[:, -1])) < 0.1

    def test_deterministic(self):
        truth = default_synthetic_hmog(2, 1, 2)
        a = gen_synthetic(truth, 200, seed=7)
        b = gen_synthetic(truth, 200, seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_cover_clusters(self):
        truth = default_synthetic_hmog(3, 1, 2)
        data = gen_synthetic(truth, 3000, seed=2)
        assert set(np.unique(data.labels)) == {1, 2, 3}


class TestInitializers:
    def test_init_lgm_rejects_constant_column(self):
        data = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(DomainError, match="zero-variance"):
            init_lgm(data, 1, Structure.DIAGONAL, seed=0)

    def test_init_lgm_matches_empirical_variance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(100_000, 2))
        model = init_lgm(data, 1, Structure.ISOTROPIC, seed=0)
        _, noise, loading = lg.lgm_to_standard(model)
        assert noise == pytest.approx(1.0, rel=0.02)
        assert np.max(np.abs(loading)) <= 0.01
        prior_nat = model.lat_params + lg.lgm_conjugation_parameters(model).rho
        prior_mean, prior_cov = model.lat.to_mean_cov(prior_nat)
        np.testing.assert_allclose(prior_mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(prior_cov, np.eye(1), atol=1e-12)

    def test_init_lgm_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 3))
        a = init_lgm(data, 2, Structure.DIAGONAL, seed=5)
        b = init_lgm(data, 2, Structure.DIAGONAL, seed=5)
        np.testing.assert_array_equal(a.interaction, b.interaction)

    def test_init_mog_scheme(self):
        """Components share the fitted covariance; weights are uniform."""
        rng = np.random.default_rng(5)
        projected = rng.normal(size=(500, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])
        model = init_mog(projected, 3, seed=6)
        weights, means, covs = mx.mog_to_standard(model)
        np.testing.assert_allclose(weights, 1 / 3, atol=1e-10)
        centered = projected - projected.mean(axis=0)
        fitted = centered.T @ centered / len(projected)
        for cov in covs:
            np.testing.assert_allclose(cov, fitted, atol=1e-8)
        assert not np.allclose(means[0], means[1])

    def test_init_mog_single_component_is_fit_normal_with_drawn_mean(self):
        rng = np.random.default_rng(6)
        projected = rng.normal(size=(300, 1)) * 2.0
        model = init_mog(projected, 1, seed=7)
        _, means, covs = mx.mog_to_standard(model)
        centered = projected - projected.mean(axis=0)
        np.testing.assert_allclose(
            covs[0], centered.T @ centered / len(projected), atol=1e-10
        )


@pytest.fixture(scope="module")
def synthetic_data():
    truth = default_synthetic_hmog(2, 1, 2)
    return truth, gen_synthetic(truth, 1000, seed=100)


class TestFitTwoStage:
    def test_monotone_stage_one_and_report_shape(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca")
        lgm, mog, report = fit_two_stage(data, cfg)
        stage1 = np.asarray(report.stages[0].log_likelihoods)
        assert len(stage1) == cfg.stage1_iters
        assert np.min(np.diff(stage1)) > -1e-9
        assert len(report.trajectory) == cfg.stage1_iters + cfg.stage2_iters
        assert report.final_train_log_likelihood == report.trajectory[-1]

    def test_pca_loading_follows_top_variance(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca", stage1_iters=100)
        lgm, _, _ = fit_two_stage(data, cfg)
        _, _, loading = lg.lgm_to_standard(lgm)
        direction = loading[:, 0] / np.linalg.norm(loading[:, 0])
        _, eigvecs = np.linalg.eigh(np.cov(data.points.T, bias=True))
        assert abs(float(direction @ eigvecs[:, -1])) > 0.99

    def test_single_cluster_stage_two_is_gaussian_mle(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_fa", latent_dim=2, clusters=1)
        lgm, mog, _ = fit_two_stage(data, cfg)
        projected = lg.lgm_project_batch(lgm, data.points)
        _, means, covs = mx.mog_to_standard(mog)
        np.testing.assert_allclose(means[0], projected.mean(axis=0), atol=1e-8)
        centered = projected - projected.mean(axis=0)
        np.testing.assert_allclose(
            covs[0], centered.T @ centered / len(projected), atol=1e-8
        )

    def test_restart_selection_maximizes_final(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_fa", restarts=3)
        _, _, report = fit_two_stage(data, cfg)
        finals = []
        for r in range(3):
            single = small_cfg("two_stage_fa", seed=cfg.seed + r)
            _, _, rep = fit_two_stage(data, single)
            finals.append(rep.final_train_log_likelihood)
        assert report.final_train_log_likelihood == pytest.approx(max(finals), abs=1e-12)
        assert report.restart_index == int(np.argmax(finals))

    @pytest.mark.parametrize("method", ["two_stage_pca", "two_stage_fa"])
    def test_stage_two_scores_match_assembled_model(self, synthetic_data, method):
        """Fixed-shift stage-2 scoring equals scoring each assembled model afresh."""
        _, data = synthetic_data
        cfg = small_cfg(method, clusters=3, stage1_iters=10, stage2_iters=8)
        lgm, _, report = fit_two_stage(data, cfg)
        projected = lg.lgm_project_batch(lgm, data.points)
        mog = init_mog(projected, cfg.clusters, cfg.seed)
        for score in report.stages[1].log_likelihoods:
            mog = mx.mog_em_step(mog, projected)
            model = hh.assemble_hmog(lgm, mog)
            assert abs(score - hh.hmog_mean_log_likelihood(model, data.points)) <= 1e-12
            per_point = float(np.mean(hh.hmog_log_densities(model, data.points)))
            assert abs(score - per_point) <= 1e-12

    @pytest.mark.parametrize("method", ["two_stage_pca", "two_stage_fa"])
    def test_stage_one_scores_match_per_point_replay(self, synthetic_data, method):
        """Stage 1 on shared moments replays per-point `lgm_em_step` and scoring."""
        _, data = synthetic_data
        cfg = small_cfg(
            method, latent_dim=2, stage1_iters=15, stage2_iters=1, restarts=2
        )
        _, _, report = fit_two_stage(data, cfg)
        lgm = init_lgm(data.points, 2, cfg.structure, cfg.seed + report.restart_index)
        for score in report.stages[0].log_likelihoods:
            lgm = lg.lgm_em_step(lgm, data.points)
            per_point = float(np.mean(lg.lgm_log_densities(lgm, data.points)))
            assert abs(score - per_point) <= 1e-12 * abs(per_point)

    @pytest.mark.parametrize("method", ["two_stage_fa", "hmog_pca"])
    def test_moments_computed_once_per_fit(self, synthetic_data, monkeypatch, method):
        _, data = synthetic_data
        calls = []
        original = lg.data_moments

        def counting(obs, xs):
            calls.append(len(xs))
            return original(obs, xs)

        monkeypatch.setattr(pl, "data_moments", counting)
        monkeypatch.setattr(lg, "data_moments", counting)
        fit_model(data, small_cfg(method, restarts=3))
        assert calls == [len(data)]

    @pytest.mark.parametrize("method", ["two_stage_pca", "hmog_fa"])
    def test_zero_variance_fails_before_restarts(self, monkeypatch, method):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(60, 3))
        points[:, 1] = 2.5
        restarts = []
        monkeypatch.setattr(pl, "_two_stage_single", lambda *a: restarts.append(a))
        with pytest.raises(DomainError, match="^zero-variance coordinate 1$"):
            fit_model(points, small_cfg(method, restarts=3))
        assert restarts == []

    @pytest.mark.parametrize("method", ["two_stage_pca", "hmog_fa"])
    def test_latent_dim_above_data_dimension_fails_before_restarts(
        self, monkeypatch, method
    ):
        """Projections of 3-dimensional data span at most 3 feature dimensions."""
        points = np.random.default_rng(9).normal(size=(60, 3))
        restarts = []
        monkeypatch.setattr(pl, "_two_stage_single", lambda *a: restarts.append(a))
        with pytest.raises(
            ValueError, match="^latent_dim 4 exceeds the data dimension 3$"
        ):
            fit_model(points, small_cfg(method, latent_dim=4, restarts=3))
        assert restarts == []

    def test_deterministic_report(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca")
        _, _, a = fit_two_stage(data, cfg)
        _, _, b = fit_two_stage(data, cfg)
        assert a.trajectory == b.trajectory
        assert a.restart_index == b.restart_index


class TestFitHmog:
    def test_zero_unified_iterations_returns_assembled_two_stage(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("hmog_fa", hmog_iters=0)
        model, report = fit_hmog(data, cfg)
        lgm, mog, ts_report = fit_two_stage(
            data, small_cfg("two_stage_fa", hmog_iters=0)
        )
        np.testing.assert_allclose(
            hh.pack_params(model), hh.pack_params(hh.assemble_hmog(lgm, mog)),
            atol=1e-12,
        )
        assert report.final_train_log_likelihood == pytest.approx(
            ts_report.final_train_log_likelihood, abs=1e-12
        )
        assert report.stages[2] == pl.StageTrace("unified", ())

    def test_final_at_least_two_stage(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("hmog_fa", hmog_iters=8)
        model, report = fit_hmog(data, cfg)
        two_stage_final = report.stages[1].log_likelihoods[-1]
        assert report.final_train_log_likelihood >= two_stage_final - 1e-6

    def test_unified_monotone_within_tolerance(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("hmog_fa", hmog_iters=10)
        _, report = fit_hmog(data, cfg)
        unified = np.asarray(report.stages[2].log_likelihoods)
        assert len(unified) == 10
        assert np.min(np.diff(unified)) > -1e-6

    def test_deprecated_adam_config_ignored(self, synthetic_data):
        _, data = synthetic_data
        _, plain = fit_hmog(data, small_cfg("hmog_fa"))
        _, legacy = fit_hmog(
            data, small_cfg("hmog_fa", adam=AdamConfig(learning_rate=1e-2, steps=3))
        )
        assert report_to_dict(legacy) == report_to_dict(plain)


def _fail_in_restarts(monkeypatch, name, seeds, error=DomainError):
    """Make the pipeline's ``name`` raise ``error`` in the restarts on ``seeds``."""
    single, target = pl._two_stage_single, getattr(pl, name)
    restart_seed = []

    def tracking(data, cfg, seed, moments):
        restart_seed.append(seed)
        return single(data, cfg, seed, moments)

    def failing(*args, **kwargs):
        if restart_seed[-1] in seeds:
            raise error("injected")
        return target(*args, **kwargs)

    monkeypatch.setattr(pl, "_two_stage_single", tracking)
    monkeypatch.setattr(pl, name, failing)


STAGE2_STEP = "mog_em_step_from_statistics"


class TestRestartLoop:
    @pytest.mark.parametrize(
        "method, name",
        [("two_stage_fa", STAGE2_STEP), ("hmog_fa", STAGE2_STEP),
         ("hmog_fa", "hmog_em_iteration")],
    )
    def test_failed_restart_skipped(self, synthetic_data, monkeypatch, method, name):
        _, data = synthetic_data
        cfg = small_cfg(method, clusters=3, restarts=3)
        finals = [
            fit_model(data, replace(cfg, seed=r, restarts=1))[1]
            .final_train_log_likelihood
            for r in range(3)
        ]
        _fail_in_restarts(monkeypatch, name, seeds=[0])
        _, report = fit_model(data, cfg)
        assert report.restart_index == 1 + int(np.argmax(finals[1:]))
        assert report.final_train_log_likelihood == max(finals[1:])

    @pytest.mark.parametrize(
        "method, name, error",
        [("two_stage_pca", STAGE2_STEP, "stage 2 EM failed: injected"),
         pytest.param("hmog_pca", "hmog_em_iteration", "unified EM failed: injected",
                      id="hmog_pca-hmog_em_iteration-injected")],
    )
    def test_all_restarts_failed(self, synthetic_data, monkeypatch, method, name, error):
        _, data = synthetic_data
        _fail_in_restarts(monkeypatch, name, seeds=[0, 1])
        with pytest.raises(
            DomainError, match=f"^all 2 restarts failed; last error: {error}$"
        ):
            fit_model(data, small_cfg(method, restarts=2))

    @pytest.mark.parametrize("name", [STAGE2_STEP, "hmog_em_iteration"])
    def test_value_error_propagates(self, synthetic_data, monkeypatch, name):
        _, data = synthetic_data
        _fail_in_restarts(monkeypatch, name, seeds=[0], error=ValueError)
        with pytest.raises(ValueError, match="^injected$"):
            fit_model(data, small_cfg("hmog_pca", restarts=2))

    @pytest.mark.parametrize("method", ["two_stage_fa", "hmog_pca"])
    def test_collapsing_components_fail_every_restart(self, method):
        """Three distinct points and three clusters: a component collapses."""
        atoms = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5], [-2.0, 4.0, 1.0]])
        data = np.repeat(atoms, 20, axis=0)
        cfg = small_cfg(method, latent_dim=2, clusters=3, restarts=3)
        with pytest.raises(
            DomainError,
            match=r"^all 3 restarts failed; last error: stage 2 EM failed: "
            r"component \d covariance is not positive-definite$",
        ):
            fit_model(data, cfg)

    @pytest.mark.parametrize("method", pl.METHODS)
    def test_row_order_does_not_change_the_fit(self, synthetic_data, method):
        """Permuted rows pick the same restart and reach the same fit.

        Only the order of float sums over the data changes, so trajectories
        and parameters agree to reassociation error.
        """
        _, data = synthetic_data
        cfg = small_cfg(method, restarts=3)
        order = np.random.default_rng(7).permutation(len(data.points))
        model, report = fit_model(data.points, cfg)
        permuted, permuted_report = fit_model(data.points[order], cfg)
        assert permuted_report.restart_index == report.restart_index
        for stage, permuted_stage in zip(report.stages, permuted_report.stages):
            np.testing.assert_allclose(
                permuted_stage.log_likelihoods, stage.log_likelihoods, rtol=0, atol=1e-10
            )
        np.testing.assert_allclose(
            hh.pack_params(permuted), hh.pack_params(model), rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("method", ["two_stage_pca", "hmog_pca"])
    def test_tie_goes_to_lowest_restart(self, synthetic_data, monkeypatch, method):
        _, data = synthetic_data
        single = pl._two_stage_single

        def same_seed(data, cfg, seed, moments):
            return single(data, cfg, 0, moments)

        monkeypatch.setattr(pl, "_two_stage_single", same_seed)
        _, report = fit_model(data, small_cfg(method, restarts=3))
        assert report.restart_index == 0

    @pytest.mark.parametrize("method", pl.METHODS)
    def test_one_two_stage_run_per_restart(self, synthetic_data, monkeypatch, method):
        _, data = synthetic_data
        single, iteration = pl._two_stage_single, pl.hmog_em_iteration
        seeds, iterations = [], []

        def counting_single(data, cfg, seed, moments):
            seeds.append(seed)
            return single(data, cfg, seed, moments)

        def counting_iteration(*args, **kwargs):
            iterations.append(1)
            return iteration(*args, **kwargs)

        monkeypatch.setattr(pl, "_two_stage_single", counting_single)
        monkeypatch.setattr(pl, "hmog_em_iteration", counting_iteration)
        cfg = small_cfg(method, restarts=3, seed=7)
        _, report = fit_model(data, cfg)
        assert seeds == [7, 8, 9]
        assert len(iterations) == (3 * cfg.hmog_iters if cfg.unified else 0)
        names = ["stage1", "stage2"] + (["unified"] if cfg.unified else [])
        assert [stage.name for stage in report.stages] == names


class TestCrossValidate:
    def test_folds_partition_data(self, synthetic_data):
        _, data = synthetic_data
        seen = []
        cfg = small_cfg("two_stage_pca", stage1_iters=5, stage2_iters=5)
        rng = np.random.default_rng(cfg.seed)
        permutation = rng.permutation(len(data))
        folds = np.array_split(permutation, 5)
        union = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(union, np.arange(len(data)))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not set(folds[i]) & set(folds[j])

    def test_fold_scores_consistent_on_iid_data(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_fa", stage1_iters=30, stage2_iters=20)
        report = cross_validate(data, cfg, folds=5, grid=[(1, 2)])
        cell = report.cells[0]
        spread = max(cell.fold_scores) - min(cell.fold_scores)
        assert spread < 6 * cell.std + 1e-9

    @pytest.mark.parametrize("folds", [0, 1])
    def test_rejects_fewer_than_two_folds(self, synthetic_data, monkeypatch, folds):
        _, data = synthetic_data
        monkeypatch.setattr(pl, "_fit", lambda *a: pytest.fail("fit before the check"))
        with pytest.raises(ValueError, match=f"^folds must be at least 2, got {folds}$"):
            cross_validate(data, small_cfg("two_stage_pca"), folds=folds)

    def test_rejects_latent_dim_above_data_dimension(self, monkeypatch):
        points = np.random.default_rng(10).normal(size=(40, 3))
        restarts = []
        monkeypatch.setattr(pl, "_two_stage_single", lambda *a: restarts.append(a))
        with pytest.raises(
            ValueError, match="^latent_dim 4 exceeds the data dimension 3$"
        ):
            cross_validate(points, small_cfg("two_stage_fa"), folds=3, grid=[(4, 2)])
        assert restarts == []

    def test_rejects_fold_smaller_than_clusters(self):
        tiny = Dataset(np.random.default_rng(0).normal(size=(6, 2)))
        cfg = small_cfg("two_stage_pca", clusters=5, stage1_iters=2, stage2_iters=2)
        with pytest.raises(ValueError, match="smaller"):
            cross_validate(tiny, cfg, folds=6, grid=[(1, 5)])

    def test_deterministic(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca", stage1_iters=10, stage2_iters=10)
        a = cross_validate(data, cfg, folds=3, grid=[(1, 2)])
        b = cross_validate(data, cfg, folds=3, grid=[(1, 2)])
        assert a.cells[0].fold_scores == b.cells[0].fold_scores


class TestScoreClassification:
    def test_separated_clusters_high_accuracy(self, synthetic_data):
        truth, data = synthetic_data
        accuracy = score_classification(truth, data)
        assert accuracy > 0.95

    def test_single_cluster_gives_majority_frequency(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_fa", clusters=1, stage1_iters=10, stage2_iters=5)
        model, _ = fit_model(data, cfg)
        accuracy = score_classification(model, data)
        counts = np.bincount(data.labels)
        assert accuracy == pytest.approx(counts.max() / len(data))

    def test_label_permutation_invariance(self, synthetic_data):
        truth, data = synthetic_data
        flipped = Dataset(points=data.points, labels=3 - data.labels)
        assert score_classification(truth, data) == pytest.approx(
            score_classification(truth, flipped)
        )

    def test_two_stage_pair_accepted(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_fa", stage1_iters=60, stage2_iters=40)
        lgm, mog, _ = fit_two_stage(data, cfg)
        accuracy = score_classification((lgm, mog), data)
        assert 0.0 <= accuracy <= 1.0

    def test_multi_label_clusters_mode(self, synthetic_data):
        truth, data = synthetic_data
        plain = score_classification(truth, data)
        multi = score_classification(truth, data, multi_label_clusters=True)
        assert multi >= plain - 1e-12

    def test_cluster_or_label_without_training_points_misclassifies(self):
        """Cluster 3 and label 3 get no training point, so they match nothing.

        The points sit at the three cluster centres (-5, 0, 5 on the first
        axis). Training: cluster 1 holds labels {1, 1} and cluster 2 holds
        {2, 2, 1}; cluster 3 is empty. So cluster 1 means label 1 and
        cluster 2 label 2, and in the flipped direction label 1 is covered
        best by cluster 1 and label 2 by cluster 2; label 3 has no cluster.
        Of the test points (cluster, label) (1, 1), (2, 2), (2, 1), (3, 3),
        (3, 1) and (1, 3), only the first two are right in either mode:
        accuracy 2/6.
        """
        truth = default_synthetic_hmog(3, 1, 2)
        centres = np.array([[-5.0, -0.25], [0.0, 0.0], [5.0, 0.25]])
        np.testing.assert_array_equal(
            np.argmax(hh.hmog_classify_batch(truth, centres), axis=1), [0, 1, 2]
        )
        train = Dataset(centres[[0, 0, 1, 1, 1]], np.array([1, 1, 2, 2, 1]))
        test = Dataset(centres[[0, 1, 1, 2, 2, 0]], np.array([1, 2, 1, 3, 1, 3]))
        for multi in (False, True):
            accuracy = score_classification(truth, train, test, multi_label_clusters=multi)
            assert accuracy == pytest.approx(2 / 6)

    def test_requires_labels(self, synthetic_data):
        truth, data = synthetic_data
        unlabeled = Dataset(points=data.points)
        with pytest.raises(ValueError, match="labels"):
            score_classification(truth, unlabeled)


class TestSerialization:
    def test_model_round_trip(self, tmp_path, synthetic_data):
        truth, _ = synthetic_data
        path = tmp_path / "model.json"
        save_model(truth, "hmog_fa", seed=3, path=path)
        loaded = load_model(path)
        np.testing.assert_allclose(
            hh.pack_params(loaded), hh.pack_params(truth), atol=0
        )

    @pytest.mark.parametrize("method", pl.METHODS)
    def test_fitted_model_saves_identically_after_load(
        self, tmp_path, synthetic_data, method
    ):
        """Save, load and save again: the two files are byte-identical."""
        _, data = synthetic_data
        model, _ = fit_model(data, small_cfg(method, restarts=2))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, method, seed=0, path=first)
        save_model(load_model(first), method, seed=0, path=second)
        assert second.read_bytes() == first.read_bytes()

    def test_model_dict_schema(self, synthetic_data):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        assert payload["dims"] == {"n": 2, "m": 1, "k": 2}
        assert set(payload["params"]) == {
            "theta_x_mu", "theta_xx", "theta_y", "theta_z", "theta_xy", "theta_yz"
        }
        assert payload["meta"]["seed"] == 3
        rebuilt = model_from_dict(payload)
        np.testing.assert_array_equal(rebuilt.obs_params, truth.obs_params)

    def test_unknown_method_rejected(self, synthetic_data):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        payload["method"] = "bogus"
        with pytest.raises(ValueError, match="method"):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "field, mangle",
        [
            ("model", lambda payload: [1, 2]),
            ("dims", lambda payload: {**payload, "dims": [2, 1, 2]}),
            ("params", lambda payload: {**payload, "params": [1.0]}),
        ],
        ids=["model", "dims", "params"],
    )
    def test_non_object_rejected(self, synthetic_data, field, mangle):
        truth, _ = synthetic_data
        payload = mangle(model_to_dict(truth, "hmog_fa", seed=3))
        with pytest.raises(ValueError, match=f"^{field}: expected an object, got list$"):
            model_from_dict(payload)

    @pytest.mark.parametrize("key", ["n", "m", "k"])
    def test_bool_dimension_rejected(self, synthetic_data, key):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        payload["dims"][key] = True
        with pytest.raises(
            ValueError, match=f"^dims.{key}: expected a positive integer, got True$"
        ):
            model_from_dict(payload)

    def test_block_length_checked(self, synthetic_data):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        payload["params"]["theta_xx"].append(-0.5)
        with pytest.raises(ValueError, match="theta_xx"):
            model_from_dict(payload)

    @pytest.mark.parametrize("block", ["theta_x_mu", "theta_y", "theta_xy", "theta_yz"])
    def test_non_finite_block_rejected(self, tmp_path, synthetic_data, block):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        value = np.asarray(payload["params"][block], dtype=float)
        value.flat[0] = np.nan
        payload["params"][block] = value.tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DomainError, match=block):
            load_model(path)

    def test_indefinite_component_rejected_on_load(self, synthetic_data):
        truth, _ = synthetic_data
        payload = model_to_dict(truth, "hmog_fa", seed=3)
        payload["params"]["theta_yz"][-1][0] = 1e4
        with pytest.raises(DomainError, match="component 2"):
            model_from_dict(payload)

    def test_json_write_read_write_identical(self, tmp_path, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca", stage1_iters=5, stage2_iters=5)
        _, _, report = fit_two_stage(data, cfg)
        path = tmp_path / "report.json"
        export_report(report, path, format="json")
        first = path.read_bytes()
        payload = json.loads(first)
        second = canonical_json(payload).encode()
        assert first == second

    def test_trajectory_csv_header(self, tmp_path, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca", stage1_iters=5, stage2_iters=5)
        _, _, report = fit_two_stage(data, cfg)
        path = tmp_path / "trajectory.csv"
        export_report(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,log_likelihood"
        assert len(lines) == 1 + len(report.trajectory)

    def test_grid_csv_rectangular(self, tmp_path):
        from hmog.pipeline import CvCell

        report = CvReport(
            method="two_stage_pca", folds=5, seed=0,
            cells=(
                CvCell(2, 2, (-1.0, -1.1)),
                CvCell(2, 3, (-0.9, -1.0)),
                CvCell(3, 2, (-1.2, -1.3)),
                CvCell(3, 3, (-0.8, -0.85)),
            ),
        )
        path = tmp_path / "grid.csv"
        export_report(report, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "latent_dim,k=2,k=3"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_wall_time_not_serialized(self, synthetic_data):
        _, data = synthetic_data
        cfg = small_cfg("two_stage_pca", stage1_iters=3, stage2_iters=3)
        _, _, report = fit_two_stage(data, cfg)
        assert report.wall_time_s > 0
        assert "wall_time" not in json.dumps(report_to_dict(report))
