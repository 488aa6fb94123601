"""Command-line interface, exercised in-process."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmog
from hmog.cli import main
from hmog.pipeline import load_csv, load_model


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "synth.csv"
    code = main([
        "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
        "--count", "300", "--seed", "42", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory, synth_csv):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    code = main([
        "fit", "--input", str(synth_csv), "--label-col", "cluster",
        "--method", "hmog-fa", "--latent-dim", "1", "--clusters", "2",
        "--stage-iters", "15", "--hmog-iters", "3", "--restarts", "1",
        "--seed", "0", "--out", str(path),
    ])
    assert code == 0
    return path


class TestSynth:
    def test_output_shape_and_labels(self, synth_csv):
        data = load_csv(synth_csv, label_column="cluster")
        assert data.points.shape == (300, 2)
        assert set(np.unique(data.labels)) <= {1, 2}

    def test_bit_stable_across_runs(self, synth_csv, tmp_path):
        again = tmp_path / "again.csv"
        main([
            "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
            "--count", "300", "--seed", "42", "--out", str(again),
        ])
        assert again.read_bytes() == synth_csv.read_bytes()

    def test_custom_spec_round_trip(self, fitted_model, tmp_path):
        out = tmp_path / "from_spec.csv"
        code = main([
            "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
            "--count", "50", "--seed", "1", "--spec", str(fitted_model),
            "--out", str(out),
        ])
        assert code == 0
        assert load_csv(out, label_column="cluster").points.shape == (50, 2)

    def test_spec_needs_no_dimension_flags(self, fitted_model, tmp_path):
        """Omitted flags read the model's dims: the output equals the flagged call's."""
        outs = [tmp_path / "flagged.csv", tmp_path / "bare.csv"]
        flags = ["--clusters", "2", "--latent-dim", "1", "--obs-dim", "2"]
        for out, given in zip(outs, (flags, [])):
            assert main([
                "synth", *given, "--count", "50", "--seed", "1",
                "--spec", str(fitted_model), "--out", str(out),
            ]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--obs-dim", "4"], "--obs-dim 4, but --spec has dims.n = 2"),
            (["--latent-dim", "2", "--obs-dim", "2"],
             "--latent-dim 2, but --spec has dims.m = 1"),
            (["--clusters", "9", "--latent-dim", "7", "--obs-dim", "2"],
             "--clusters 9, but --spec has dims.k = 2"),
        ],
        ids=["obs-dim", "latent-dim", "clusters"],
    )
    def test_spec_rejects_other_dims(self, fitted_model, tmp_path, capsys, flags, message):
        out = tmp_path / "out.csv"
        code = main([
            "synth", *flags, "--count", "10", "--seed", "0",
            "--spec", str(fitted_model), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"hmog: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "missing, key", [("--clusters", "k"), ("--latent-dim", "m"), ("--obs-dim", "n")]
    )
    def test_dims_required_without_spec(self, tmp_path, capsys, missing, key):
        flags = {"--clusters": "2", "--latent-dim": "1", "--obs-dim": "2"}
        del flags[missing]
        out = tmp_path / "out.csv"
        code = main([
            "synth", *(part for item in flags.items() for part in item),
            "--count", "10", "--seed", "0", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hmog: error: {missing} (dims.{key}) is required without --spec\n"
        )
        assert not out.exists()


class TestFit:
    def test_model_json_schema(self, fitted_model):
        payload = json.loads(fitted_model.read_text())
        assert payload["method"] == "hmog_fa"
        assert payload["dims"] == {"n": 2, "m": 1, "k": 2}
        assert set(payload["params"]) == {
            "theta_x_mu", "theta_xx", "theta_y", "theta_z", "theta_xy", "theta_yz"
        }
        assert payload["meta"]["seed"] == 0
        assert payload["report"]["type"] == "fit_report"
        stages = {s["name"]: s["log_likelihoods"] for s in payload["report"]["stages"]}
        assert len(stages["stage1"]) == 15
        assert len(stages["unified"]) == 3

    def test_model_loadable(self, fitted_model):
        model = load_model(fitted_model)
        assert model.obs.dim == 2 and model.lat.dim == 1 and model.num_clusters == 2

    def test_bit_stable_across_runs(self, synth_csv, fitted_model, tmp_path):
        """Also checks that the deprecated --adam-* flags are accepted and ignored."""
        again = tmp_path / "model2.json"
        main([
            "fit", "--input", str(synth_csv), "--label-col", "cluster",
            "--method", "hmog-fa", "--latent-dim", "1", "--clusters", "2",
            "--stage-iters", "15", "--hmog-iters", "3", "--adam-lr", "1e-3",
            "--adam-steps", "20", "--restarts", "1", "--seed", "0",
            "--out", str(again),
        ])
        assert again.read_bytes() == fitted_model.read_bytes()


    def test_non_numeric_cell_reported(self, tmp_path, capsys):
        """A labelled CSV fitted without --label-col: one error line, status 2."""
        data = tmp_path / "labelled.csv"
        data.write_text("a,b,species\n1.0,2.0,setosa\n")
        code = main([
            "fit", "--input", str(data), "--method", "hmog-fa",
            "--latent-dim", "1", "--clusters", "2", "--seed", "0",
            "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hmog: error: {data}: non-numeric cell at row 2, column 3: 'setosa'\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_cell_reported(self, tmp_path, capsys, cell):
        """A cell that parses as a float but is not finite: one error line, status 2."""
        data = tmp_path / "points.csv"
        data.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        code = main([
            "fit", "--input", str(data), "--method", "hmog-fa",
            "--latent-dim", "1", "--clusters", "2", "--seed", "0",
            "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hmog: error: {data}: non-finite cell at row 3, column 2: {cell!r}\n"
        )
        assert not (tmp_path / "model.json").exists()

    def test_latent_dim_above_data_dimension_reported(self, tmp_path, capsys):
        """Iris has 4 coordinates: a 5-dimensional fit fails before any restart."""
        iris = Path(__file__).parent / "data" / "iris.csv"
        code = main([
            "fit", "--input", str(iris), "--label-col", "species",
            "--method", "hmog-fa", "--latent-dim", "5", "--clusters", "3",
            "--seed", "0", "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "hmog: error: latent_dim 5 exceeds the data dimension 4\n"
        )
        assert not (tmp_path / "model.json").exists()

    def test_collapsing_fit_reported(self, tmp_path, capsys):
        """Three distinct rows and three clusters: every restart collapses."""
        data = tmp_path / "atoms.csv"
        rows = ["0.0,1.0,2.0", "3.0,-1.0,0.5", "-2.0,4.0,1.0"] * 20
        data.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        code = main([
            "fit", "--input", str(data), "--method", "two-stage-pca",
            "--latent-dim", "2", "--clusters", "3", "--restarts", "2",
            "--seed", "0", "--out", str(tmp_path / "model.json"),
        ])
        assert code == 2
        assert re.fullmatch(
            r"hmog: error: all 2 restarts failed; last error: stage 2 EM failed: "
            r"component \d covariance is not positive-definite\n",
            capsys.readouterr().err,
        )
        assert not (tmp_path / "model.json").exists()


class TestProjectClassify:
    def test_project_output(self, synth_csv, fitted_model, tmp_path):
        out = tmp_path / "proj.csv"
        # the synth file has a label column the model does not expect; strip it
        data = load_csv(synth_csv, label_column="cluster")
        unlabeled = tmp_path / "points.csv"
        unlabeled.write_text(
            "x_1,x_2\n"
            + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data.points)
        )
        code = main([
            "project", "--model", str(fitted_model),
            "--input", str(unlabeled), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y_1"
        assert len(lines) == 301

    @pytest.mark.parametrize("command", ["project", "classify"])
    def test_input_width_checked(
        self, synth_csv, fitted_model, tmp_path, command, capsys
    ):
        # the labelled synth file has three columns; the model expects two
        code = main([
            command, "--model", str(fitted_model),
            "--input", str(synth_csv), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hmog: error: {synth_csv}: 3 columns, but the model expects dims.n = 2\n"
        )

    def test_non_finite_cell_reported(self, fitted_model, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text("x_1,x_2\n1.0,2.0\n3.0,4.0\ninf,5.0\n")
        out = tmp_path / "proj.csv"
        code = main([
            "project", "--model", str(fitted_model),
            "--input", str(data), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hmog: error: {data}: non-finite cell at row 4, column 1: 'inf'\n"
        )
        assert not out.exists()

    def test_classify_output(self, synth_csv, fitted_model, tmp_path):
        data = load_csv(synth_csv, label_column="cluster")
        unlabeled = tmp_path / "points.csv"
        unlabeled.write_text(
            "x_1,x_2\n"
            + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in data.points)
        )
        out = tmp_path / "classes.csv"
        code = main([
            "classify", "--model", str(fitted_model),
            "--input", str(unlabeled), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "cluster,p_1,p_2"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 300
        for row in rows:
            assert row[0] in {"1", "2"}
            assert float(row[1]) + float(row[2]) == pytest.approx(1.0, abs=1e-9)


class TestCv:
    def test_grid_csv(self, synth_csv, tmp_path):
        out = tmp_path / "cv.csv"
        code = main([
            "cv", "--input", str(synth_csv), "--method", "two-stage-pca",
            "--grid", "1:2", "--folds", "3", "--stage-iters", "10",
            "--restarts", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "latent_dim,k=2"
        assert len(lines) == 2

    def test_bad_grid_rejected(self, synth_csv, tmp_path, capsys):
        code = main([
            "cv", "--input", str(synth_csv), "--method", "two-stage-pca",
            "--grid", "nonsense", "--seed", "3",
            "--out", str(tmp_path / "cv.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "hmog: error: bad grid cell 'nonsense'; expected m:k\n"
        )

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_fewer_than_two_folds_rejected(self, synth_csv, tmp_path, folds, capsys):
        code = main([
            "cv", "--input", str(synth_csv), "--method", "two-stage-pca",
            "--grid", "1:2", "--folds", folds, "--seed", "3",
            "--out", str(tmp_path / "cv.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"hmog: error: folds must be at least 2, got {folds}\n"
        assert not (tmp_path / "cv.csv").exists()


class TestMissingFiles:
    """A missing input, model or output path: one error line naming it, status 2."""

    def _assert_reported(self, code, capsys, path):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hmog: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert str(path) in err

    def test_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main([
            "fit", "--input", str(missing), "--method", "hmog-fa",
            "--latent-dim", "1", "--clusters", "2", "--seed", "0",
            "--out", str(tmp_path / "model.json"),
        ])
        self._assert_reported(code, capsys, missing)

    def test_missing_model(self, synth_csv, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main([
            "project", "--model", str(missing), "--input", str(synth_csv),
            "--out", str(tmp_path / "features.csv"),
        ])
        self._assert_reported(code, capsys, missing)

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "x.csv"
        code = main([
            "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
            "--count", "10", "--seed", "0", "--out", str(out),
        ])
        self._assert_reported(code, capsys, out)


class TestMalformedModel:
    """A model file whose top level, ``dims`` or ``params`` is not an object."""

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda payload: [1, 2],
            lambda payload: {**payload, "dims": [1, 1, 2]},
            lambda payload: {**payload, "params": [1.0]},
        ],
        ids=["model", "dims", "params"],
    )
    @pytest.mark.parametrize("command", ["project", "synth"])
    def test_reported_without_traceback(
        self, fitted_model, synth_csv, tmp_path, capsys, mangle, command
    ):
        bad = tmp_path / "bad.json"
        payload = json.loads(fitted_model.read_text(encoding="utf-8"))
        bad.write_text(json.dumps(mangle(payload)), encoding="utf-8")
        if command == "project":
            args = ["project", "--model", str(bad), "--input", str(synth_csv)]
        else:
            args = [
                "synth", "--clusters", "2", "--latent-dim", "1", "--obs-dim", "2",
                "--count", "10", "--seed", "0", "--spec", str(bad),
            ]
        code = main([*args, "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hmog: error: ")
        assert err.count("\n") == 1
        assert "expected an object, got list" in err

    def test_bool_dimension_reported(self, fitted_model, synth_csv, tmp_path, capsys):
        """A JSON ``true`` is not a dimension, although Python counts it an int."""
        bad = tmp_path / "bad.json"
        payload = json.loads(fitted_model.read_text(encoding="utf-8"))
        payload["dims"]["m"] = True
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code = main([
            "project", "--model", str(bad), "--input", str(synth_csv),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "hmog: error: dims.m: expected a positive integer, got True\n"
        )


def test_import_loads_no_scipy():
    """The runtime is numpy alone: importing the package loads no scipy module."""
    src = str(Path(hmog.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    probe = (
        "import sys, hmog; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
