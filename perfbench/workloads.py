"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (timed, repeated),
then runs repetitions in two phases: ``measure`` does the timed work and
keeps its outputs, ``check`` verifies them untimed and untraced. Every fit
and every apply call is one operation; a call that raises or fails its
check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hmog import cli, hierarchical, pipeline
from hmog.optim import AdamConfig

import checks

SUBSAMPLE = 256  # points compared against the dense reference per call


@dataclass
class Ops:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])


@dataclass
class Rep:
    """Timed results and raw outputs of one repetition."""

    work_s: float = 0.0
    apply_s: dict[str, list[float]] = field(default_factory=dict)
    apply_points: int = 0
    apply_out: dict[str, list] = field(default_factory=dict)
    fits: dict[str, object] = field(default_factory=dict)
    model: object = None


APPLY_FNS = (
    ("logdensity", "hmog_log_densities"),
    ("classify", "hmog_classify_batch"),
    ("project", "hmog_project_batch"),
)


def _failure(exc: BaseException) -> list[str]:
    return ["".join(traceback.format_exception_only(type(exc), exc)).strip()]


class Workload:
    name = ""
    apply_calls = 1

    def __init__(self, root, workdir, seed: int) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.reference = None
        self.reference_idx = None
        self.previous_fits: dict[str, object] = {}
        self.nll = float("nan")
        self.notes: dict[str, float] = {}  # reported, but not metrics

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def fingerprint(self) -> bytes:
        """Bytes that identical set-ups must reproduce exactly."""
        return self.points.tobytes()

    # -- apply pass, shared by all workloads -------------------------------

    def _apply(self, model, points, rep: Rep) -> None:
        rep.apply_points = len(points)
        for key, fn_name in APPLY_FNS:
            fn = getattr(hierarchical, fn_name)
            outputs, times = [], []
            for _ in range(self.apply_calls):
                start = time.perf_counter()
                try:
                    outputs.append(fn(model, points))
                except Exception as exc:
                    outputs.append(exc)
                times.append(time.perf_counter() - start)
            rep.apply_s[key] = times
            rep.apply_out[key] = outputs

    def _check_apply(self, model, points, rep: Rep, ops: Ops) -> None:
        if self.reference is None:
            rng = np.random.default_rng(self.seed)
            size = min(SUBSAMPLE, len(points))
            self.reference_idx = np.sort(rng.choice(len(points), size, replace=False))
            self.reference = checks.DenseReference(model, points[self.reference_idx])
        count, k, m = len(points), model.num_clusters, model.lat_dim
        ref, idx = self.reference, self.reference_idx
        validators = {
            "logdensity": lambda v: checks.check_log_densities(v, count, ref, idx),
            "classify": lambda v: checks.check_classify(v, count, k, ref, idx),
            "project": lambda v: checks.check_project(v, count, m, ref, idx),
        }
        for key, outputs in rep.apply_out.items():
            for value in outputs:
                if isinstance(value, Exception):
                    ops.record(_failure(value))
                else:
                    ops.record(validators[key](value))
        rep.apply_out = {}

    def _check_repeatable(self, label: str, text) -> list[str]:
        """Fit outputs must be byte-identical across repetitions of a run."""
        first = self.previous_fits.setdefault(label, text)
        if first != text:
            return [f"{label}: output differs from the first repetition"]
        return []

    def measure(self) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, ops: Ops) -> None:
        raise NotImplementedError


class IrisUnified(Workload):
    """Both unified methods through ``hmog fit`` on Iris (Adam-bound).

    The seed permutes the rows of Iris; the fit itself uses the criterion-1
    seed and recipe, so every seed trains on the same 150 points and
    results differ only by float reassociation.
    """

    name = "iris-unified"
    methods = ("hmog-pca", "hmog-fa")
    apply_calls = 200
    fit_args = (
        "--label-col", "species", "--latent-dim", "2", "--clusters", "3",
        "--stage-iters", "100", "--hmog-iters", "5",
        "--adam-lr", "1e-3", "--adam-steps", "200", "--restarts", "1", "--seed", "1",
    )
    warmup_args = (
        "--label-col", "species", "--latent-dim", "2", "--clusters", "3",
        "--stage-iters", "3", "--hmog-iters", "1",
        "--adam-lr", "1e-3", "--adam-steps", "3", "--restarts", "1", "--seed", "1",
    )

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self) -> None:
        data = pipeline.load_csv(self.root / "tests" / "data" / "iris.csv",
                                 label_column="species")
        order = np.random.default_rng(self.seed).permutation(len(data))
        self.points = data.points[order]
        labels = [data.label_names[i - 1] for i in data.labels[order]]
        self.csv_path = self.workdir / f"iris-{self.seed}.csv"
        with open(self.csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([*data.feature_names, "species"])
            for row, label in zip(self.points, labels):
                writer.writerow([repr(float(v)) for v in row] + [label])
        # Warm-up fit: first calls into scipy and numpy load lazily.
        self._cli(["fit", "--input", str(self.csv_path), "--method", "hmog-fa",
                   *self.warmup_args, "--out", str(self.workdir / "warmup.json")])

    def measure(self) -> Rep:
        rep = Rep()
        start = time.perf_counter()
        for method in self.methods:
            out = self.workdir / f"fit-{method}-{self.seed}.json"
            try:
                code = self._cli(["fit", "--input", str(self.csv_path), "--method",
                                  method, *self.fit_args, "--out", str(out)])
                rep.fits[method] = out.read_bytes() if code == 0 else f"exit code {code}"
            except Exception as exc:
                rep.fits[method] = exc
        rep.work_s = time.perf_counter() - start
        fitted = rep.fits.get("hmog-fa")
        if isinstance(fitted, bytes):
            rep.model = pipeline.model_from_dict(json.loads(fitted))
            self._apply(rep.model, self.points, rep)
        return rep

    def check(self, rep: Rep, ops: Ops) -> None:
        nlls = []
        for method in self.methods:
            text = rep.fits[method]
            if not isinstance(text, bytes):
                ops.record(_failure(text) if isinstance(text, Exception) else [text])
                continue
            report = json.loads(text)["report"]
            final = report["final_train_log_likelihood"]
            errors = checks.check_fit_report(report, method)
            errors += self._check_repeatable(method, text)
            if method == "hmog-fa" and rep.apply_out:
                # The apply pass runs on the training points, so its mean
                # log-density must reproduce the report's final value.
                ld = rep.apply_out["logdensity"][-1]
                if not isinstance(ld, Exception) and abs(ld.mean() - final) > 1e-9:
                    errors.append(f"apply mean log-density {ld.mean()!r} != "
                                  f"report final {final!r}")
            ops.record(errors)
            nlls.append(-final)
            self.notes[f"train_ll.{method}"] = final
        if len(nlls) == len(self.methods):
            self.nll = float(np.mean(nlls))
        if rep.apply_out:
            self._check_apply(rep.model, self.points, rep, ops)


class SynthLargeN(Workload):
    """Unified FA fit on 2e4 synthetic points with a short Adam budget.

    Per-point layers (two-stage EM, per-iteration scoring, the E-step)
    dominate; the fitted model is applied to a held-out draw.
    """

    name = "synth-large-n"
    count = 20_000
    apply_calls = 3
    config = pipeline.FitConfig(
        method="hmog_fa", latent_dim=5, clusters=8,
        stage1_iters=10, stage2_iters=10, hmog_iters=3,
        adam=AdamConfig(learning_rate=1e-2, steps=30), restarts=2, seed=0,
    )

    def setup(self) -> None:
        truth = pipeline.default_synthetic_hmog(8, 5, 50)
        self.points = pipeline.gen_synthetic(truth, self.count, 2 * self.seed).points
        self.heldout = pipeline.gen_synthetic(truth, self.count, 2 * self.seed + 1).points

    def fingerprint(self) -> bytes:
        return self.points.tobytes() + self.heldout.tobytes()

    def measure(self) -> Rep:
        rep = Rep()
        start = time.perf_counter()
        try:
            model, report = pipeline.fit_model(self.points, self.config)
        except Exception as exc:
            rep.work_s = time.perf_counter() - start
            rep.fits["hmog_fa"] = exc
            return rep
        rep.work_s = time.perf_counter() - start
        payload = pipeline.model_to_dict(model, self.config.method, self.config.seed)
        payload["report"] = pipeline.report_to_dict(report)
        rep.fits["hmog_fa"] = pipeline.canonical_json(payload)
        rep.model = model
        self._apply(model, self.heldout, rep)
        return rep

    def check(self, rep: Rep, ops: Ops) -> None:
        text = rep.fits["hmog_fa"]
        if isinstance(text, Exception):
            ops.record(_failure(text))
            return
        report = json.loads(text)["report"]
        ops.record(checks.check_fit_report(report, "hmog_fa")
                   + self._check_repeatable("hmog_fa", text))
        self.nll = -report["final_train_log_likelihood"]
        self.notes["train_ll.hmog-fa"] = report["final_train_log_likelihood"]
        ld = rep.apply_out["logdensity"][-1]
        if not isinstance(ld, Exception):
            self.notes["heldout_ll"] = float(ld.mean())
        self._check_apply(rep.model, self.heldout, rep, ops)


class ApplyBatch(Workload):
    """The fixed ground-truth model applied to 1e5 generated points.

    No training happens anywhere in this workload, so nothing calls
    ``optim``; it reads the posterior kernel that training writes through.
    """

    name = "apply-batch"
    count = 100_000

    def setup(self) -> None:
        self.model = pipeline.default_synthetic_hmog(8, 5, 50)
        self.points = pipeline.gen_synthetic(self.model, self.count, self.seed).points

    def measure(self) -> Rep:
        rep = Rep()
        self._apply(self.model, self.points, rep)
        rep.work_s = sum(sum(times) for times in rep.apply_s.values())
        rep.model = self.model
        return rep

    def check(self, rep: Rep, ops: Ops) -> None:
        ld = rep.apply_out["logdensity"][-1]
        if not isinstance(ld, Exception):
            self.nll = -float(ld.mean())
        self._check_apply(self.model, self.points, rep, ops)


WORKLOADS = {cls.name: cls for cls in (IrisUnified, SynthLargeN, ApplyBatch)}
