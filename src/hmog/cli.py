"""Command-line interface.

Subcommands: ``fit`` trains a model and writes it (with its training
report) as JSON; ``cv`` runs k-fold cross-validation over a grid and
writes the score grid as CSV; ``synth`` samples a synthetic dataset from a
ground-truth model; ``project`` and ``classify`` apply a saved model to a
CSV of observations. All commands are deterministic given their seed.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .hierarchical import hmog_classify_batch, hmog_project_batch
from .pipeline import (
    METHODS,
    FitConfig,
    canonical_json,
    cross_validate,
    default_synthetic_hmog,
    export_report,
    fit_model,
    gen_synthetic,
    load_csv,
    load_model,
    model_to_dict,
    report_to_dict,
)

CLI_METHODS = tuple(method.replace("_", "-") for method in METHODS)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _float_cells(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stage-iters", type=int, default=100,
                        help="EM iterations for each two-stage stage")
    parser.add_argument("--hmog-iters", type=int, default=800,
                        help="unified EM iterations (hmog methods)")
    parser.add_argument("--adam-lr", type=float, default=1e-4,
                        help="deprecated and ignored: the maximization step is exact")
    parser.add_argument("--adam-steps", type=int, default=2000,
                        help="deprecated and ignored: the maximization step is exact")
    parser.add_argument("--restarts", type=int, default=10,
                        help="independent restarts (best kept)")


def _config(args: argparse.Namespace, latent_dim: int, clusters: int) -> FitConfig:
    return FitConfig(
        method=args.method.replace("-", "_"),
        latent_dim=latent_dim,
        clusters=clusters,
        stage1_iters=args.stage_iters,
        stage2_iters=args.stage_iters,
        hmog_iters=args.hmog_iters,
        restarts=args.restarts,
        seed=args.seed,
    )


def _cmd_fit(args: argparse.Namespace) -> None:
    data = load_csv(args.input, args.label_col)
    cfg = _config(args, args.latent_dim, args.clusters)
    model, report = fit_model(data, cfg)
    payload = model_to_dict(model, cfg.method, args.seed)
    payload["report"] = report_to_dict(report)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(payload))


def _parse_grid(text: str) -> list[tuple[int, int]]:
    cells = []
    for chunk in text.split(","):
        try:
            latent_dim, clusters = (int(part) for part in chunk.strip().split(":"))
        except ValueError:
            raise ValueError(f"bad grid cell {chunk!r}; expected m:k") from None
        cells.append((latent_dim, clusters))
    return cells


def _cmd_cv(args: argparse.Namespace) -> None:
    data = load_csv(args.input)
    grid = _parse_grid(args.grid)
    cfg = _config(args, grid[0][0], grid[0][1])
    report = cross_validate(data, cfg, folds=args.folds, grid=grid)
    export_report(report, args.out, format="csv")


def _cmd_synth(args: argparse.Namespace) -> None:
    model = load_model(args.spec) if args.spec else None
    dims = model and {"k": model.num_clusters, "m": model.lat_dim, "n": model.obs_dim}
    for flag, key in (("clusters", "k"), ("latent_dim", "m"), ("obs_dim", "n")):
        given, name = getattr(args, flag), "--" + flag.replace("_", "-")
        if dims is None and given is None:
            raise ValueError(f"{name} (dims.{key}) is required without --spec")
        if dims is not None and given is not None and given != dims[key]:
            raise ValueError(f"{name} {given}, but --spec has dims.{key} = {dims[key]}")
    model = model or default_synthetic_hmog(args.clusters, args.latent_dim, args.obs_dim)
    data = gen_synthetic(model, args.count, args.seed)
    header = [f"x_{i + 1}" for i in range(data.dim)] + ["cluster"]
    rows = (
        _float_cells(point) + [str(int(label))]
        for point, label in zip(data.points, data.labels)
    )
    _write_csv(args.out, header, rows)


def _model_and_points(args: argparse.Namespace):
    """Load the model and the input points, checking that their widths agree."""
    model = load_model(args.model)
    data = load_csv(args.input)
    if data.dim != model.obs_dim:
        raise ValueError(
            f"{args.input}: {data.dim} columns, but the model expects "
            f"dims.n = {model.obs_dim}"
        )
    return model, data


def _cmd_project(args: argparse.Namespace) -> None:
    model, data = _model_and_points(args)
    projections = hmog_project_batch(model, data.points)
    header = [f"y_{j + 1}" for j in range(projections.shape[1])]
    _write_csv(args.out, header, (_float_cells(row) for row in projections))


def _cmd_classify(args: argparse.Namespace) -> None:
    model, data = _model_and_points(args)
    posteriors = hmog_classify_batch(model, data.points)
    assignments = np.argmax(posteriors, axis=1) + 1
    header = ["cluster"] + [f"p_{z + 1}" for z in range(posteriors.shape[1])]
    rows = (
        [str(int(cluster))] + _float_cells(row)
        for cluster, row in zip(assignments, posteriors)
    )
    _write_csv(args.out, header, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmog",
        description="Train, evaluate, and apply hierarchical mixtures of Gaussians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train a model and write it as JSON")
    fit.add_argument("--input", required=True, help="input CSV")
    fit.add_argument("--label-col", default=None, help="label column name")
    fit.add_argument("--method", required=True, choices=CLI_METHODS)
    fit.add_argument("--latent-dim", type=int, required=True)
    fit.add_argument("--clusters", type=int, required=True)
    _add_training_flags(fit)
    fit.add_argument("--seed", type=int, required=True)
    fit.add_argument("--out", required=True, help="output JSON path")
    fit.set_defaults(handler=_cmd_fit)

    cv = sub.add_parser("cv", help="k-fold cross-validation over a grid")
    cv.add_argument("--input", required=True, help="input CSV")
    cv.add_argument("--method", required=True, choices=CLI_METHODS)
    cv.add_argument("--grid", required=True, help='grid cells "m1:k1,m2:k2,..."')
    cv.add_argument("--folds", type=int, default=5)
    _add_training_flags(cv)
    cv.add_argument("--seed", type=int, required=True)
    cv.add_argument("--out", required=True, help="output CSV path")
    cv.set_defaults(handler=_cmd_cv)

    synth = sub.add_parser("synth", help="sample a synthetic labelled dataset")
    for flag in ("--clusters", "--latent-dim", "--obs-dim"):
        synth.add_argument(flag, type=int, help="required unless --spec is given")
    synth.add_argument("--count", type=int, required=True)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--spec", default=None, help="ground-truth model JSON")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(handler=_cmd_synth)

    project = sub.add_parser("project", help="project observations to feature space")
    project.add_argument("--model", required=True, help="model JSON")
    project.add_argument("--input", required=True, help="input CSV")
    project.add_argument("--out", required=True, help="output CSV path")
    project.set_defaults(handler=_cmd_project)

    classify = sub.add_parser("classify", help="cluster posteriors for observations")
    classify.add_argument("--model", required=True, help="model JSON")
    classify.add_argument("--input", required=True, help="input CSV")
    classify.add_argument("--out", required=True, help="output CSV path")
    classify.set_defaults(handler=_cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, OSError) as exc:  # bad input or a missing file, not a crash
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
