"""Run loop, metrics, self-check and result line of the benchmark."""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time

import numpy as np

from hmog import hierarchical, pipeline

import checks
from tracing import COUNTED_METHODS, TIMED, RestartLedger, Tracer
from workloads import Ops, Workload

SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# Self-check: the output checks must reject corrupted outputs
# ---------------------------------------------------------------------------


def _report(stage1, stage2, unified) -> dict:
    return {"stages": [
        {"name": "stage1", "log_likelihoods": stage1},
        {"name": "stage2", "log_likelihoods": stage2},
        {"name": "unified", "log_likelihoods": unified},
    ]}


def self_check(workdir) -> list[str]:
    """Feed the checks clean and corrupted outputs; return what they got wrong."""
    model = pipeline.default_synthetic_hmog(3, 2, 4)
    points = pipeline.gen_synthetic(model, 64, seed=0).points
    n, k, m = len(points), model.num_clusters, model.lat_dim
    idx = np.arange(n)
    ref = checks.DenseReference(model, points)
    ld = hierarchical.hmog_log_densities(model, points)
    cl = hierarchical.hmog_classify_batch(model, points)
    pr = hierarchical.hmog_project_batch(model, points)
    repeat = Workload(None, workdir, 0)
    repeat._check_repeatable("fit", b"first")

    cases = {  # label: (errors found, corrupted?)
        "clean log-densities": (checks.check_log_densities(ld, n, ref, idx), False),
        "clean classify": (checks.check_classify(cl, n, k, ref, idx), False),
        "clean project": (checks.check_project(pr, n, m, ref, idx), False),
        "clean fit report": (checks.check_fit_report(
            _report([-3.0, -2.0], [-2.0, -1.5], [-1.4, -1.4 - 5e-7]), "fit"), False),
        "log-densities shifted by 1e-6": (
            checks.check_log_densities(ld + 1e-6, n, ref, idx), True),
        "log-density set to NaN": (
            checks.check_log_densities(np.where(idx == 5, np.nan, ld), n, ref, idx), True),
        "classify rows scaled by 1.001": (
            checks.check_classify(cl * 1.001, n, k, ref, idx), True),
        "classify columns reversed": (
            checks.check_classify(cl[:, ::-1], n, k, ref, idx), True),
        "project shifted by 1e-6": (checks.check_project(pr + 1e-6, n, m, ref, idx), True),
        "two-stage step falling by 1e-8": (checks.check_fit_report(
            _report([-3.0, -3.0 - 1e-8], [-2.0, -1.5], [-1.5, -1.4]), "fit"), True),
        "unified step falling by 1e-5": (checks.check_fit_report(
            _report([-3.0, -2.0], [-2.0, -1.5], [-1.4, -1.4 - 1e-5]), "fit"), True),
        "unified final below two-stage": (checks.check_fit_report(
            _report([-3.0, -2.0], [-2.0, -1.5], [-1.5 - 1e-7]), "fit"), True),
        "fit output differing across repetitions": (
            repeat._check_repeatable("fit", b"second"), True),
    }
    return [
        f"self-check: {label} was {'accepted' if corrupted else 'rejected'}"
        for label, (errors, corrupted) in cases.items()
        if bool(errors) != corrupted
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(setup_times, reps, workload) -> dict[str, float]:
    out = {
        "setup_s": _median(setup_times),
        "work_s": _median(r.work_s for r in reps),
        "nll": workload.nll,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Throughput from the median call: every call of a run is one sample.
    for key in ("logdensity", "classify", "project"):
        calls = [(r.apply_points, t) for r in reps for t in r.apply_s.get(key, [])]
        out[f"{key}_pts_per_s"] = (
            calls[0][0] / _median(t for _, t in calls) if calls else math.nan
        )
    return out


def per_layer(tracer: Tracer, ledger: RestartLedger, plain, traced) -> dict[str, float]:
    """Per-layer figures per traced repetition, plus the tracing overhead."""
    runs = len(traced)
    totals = tracer.layer_totals()
    out = {}
    for module, attr, _ in TIMED:
        name = f"{module}.{attr}"
        row = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
        out[f"{name}.calls"] = row["calls"] / runs
        out[f"{name}.total_s"] = row["total_s"] / runs
        out[f"{name}.self_s"] = row["self_s"] / runs
        out[f"{name}.pts_per_s"] = row["points"] / row["total_s"] if row["points"] else 0.0
    for module, cls_name, attr in COUNTED_METHODS:
        name = f"{module}.{cls_name}.{attr}.calls"
        out[name] = tracer.counts[name] / runs
    for stat in ("steps", "rejections"):
        out[f"optim.adam_optimize.{stat}"] = tracer.counts[f"optim.adam_optimize.{stat}"] / runs
    em = totals.get("hierarchical.hmog_em_iteration", {"calls": 0})
    kept = tracer.counts["hierarchical.hmog_em_iteration.kept"]
    out["hierarchical.hmog_em_iteration.kept_frac"] = kept / em["calls"] if em["calls"] else 0.0
    all_runs = len(plain) + runs
    out["pipeline.restarts.attempted"] = ledger.attempted / all_runs
    out["pipeline.restarts.failed"] = ledger.failed / all_runs
    out["bench.work_s"] = _median(r.work_s for r in plain)
    out["bench.traced_work_s"] = _median(r.work_s for r in traced)
    out["bench.trace_overhead_s"] = out["bench.traced_work_s"] - out["bench.work_s"]
    out["bench.spans"] = len(tracer.spans) / runs
    return out


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def run(root, workload_cls, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tag = f"{workload_cls.name}-seed{seed}-trace{int(traced)}"
    print("env " + json.dumps(env, sort_keys=True))

    problems = self_check(workdir)
    workload = workload_cls(root, workdir, seed)
    setup_times, prints = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        prints.append(workload.fingerprint())
    if any(p != prints[0] for p in prints):
        problems.append("set-up is not deterministic for a fixed seed")

    ops = Ops()
    ledger = RestartLedger()
    tracer = Tracer()
    plain, traced_reps = [], []
    min_reps = 4 if traced else 3
    start = time.perf_counter()
    last = 0.0
    with ledger.active():
        # Stop before a repetition that would end past the time budget.
        while (len(plain) + len(traced_reps) < min_reps
               or time.perf_counter() - start + last <= seconds):
            index = len(plain) + len(traced_reps)
            use_trace = traced and index % 2 == 1
            rep_start = time.perf_counter()
            with tracer.active(index) if use_trace else contextlib.nullcontext():
                rep = workload.measure()
            workload.check(rep, ops)
            last = time.perf_counter() - rep_start
            (traced_reps if use_trace else plain).append(rep)
    ops.attempted += ledger.attempted
    ops.failed += ledger.failed

    values = end_to_end(setup_times, plain, workload)
    key = "end_to_end"
    if traced:
        values.update(per_layer(tracer, ledger, plain, traced_reps))
        key = "per_layer"
        tracer.write(workdir / f"spans-{workload_cls.name}-seed{seed}.jsonl")
    metrics = {}
    for entry in spec[key]:
        value = values.get(entry["name"])
        if not _finite(value):
            problems.append(f"metric {entry['name']} not measured")
            value = None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(f"{workload_cls.name}: seed {seed}, {len(plain)} plain + {len(traced_reps)} "
          f"traced repetitions, set-up {['%.4f' % t for t in setup_times]} s, "
          f"work {['%.3f' % r.work_s for r in plain + traced_reps]} s")
    for name, value in workload.notes.items():
        print(f"{name} {value!r} nats/point")
    for message in ops.errors + problems:
        print("FAILED " + message)

    result = {
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    record = {"workload": workload_cls.name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "env": env, "values": values, "notes": workload.notes,
              "setup_s": setup_times, "work_s": [r.work_s for r in plain],
              "errors": ops.errors + problems, "result": result}
    (workdir / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str), encoding="utf-8"
    )
    return result
