"""Output checks the benchmark applies on every run.

Every check returns a list of failure messages (empty when the output is
correct), so a failure is counted against the operation that produced it
and the run goes on to report what it measured.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from hmog import hierarchical, linear_gaussian, mixture

# EM monotonicity tolerances per step: closed-form EM is exact up to float
# rounding; the unified Adam M-step discards only steps that lower the
# likelihood, evaluated on the same data.
TWO_STAGE_TOL = 1e-9
UNIFIED_TOL = 1e-6
# Apply outputs against the dense mixture reference, absolute.
REFERENCE_TOL = 1e-8
ROW_SUM_TOL = 1e-10


def check_fit_report(report: dict, label: str) -> list[str]:
    """Trajectory monotonicity and unified >= two-stage on one fit report."""
    stages = {s["name"]: s["log_likelihoods"] for s in report["stages"]}
    errors = []
    for name, values in stages.items():
        tol = UNIFIED_TOL if name == "unified" else TWO_STAGE_TOL
        if not all(np.isfinite(values)):
            errors.append(f"{label}: non-finite log-likelihood in {name}")
            continue
        steps = np.diff(values)
        if len(steps) and steps.min() < -tol:
            errors.append(
                f"{label}: {name} trajectory fell by {-steps.min():.3e} (tol {tol:g})"
            )
    if "unified" in stages and stages["unified"]:
        if stages["unified"][-1] < stages["stage2"][-1]:
            errors.append(
                f"{label}: unified final {stages['unified'][-1]!r} below "
                f"two-stage {stages['stage2'][-1]!r}"
            )
    return errors


class DenseReference:
    """Observable mixture p(x) = sum_z w_z N(x; b + W mu_z, W S_z W^T + D).

    Built from the model's standard-form parameters and evaluated with
    scipy's dense multivariate normal, independently of the conjugated
    evaluation path the program uses.
    """

    def __init__(self, model, points: np.ndarray) -> None:
        lgm, mog = hierarchical.disassemble_hmog(model)
        offset, noise, loading = linear_gaussian.lgm_to_standard(lgm)
        weights, means, covs = mixture.mog_to_standard(mog)
        noise_cov = np.diag(np.broadcast_to(noise, offset.shape))
        comp_logpdf = []
        comp_feature_means = []
        for w, mu, cov in zip(weights, means, covs):
            x_mean = offset + loading @ mu
            x_cov = loading @ cov @ loading.T + noise_cov
            logpdf = multivariate_normal(x_mean, x_cov).logpdf(points)
            comp_logpdf.append(np.log(w) + np.atleast_1d(logpdf))
            gain = np.linalg.solve(x_cov, loading @ cov)
            comp_feature_means.append(mu + (points - x_mean) @ gain)
        logits = np.stack(comp_logpdf, axis=1)
        self.log_densities = logsumexp(logits, axis=1)
        self.posteriors = np.exp(logits - self.log_densities[:, None])
        self.feature_means = np.einsum(
            "nk,knm->nm", self.posteriors, np.stack(comp_feature_means)
        )


def check_log_densities(values, count: int, ref: DenseReference, idx) -> list[str]:
    if values.shape != (count,) or not np.all(np.isfinite(values)):
        return [f"log-densities: bad shape {values.shape} or non-finite values"]
    gap = float(np.max(np.abs(values[idx] - ref.log_densities)))
    if gap > REFERENCE_TOL:
        return [f"log-densities differ from the dense reference by {gap:.3e}"]
    return []


def check_classify(values, count: int, k: int, ref: DenseReference, idx) -> list[str]:
    if values.shape != (count, k) or not np.all(np.isfinite(values)):
        return [f"classify: bad shape {values.shape} or non-finite values"]
    errors = []
    row_gap = float(np.max(np.abs(values.sum(axis=1) - 1.0)))
    if row_gap > ROW_SUM_TOL:
        errors.append(f"classify rows sum to 1 only within {row_gap:.3e}")
    gap = float(np.max(np.abs(values[idx] - ref.posteriors)))
    if gap > REFERENCE_TOL:
        errors.append(f"classify differs from the dense reference by {gap:.3e}")
    return errors


def check_project(values, count: int, m: int, ref: DenseReference, idx) -> list[str]:
    if values.shape != (count, m) or not np.all(np.isfinite(values)):
        return [f"project: bad shape {values.shape} or non-finite values"]
    gap = float(np.max(np.abs(values[idx] - ref.feature_means)))
    if gap > REFERENCE_TOL:
        return [f"projections differ from the dense reference by {gap:.3e}"]
    return []
