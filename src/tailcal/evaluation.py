"""Metrics and reports: accuracies, confusion matrix, group accuracy over
many/medium/few count buckets, prior-mismatch diagnostics, and CSV exports
of decision-boundary and prior-bar figure data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjust import achieved_prior
from .dataset import GaussianMixtureSpec
from .errors import DataError, NumericError, UsageError
from .numerics import prob_vector

REPORT_SCHEMA_VERSION = 1
GROUP_NAMES = ("many", "medium", "few")


@dataclass(frozen=True)
class GroupThresholds:
    """Count cutoffs for the many/medium/few buckets.

    Defaults follow the common convention: many-shot classes have more than
    100 training samples, few-shot fewer than 20.
    """

    many_min: int = 100
    few_max: int = 20

    def __post_init__(self):
        if not self.many_min > self.few_max >= 1:
            raise UsageError(
                f"need many_min > few_max >= 1, got ({self.many_min}, {self.few_max})"
            )

    def bucket(self, count: int) -> str:
        if count > self.many_min:
            return "many"
        if count < self.few_max:
            return "few"
        return "medium"


def confusion_matrix(predictions, truth, num_classes: int) -> np.ndarray:
    """C x C counts; rows index the true class, columns the prediction."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size == 0:
        raise DataError("predictions and truth must be equal-length, non-empty")
    if min(pred.min(), true.min()) < 0 or max(pred.max(), true.max()) >= num_classes:
        raise DataError(f"a prediction or true class lies outside [0, {num_classes})")
    cells = np.bincount(true * num_classes + pred, minlength=num_classes * num_classes)
    return cells.reshape(num_classes, num_classes)


def top1_accuracy(predictions, truth) -> float:
    """Fraction of exact matches."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.size == 0:
        raise DataError("predictions and truth must be equal-length, non-empty")
    return float(np.mean(pred == true))


def per_class_accuracy(confusion: np.ndarray) -> np.ndarray:
    """Diagonal over row sums; classes absent from the test set become NaN."""
    totals = confusion.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, np.diag(confusion) / totals, np.nan)


def balanced_accuracy(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class accuracies over classes present."""
    acc = per_class_accuracy(confusion)
    return float(np.nanmean(acc))


def group_accuracy(per_class, train_counts, thresholds: GroupThresholds) -> dict:
    """Mean accuracy within each count bucket; empty buckets are absent."""
    acc = np.asarray(per_class, dtype=np.float64)
    counts = np.asarray(train_counts, dtype=np.int64)
    groups: dict[str, list[float]] = {}
    for a, n in zip(acc, counts):
        if np.isnan(a):
            continue
        groups.setdefault(thresholds.bucket(int(n)), []).append(float(a))
    return {name: float(np.mean(groups[name])) for name in GROUP_NAMES if name in groups}


def prior_mismatch(achieved, target) -> tuple[float, float]:
    """L1 and KL distance between the achieved and target class marginals.

    KL uses the 0*log(0) = 0 convention. When the achieved marginal puts mass
    on a zero-target class, KL is undefined and a NumericError is raised.
    """
    a = prob_vector(achieved)
    t = prob_vector(target)
    l1 = float(np.abs(a - t).sum())
    bad = (t == 0) & (a > 0)
    if np.any(bad):
        raise NumericError(f"KL undefined: achieved mass {a[bad]} on zero-target classes")
    positive = a > 0
    kl = float(np.sum(a[positive] * np.log(a[positive] / t[positive])))
    return l1, kl


def build_report(
    predictions,
    truth,
    posteriors,
    target_prior,
    train_counts=None,
    thresholds: GroupThresholds | None = None,
    provenance: dict | None = None,
) -> dict:
    """The report of one prediction set, as ``report.json`` holds it; a
    class absent from ``truth`` has accuracy None."""
    target = prob_vector(target_prior)
    confusion = confusion_matrix(predictions, truth, target.shape[0])
    per_class = per_class_accuracy(confusion)
    counts = confusion.sum(axis=1) if train_counts is None else train_counts
    achieved = achieved_prior(posteriors)
    l1, kl = prior_mismatch(achieved, target)
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "top1": top1_accuracy(predictions, truth),
        "balanced_accuracy": balanced_accuracy(confusion),
        "per_class_accuracy": [None if np.isnan(v) else float(v) for v in per_class],
        "group_accuracy": group_accuracy(per_class, counts, thresholds or GroupThresholds()),
        "confusion": confusion.tolist(),
        "achieved_prior": [float(v) for v in achieved],
        "prior_l1": l1,
        "prior_kl": kl,
        "provenance": provenance or {},
    }


def _report_csv_lines(report: dict) -> list[str]:
    lines = ["row,class,value"]
    for i, v in enumerate(report["per_class_accuracy"]):
        lines.append(f"class_accuracy,{i},{'' if v is None else repr(v)}")
    groups = report["group_accuracy"]
    summary = [("top1", report["top1"]), ("balanced", report["balanced_accuracy"]),
               *((name, groups[name]) for name in GROUP_NAMES if name in groups),
               ("prior_l1", report["prior_l1"]), ("prior_kl", report["prior_kl"])]
    return lines + [f"summary,{name},{value!r}" for name, value in summary]


def _report_table(report: dict) -> str:
    groups = report["group_accuracy"]
    cells = [f"{100 * groups[name]:.2f}" if name in groups else "-" for name in GROUP_NAMES]
    header = f"{'Many':>8} {'Medium':>8} {'Few':>8} {'All':>8}"
    row = " ".join(f"{c:>8}" for c in cells) + f" {100 * report['top1']:>8.2f}"
    extra = (
        f"balanced accuracy: {100 * report['balanced_accuracy']:.2f}\n"
        f"achieved prior L1: {report['prior_l1']:.4f}  KL: {report['prior_kl']:.6f}"
    )
    return f"{header}\n{row}\n{extra}\n"


def emit_report(report: dict, json_path, csv_path, text_path) -> str:
    """Write a :func:`build_report` dict as json (canonical), as csv and as a
    text table, to the three paths; returns the text table."""
    Path(json_path).write_text(json.dumps(report, indent=1) + "\n")
    Path(csv_path).write_text("\n".join(_report_csv_lines(report)) + "\n")
    Path(text_path).write_text(table := _report_table(report))
    return table


def _boundary_points(
    delta_w: np.ndarray, delta_b: float, spans: np.ndarray
) -> np.ndarray:
    """Sample (x0, x1) points of the line delta_w . x + delta_b = 0."""
    if abs(delta_w[0]) >= abs(delta_w[1]):
        x1 = spans
        x0 = -(delta_b + delta_w[1] * x1) / delta_w[0]
    else:
        x0 = spans
        x1 = -(delta_b + delta_w[0] * x0) / delta_w[1]
    return np.column_stack([x0, x1])


def export_boundary_data(named_models, gmm: GaussianMixtureSpec, bayes_prior, path) -> None:
    """CSV of sampled decision lines: header ``series,x0,x1``.

    Each (name, two-class linear model) pair contributes one series of 41
    points over [-4, 4]; the Bayes line under ``bayes_prior`` is appended as
    series ``bayes``. 2-D two-class settings with equal class sigmas only.
    """
    spans = np.linspace(-4.0, 4.0, 41)
    lines = ["series,x0,x1"]
    for name, model in named_models:
        dw = model.weights[0] - model.weights[1]
        db = float(model.biases[0] - model.biases[1])
        for x0, x1 in _boundary_points(dw, db, spans):
            lines.append(f"{name},{float(x0)!r},{float(x1)!r}")
    prior = prob_vector(bayes_prior)
    var = float(gmm.sigmas[0]) ** 2
    dw = (gmm.means[0] - gmm.means[1]) / var
    db = float(
        ((gmm.means[1] @ gmm.means[1]) - (gmm.means[0] @ gmm.means[0])) / (2 * var)
        + np.log(prior[0] / prior[1])
    )
    for x0, x1 in _boundary_points(dw, db, spans):
        lines.append(f"bayes,{float(x0)!r},{float(x1)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_prior_bars(freq_prior, effective_prior, train_counts, path) -> None:
    """CSV comparing frequency and effective priors per class.

    Header ``class,freq_prior,effective_prior,group``; one row per class,
    bucketed by the default :class:`GroupThresholds`.
    """
    freq = prob_vector(freq_prior)
    eff = prob_vector(effective_prior)
    counts = np.asarray(train_counts, dtype=np.int64)
    bucket = GroupThresholds().bucket
    lines = ["class,freq_prior,effective_prior,group"]
    for i, (f, e, n) in enumerate(zip(freq, eff, counts)):
        lines.append(f"{i},{float(f)!r},{float(e)!r},{bucket(int(n))}")
    Path(path).write_text("\n".join(lines) + "\n")
