"""Effective-prior estimation from model posteriors.

A trained classifier absorbs a class marginal from its data that generally
differs from the raw count frequencies. Three estimators recover it:

* train-side: mean posterior over the training samples;
* val-side: mean posterior over held-out samples drawn from the test-time
  feature distribution (logit-adjusted models are evaluated with their
  train-time shift removed, i.e. raw inference logits);
* train-reweighted: the val-side quantity recovered from training samples
  by reweighting the train-side column means with target/train prior ratios.

The val-side and train-reweighted estimates measure the same marginal, so
they may be averaged; mixing them with a train-side estimate is an error.
A scalar exponent alpha scales the estimate at adjustment time and is tuned
by grid search on held-out accuracy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import tailcal

from . import adjust
from .errors import DataError, NumericError, TailcalError, UsageError
from .numerics import prob_matrix, prob_vector

PROB_FLOOR = 1e-8

DEFAULT_ALPHA_GRID = tailcal.DEFAULT_ALPHA_GRID  # the grid callers pass to tune_alpha_on_logits


@dataclass(frozen=True)
class EffectivePrior:
    """A prior estimate: probabilities, provenance tag, sample count, alpha."""

    probs: np.ndarray
    estimator: str
    samples: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.estimator not in tailcal.ESTIMATORS:
            raise UsageError(f"unknown estimator tag {self.estimator!r}")
        if self.samples < 1:
            raise DataError("sample count must be >= 1")
        probs = prob_vector(self.probs)
        if np.any(probs <= 0):
            raise NumericError("effective prior entries must be strictly positive")
        object.__setattr__(self, "probs", probs)

    def with_alpha(self, alpha: float) -> "EffectivePrior":
        return replace(self, alpha=float(alpha))


def _floor_and_normalize(raw: np.ndarray) -> np.ndarray:
    """Clamp entries to the probability floor, then renormalize.

    A confident model can drive a tail-class mean posterior to numerical
    zero; the floor keeps downstream logarithms finite.
    """
    floored = np.maximum(raw, PROB_FLOOR)
    return prob_vector(floored / floored.sum())


def column_means(blocks) -> tuple[np.ndarray, int]:
    """Column means over the rows of a non-empty sequence of posterior
    matrices, and the row count.

    numpy sums axis 0 of a C-ordered matrix row after row. So summing each
    block with the running sum stacked on top keeps the bits of
    ``np.concatenate(blocks).mean(axis=0)``, and one block gives the bits of
    its own ``mean(axis=0)``.
    """
    total, n = None, 0
    for block in blocks:
        p = prob_matrix(block)
        total = p.sum(axis=0) if total is None else np.vstack((total, p)).sum(axis=0)
        n += p.shape[0]
    return total / n, n


def _mean_posterior(posteriors, kind: str) -> EffectivePrior:
    means, n = column_means([posteriors])
    return EffectivePrior(_floor_and_normalize(means), kind, n)


def effective_prior_train(posteriors) -> EffectivePrior:
    """Mean training-side posterior per class: the prior the model absorbed."""
    return _mean_posterior(posteriors, "train-side")


def pmbar_from_val(posteriors) -> EffectivePrior:
    """Mean posterior over held-out samples from the test-time distribution.

    For a logit-adjusted model the posteriors must come from raw inference
    logits (train-time shift removed).
    """
    return _mean_posterior(posteriors, "val-side")


def reweight_means(means: np.ndarray, target_prior, train_prior, samples: int) -> EffectivePrior:
    """Reweight train-side posterior column means, from ``samples`` rows, by
    target/train prior ratios.

    The finite-sample result need not sum to one before the renormalization,
    which is the consistent projection back to the simplex.
    """
    target = prob_vector(target_prior)
    train = prob_vector(train_prior)
    if np.any(train <= 0):
        raise NumericError("train prior must be strictly positive")
    if target.shape != train.shape or means.shape != train.shape:
        raise DataError("posteriors, target and train priors disagree on classes")
    raw = means * target / train
    return EffectivePrior(_floor_and_normalize(raw / raw.sum()), "train-reweighted", samples)


def pmbar_from_train(train_posteriors, target_prior, train_prior) -> EffectivePrior:
    """Recover the val-side marginal from training-side posteriors.

    Column means are reweighted by target/train prior ratios and
    renormalized.
    """
    means, n = column_means([train_posteriors])
    return reweight_means(means, target_prior, train_prior, n)


def average_estimates(a: EffectivePrior, b: EffectivePrior) -> EffectivePrior:
    """Probability-space mean of two estimates of the val-side marginal."""
    for est in (a, b):
        if est.estimator not in tailcal.PRIOR_KINDS["p2p-la"]:
            raise UsageError(
                f"cannot average a {est.estimator!r} estimate; "
                "only val-side/train-reweighted/averaged estimates measure "
                "the same marginal"
            )
    if a.probs.shape != b.probs.shape:
        raise DataError("estimates must have equal length")
    mean = (a.probs + b.probs) / 2.0
    return EffectivePrior(
        _floor_and_normalize(mean / mean.sum()), "averaged", a.samples + b.samples
    )


def tune_alpha_on_logits(
    logits,
    labels,
    method: str,
    estimate: EffectivePrior,
    grid,
    target_prior,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid-search the estimate exponent on held-out top-1 accuracy.

    Returns the winning alpha plus the full (alpha, accuracy) curve. Ties
    break toward the smallest alpha; the search is deterministic.
    """
    grid = [float(a) for a in grid]
    if not grid:
        raise UsageError("alpha grid is empty")
    if any(a < 0 for a in grid):
        raise UsageError("alpha grid values must be >= 0")
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise DataError("holdout logits must be a non-empty matrix")
    curve = []
    for alpha in sorted(grid):
        spec = adjust.spec_from_estimate(method, estimate, target_prior, alpha)
        pred = np.argmax(adjust.adjust_logits(z, spec), axis=1)
        curve.append((alpha, float(np.mean(pred == y))))
    best_alpha, _ = max(curve, key=lambda pair: (pair[1], -pair[0]))
    return best_alpha, curve


def save_prior(estimate: EffectivePrior, path) -> None:
    """Write the estimate JSON: {probs, estimator, samples, alpha}."""
    payload = {
        "probs": [float(v) for v in estimate.probs],
        "estimator": estimate.estimator,
        "samples": int(estimate.samples),
        "alpha": float(estimate.alpha),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _json_alpha(value) -> float:
    """``value`` as an exponent alpha if it is a finite JSON number >= 0 and
    not a bool; a ValueError otherwise."""
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite number >= 0, got {value!r}")
    return float(value)


def _json_samples(value) -> int:
    """``value`` as a sample count if it is a JSON integer >= 1 and not a
    bool; a ValueError otherwise."""
    if type(value) is not int or value < 1:
        raise ValueError(f"samples must be an integer >= 1, got {value!r}")
    return value


def load_prior(path) -> EffectivePrior:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        return EffectivePrior(
            np.asarray(payload["probs"], dtype=np.float64),
            str(payload["estimator"]),
            _json_samples(payload["samples"]),
            _json_alpha(payload.get("alpha", 1.0)),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, TailcalError) as exc:
        raise DataError(f"{path}: not an effective-prior file: {exc}") from exc
