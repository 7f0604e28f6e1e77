"""Every refusal that only a direct library call can reach, one row each.

A check that a command reaches is tested through ``cli.main`` with the flag
or file it names. The rows below are the checks left in the public types
and functions that ``test_acceptance.py`` builds or calls, and in
``oracle.boundary_offset``, whose check guards a division by zero. Each row
gives the call, the exception class and the whole message.
"""

import numpy as np
import pytest

from tailcal import adjust, prior
from tailcal.cli import ToyConfig, ingest_logits, toy_experiment
from tailcal.dataset import (
    LabeledDataset,
    ShiftSpec,
    empirical_prior,
    make_shifted_counts,
    sample_dataset,
)
from tailcal.errors import DataError, NumericError, UsageError
from tailcal.evaluation import confusion_matrix
from tailcal.model import (
    LinearSoftmaxModel,
    LossSpec,
    TrainConfig,
    init_linear,
    la_loss_and_grad,
    stage2_retrain,
)
from tailcal.numerics import RngStream, softmax, softmax_rows
from tailcal.oracle import boundary_offset, sample_mixture, toy_mixture

HALF = [0.5, 0.5]
THIRDS = [1 / 3] * 3
SEED = RngStream(0)


def _estimate(probs, kind="train-side", samples=10):
    return prior.EffectivePrior(np.array(probs), kind, samples)


def _p2p_ce(classes=2):
    return adjust.spec_from_estimate("p2p-ce", _estimate([1 / classes] * classes),
                                     [1 / classes] * classes)


def _ingest(val_frac, **train):
    logits = np.zeros((4, 2))
    return ingest_logits(list("abcd"), logits, np.array([0, 1, 0, 1]), val_frac, SEED, HALF,
                         prior.DEFAULT_ALPHA_GRID, **train)


TWO_ROWS = LabeledDataset(np.zeros((2, 2)), [0, 1], [1, 1])

REFUSALS = {
    "spec-from-estimate-target-length": (
        lambda: adjust.spec_from_estimate("p2p-ce", _estimate(HALF), THIRDS),
        DataError, "estimated and target priors must have equal length"),
    "adjust-logits-columns": (
        lambda: adjust.adjust_logits(np.zeros((2, 3)), _p2p_ce()),
        DataError, "3 logit columns vs 2 classes"),
    "adjust-posteriors-columns": (
        lambda: adjust.adjust_posteriors(np.full((2, 3), 1 / 3), _p2p_ce()),
        DataError, "3 posterior columns vs 2 classes"),
    "adjust-posteriors-one-column": (
        lambda: adjust.adjust_posteriors(np.ones((2, 1)), adjust.no_adjustment()),
        DataError, "posterior matrix needs >= 2 columns, got 1"),
    "adjust-posteriors-negative": (
        lambda: adjust.adjust_posteriors([[1.5, -0.5]], _p2p_ce()),
        NumericError, "negative posterior entry"),
    "adjust-posteriors-row-sum": (
        lambda: adjust.adjust_posteriors([[0.5, 0.5], [0.6, 0.6]], _p2p_ce()),
        NumericError, "row 1 sums to 1.2, not 1 within 1e-09"),
    "toy-experiment-no-trial": (
        lambda: toy_experiment(ToyConfig(trials=0)),
        UsageError, "need at least one trial"),
    "ingest-val-fraction": (
        lambda: _ingest(1.5),
        UsageError, "val fraction must be in (0, 1), got 1.5"),
    "ingest-train-means-length": (
        lambda: _ingest(0.5, train_means=(np.full(3, 1 / 3), 6), train_counts=[3, 3]),
        DataError, "posteriors, target and train priors disagree on classes"),
    "sample-dataset-counts-length": (
        lambda: sample_dataset(toy_mixture(), [5, 5, 5], SEED),
        DataError, "3 counts for 2 mixture classes"),
    "empirical-prior-zero-count": (
        lambda: empirical_prior([3, 0]),
        DataError, "counts must all be >= 1, got [3, 0]"),
    "empirical-prior-no-count": (
        lambda: empirical_prior([]),
        NumericError, "zero total count"),
    "shifted-counts-one-class": (
        lambda: make_shifted_counts([5], ShiftSpec("forward", 2.0)),
        DataError, "need >= 2 classes to shift"),
    "confusion-matrix-lengths": (
        lambda: confusion_matrix([0, 1], [0], 2),
        DataError, "predictions and truth must be equal-length, non-empty"),
    "confusion-matrix-range": (
        lambda: confusion_matrix([2], [0], 2),
        DataError, "a prediction or true class lies outside [0, 2)"),
    "confusion-matrix-negative": (
        lambda: confusion_matrix([0], [-1], 2),
        DataError, "a prediction or true class lies outside [0, 2)"),
    "linear-model-bias-count": (
        lambda: LinearSoftmaxModel(np.zeros((2, 2)), np.zeros(3)),
        DataError, "one bias per class required"),
    "loss-spec-negative-alpha": (
        lambda: LossSpec(alpha=-1.0),
        UsageError, "alpha must be finite and >= 0, got -1.0"),
    "loss-spec-zero-prior-entry": (
        lambda: LossSpec("logit-adjusted", [1.0, 0.0]),
        NumericError, "logit-adjusted loss needs strictly positive prior"),
    "train-config-learning-rate": (
        lambda: TrainConfig(0.0, 1, 1, SEED),
        UsageError, "learning rate must be positive, got 0.0"),
    "train-config-iterations": (
        lambda: TrainConfig(1.0, -1, 1, SEED),
        UsageError, "iterations must be >= 0"),
    "train-config-batch-size": (
        lambda: TrainConfig(1.0, 1, 0, SEED),
        UsageError, "batch size must be >= 1"),
    "train-config-schedule": (
        lambda: TrainConfig(1.0, 1, 1, SEED, schedule="linear"),
        UsageError, "unknown schedule 'linear'"),
    "la-loss-zero-prior-entry": (
        lambda: la_loss_and_grad([0.0, 0.0], 0, [1.0, 0.0], 1.0),
        NumericError, "prior must be strictly positive (log of zero)"),
    "la-loss-prior-length": (
        lambda: la_loss_and_grad([0.0, 0.0, 0.0], 0, HALF, 1.0),
        DataError, "prior and logits must have equal length"),
    "stage2-mode": (
        lambda: stage2_retrain(init_linear(2, 2), TWO_ROWS, "XX", TrainConfig(1.0, 1, 2, SEED),
                               HALF),
        UsageError, "unknown stage-2 mode 'XX'"),
    "softmax-one-logit": (
        lambda: softmax([1.0]),
        DataError, "softmax needs >= 2 logits"),
    "softmax-rows-one-logit": (
        lambda: softmax_rows([[1.0]]),
        DataError, "softmax needs >= 2 logits per row"),
    "sample-mixture-no-draw": (
        lambda: sample_mixture(toy_mixture(), HALF, 0, SEED),
        DataError, "need at least one draw"),
    "sample-mixture-prior-length": (
        lambda: sample_mixture(toy_mixture(), THIRDS, 5, SEED),
        DataError, "prior length must match the number of classes"),
    "boundary-offset-parallel": (
        lambda: boundary_offset(LinearSoftmaxModel([[0.0, 1.0], [0.0, -1.0]], [0.0, 0.0]),
                                toy_mixture(), HALF),
        UsageError, "decision boundary is parallel to the class axis"),
    "effective-prior-no-sample": (
        lambda: _estimate(HALF, "val-side", 0),
        DataError, "sample count must be >= 1"),
    "effective-prior-zero-entry": (
        lambda: _estimate([1.0, 0.0], "val-side"),
        NumericError, "effective prior entries must be strictly positive"),
    "pmbar-from-train-classes": (
        lambda: prior.pmbar_from_train(np.full((2, 3), 1 / 3), HALF, HALF),
        DataError, "posteriors, target and train priors disagree on classes"),
    "average-estimates-lengths": (
        lambda: prior.average_estimates(_estimate(HALF, "val-side"),
                                        _estimate(THIRDS, "val-side")),
        DataError, "estimates must have equal length"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_library_call_the_commands_never_make_is_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
