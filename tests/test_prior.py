
import numpy as np
import pytest

from tailcal.dataset import empirical_prior, sample_dataset
from tailcal.errors import DataError, NumericError, UsageError
from tailcal.model import (
    LossSpec,
    TrainConfig,
    init_linear,
    predict_logits,
    stage2_retrain,
    train,
)
from tailcal.numerics import RngStream, prob_vector, softmax_rows
from tailcal.oracle import bayes_posterior_rows, sample_mixture
from tailcal.prior import (
    DEFAULT_ALPHA_GRID,
    PROB_FLOOR,
    EffectivePrior,
    average_estimates,
    column_means,
    effective_prior_train,
    load_prior,
    pmbar_from_train,
    pmbar_from_val,
    save_prior,
    tune_alpha_on_logits,
)

TOY_TRAIN_PRIOR = np.array([0.9901, 0.0099])


def test_train_side_constant_rows():
    posts = np.tile([0.7, 0.3], (40, 1))
    est = effective_prior_train(posts)
    np.testing.assert_allclose(est.probs, [0.7, 0.3], atol=1e-9)
    assert est.estimator == "train-side"
    assert est.samples == 40


def test_train_side_mixed_rows():
    est = effective_prior_train(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(est.probs, [0.5, 0.5], atol=1e-9)


def test_val_side_trivials():
    est = pmbar_from_val(np.tile([0.5, 0.5], (7, 1)))
    np.testing.assert_allclose(est.probs, [0.5, 0.5], atol=1e-9)
    single = pmbar_from_val(np.array([[0.2, 0.8]]))
    np.testing.assert_allclose(single.probs, [0.2, 0.8], atol=1e-9)
    assert single.estimator == "val-side"


def test_train_reweighted_hand_example():
    posts = np.tile([0.8, 0.2], (10, 1))
    est = pmbar_from_train(posts, [0.5, 0.5], [0.9, 0.1])
    np.testing.assert_allclose(est.probs, [0.4444 / 1.4444, 1.0 / 1.4444], atol=1e-4)
    assert est.estimator == "train-reweighted"


def test_train_reweighted_identity_when_priors_match():
    posts = np.tile([0.6, 0.4], (10, 1))
    est = pmbar_from_train(posts, [0.3, 0.7], [0.3, 0.7])
    np.testing.assert_allclose(est.probs, [0.6, 0.4], atol=1e-8)


def test_train_reweighted_rejects_zero_train_prior():
    posts = np.tile([0.6, 0.4], (4, 1))
    with pytest.raises(NumericError, match="train prior must be strictly positive"):
        pmbar_from_train(posts, [0.5, 0.5], [1.0, 0.0])


def test_estimators_reject_empty():
    with pytest.raises(DataError, match="expected a non-empty 2-D matrix"):
        effective_prior_train(np.zeros((0, 2)))


def test_column_mean_bounds(rng):
    logits = rng.normal(size=(60, 4))
    posts = softmax_rows(logits)
    est = effective_prior_train(posts)
    prob_vector(est.probs)
    lo, hi = posts.min(axis=0), posts.max(axis=0)
    # renormalization after flooring moves entries by at most ~C * floor
    slack = 4 * PROB_FLOOR
    assert np.all(est.probs >= lo - slack) and np.all(est.probs <= hi + slack)


@pytest.mark.parametrize("classes", [2, 10, 100])
def test_column_means_over_blocks_keep_the_bits_of_the_whole_mean(rng, classes):
    posts = softmax_rows(3.0 * rng.normal(size=(997, classes)))
    whole = posts.mean(axis=0)
    for _ in range(20):
        cuts = np.sort(rng.choice(np.arange(1, posts.shape[0]), rng.integers(0, 40), replace=False))
        means, n = column_means(np.split(posts, cuts))
        assert n == posts.shape[0]
        assert means.tobytes() == whole.tobytes()


def test_flooring_bounded_distortion():
    posts = np.tile([1.0, 0.0, 0.0], (5, 1))
    est = effective_prior_train(posts)
    assert np.all(est.probs > 0)
    assert np.abs(est.probs - np.array([1.0, 0.0, 0.0])).max() <= 3 * PROB_FLOOR


def test_average_idempotent():
    a = pmbar_from_val(np.tile([0.6, 0.4], (5, 1)))
    merged = average_estimates(a, a)
    np.testing.assert_allclose(merged.probs, a.probs, atol=1e-12)
    assert merged.estimator == "averaged"


def test_average_of_opposites_is_uniform():
    a = EffectivePrior(np.array([1 - 1e-9, 1e-9]), "val-side", 5)
    b = EffectivePrior(np.array([1e-9, 1 - 1e-9]), "train-reweighted", 5)
    np.testing.assert_allclose(average_estimates(a, b).probs, [0.5, 0.5], atol=1e-8)


def test_average_rejects_train_side():
    a = effective_prior_train(np.tile([0.6, 0.4], (5, 1)))
    b = pmbar_from_val(np.tile([0.5, 0.5], (5, 1)))
    with pytest.raises(UsageError, match="cannot average a 'train-side' estimate"):
        average_estimates(a, b)
    with pytest.raises(UsageError, match="cannot average a 'train-side' estimate"):
        average_estimates(b, a)


def test_effective_prior_rejects_an_unknown_estimator_tag():
    # "val" is the estimate-prior flag value; the tag is "val-side"
    with pytest.raises(UsageError, match="unknown estimator tag 'val'"):
        EffectivePrior(np.array([0.5, 0.5]), "val", 10)


def test_identity_between_estimation_routes(gmm):
    # exact-model regime: both routes estimate the same marginal
    train_prior = TOY_TRAIN_PRIOR
    target = np.array([0.3, 0.7])
    n = 10000
    x_train, _ = sample_mixture(gmm, train_prior, n, RngStream(51, 1))
    via_train = pmbar_from_train(
        bayes_posterior_rows(gmm, train_prior, x_train), target, train_prior
    )
    x_val, _ = sample_mixture(gmm, target, n, RngStream(51, 2))
    via_val = pmbar_from_val(bayes_posterior_rows(gmm, target, x_val))
    assert np.abs(via_train.probs - via_val.probs).sum() < 0.02


def test_tune_alpha_uniform_estimate_breaks_ties_low():
    logits = np.array([[2.0, 1.0], [0.5, 1.5], [3.0, 0.1]])
    labels = np.array([0, 1, 0])
    uniform_est = EffectivePrior(np.array([0.5, 0.5]), "train-side", 3)
    alpha, curve = tune_alpha_on_logits(
        logits, labels, "p2p-ce", uniform_est, [0.0, 0.5, 1.0, 1.5], [0.5, 0.5]
    )
    assert alpha == 0.0
    accs = [acc for _, acc in curve]
    assert max(accs) == min(accs)


def test_tune_alpha_single_grid_value():
    logits = np.array([[2.0, 1.0], [0.5, 1.5]])
    est = EffectivePrior(np.array([0.8, 0.2]), "train-side", 2)
    alpha, _ = tune_alpha_on_logits(logits, [0, 1], "p2p-ce", est, [1.0], [0.5, 0.5])
    assert alpha == 1.0


def test_tune_alpha_dominates_unadjusted(gmm, toy_ce_model, toy_train):
    holdout = sample_dataset(gmm, [2000, 2000], RngStream(808))
    est = effective_prior_train(
        softmax_rows(predict_logits(toy_ce_model, toy_train.features))
    )
    grid = list(DEFAULT_ALPHA_GRID)
    logits = predict_logits(toy_ce_model, holdout.features)
    best, curve = tune_alpha_on_logits(
        logits, holdout.labels, "p2p-ce", est, grid, [0.5, 0.5]
    )
    by_alpha = dict(curve)
    assert by_alpha[best] >= by_alpha[0.0]


def test_tune_alpha_deterministic(gmm, toy_ce_model):
    holdout = sample_dataset(gmm, [500, 500], RngStream(809))
    est = EffectivePrior(np.array([0.95, 0.05]), "train-side", 100)
    logits = predict_logits(toy_ce_model, holdout.features)
    args = (logits, holdout.labels, "p2p-ce", est, [0.0, 0.5, 1.0], [0.5, 0.5])
    assert tune_alpha_on_logits(*args) == tune_alpha_on_logits(*args)


def test_tune_alpha_rejects_bad_grid():
    est = EffectivePrior(np.array([0.5, 0.5]), "train-side", 1)
    with pytest.raises(UsageError, match="alpha grid is empty"):
        tune_alpha_on_logits(np.zeros((2, 2)), [0, 1], "p2p-ce", est, [], [0.5, 0.5])
    with pytest.raises(UsageError, match="alpha grid values must be >= 0"):
        tune_alpha_on_logits(np.zeros((2, 2)), [0, 1], "p2p-ce", est, [-0.5], [0.5, 0.5])
    with pytest.raises(DataError, match="holdout logits must be a non-empty matrix"):
        tune_alpha_on_logits(np.zeros((0, 2)), [], "p2p-ce", est, [1.0], [0.5, 0.5])


def test_toy_ce_effective_prior_exceeds_frequency(toy_ce_model, toy_train):
    est = effective_prior_train(
        softmax_rows(predict_logits(toy_ce_model, toy_train.features))
    )
    freq = empirical_prior(toy_train.counts)
    assert est.probs[0] > freq[0] > 0.99
    assert est.probs[1] < freq[1]


def test_stage2_residual_bias_on_balanced_val(gmm, toy_train):
    from tailcal.oracle import oracle_effective_prior

    cfg = TrainConfig(
        learning_rate=5.0, iterations=100, batch_size=toy_train.n, seed=RngStream(71)
    )
    stage1 = train(init_linear(2, 2), toy_train, LossSpec(), cfg).model
    cfg2 = TrainConfig(
        learning_rate=5.0, iterations=100, batch_size=toy_train.n, seed=RngStream(72)
    )
    stage2 = stage2_retrain(stage1, toy_train, "FT", cfg2, TOY_TRAIN_PRIOR).model
    val = sample_dataset(gmm, [1500, 1500], RngStream(73))
    est = pmbar_from_val(softmax_rows(predict_logits(stage2, val.features)))
    assert est.probs[0] > 0.5
    # the exact value of the same integral
    exact = oracle_effective_prior(stage2, gmm, [0.5, 0.5])
    assert np.abs(est.probs - exact).sum() < 0.03


def test_prior_json_roundtrip(tmp_path):
    est = EffectivePrior(np.array([0.25, 0.75]), "averaged", 123, alpha=1.25)
    path = tmp_path / "prior.json"
    save_prior(est, path)
    loaded = load_prior(path)
    np.testing.assert_array_equal(loaded.probs, est.probs)
    assert loaded.estimator == "averaged"
    assert loaded.samples == 123
    assert loaded.alpha == 1.25
