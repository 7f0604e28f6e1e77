import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailcal.adjust import (
    AdjustmentSpec,
    achieved_prior,
    adjust_logits,
    adjust_posteriors,
    apply_to_linear_model,
    no_adjustment,
    save_spec,
    spec_from_estimate,
)
from tailcal.errors import UsageError
from tailcal.model import predict_logits
from tailcal.numerics import softmax_rows
from tailcal.prior import EffectivePrior

UNIFORM = np.array([0.5, 0.5])


def train_side(probs):
    return EffectivePrior(np.asarray(probs, dtype=np.float64), "train-side", 100)


def val_side(probs):
    return EffectivePrior(np.asarray(probs, dtype=np.float64), "val-side", 100)


posterior_rows = st.lists(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=3, max_size=3),
    min_size=1,
    max_size=6,
).map(lambda rows: np.array([np.array(r) / sum(r) for r in rows]))


def test_adjust_logits_worked_example():
    spec = spec_from_estimate("p2p-ce", train_side([0.9, 0.1]), UNIFORM, 1.0)
    adjusted = adjust_logits(np.array([[2.0, 1.0]]), spec)[0]
    np.testing.assert_allclose(adjusted, [1.412214, 2.609438], atol=1e-5)
    assert np.argmax(adjusted) == 1  # flips from class 0


def test_adjust_identity_when_estimate_matches_target():
    spec = spec_from_estimate("p2p-ce", train_side([0.5, 0.5]), UNIFORM, 1.0)
    z = np.array([[2.0, 1.0], [-1.0, 3.0]])
    np.testing.assert_array_equal(adjust_logits(z, spec), z)


def test_adjust_alpha_zero_uniform_target_only_shifts():
    spec = spec_from_estimate("p2p-ce", train_side([0.9, 0.1]), UNIFORM, 0.0)
    z = np.array([[2.0, 1.0]])
    adjusted = adjust_logits(z, spec)
    np.testing.assert_allclose(adjusted - z, np.full((1, 2), math.log(0.5)), atol=1e-12)
    np.testing.assert_allclose(
        softmax_rows(adjusted), softmax_rows(z), atol=1e-12
    )


def test_method_none_returns_input_unchanged():
    z = np.array([[0.3, -0.7], [2.0, 2.0]])
    np.testing.assert_array_equal(adjust_logits(z, no_adjustment()), z)
    p = np.array([[0.6, 0.4], [0.0, 1.0]])
    out = adjust_posteriors(p, no_adjustment()).matrix
    np.testing.assert_array_equal(out, p)
    assert out is not p


def test_adjust_posteriors_worked_example():
    spec = spec_from_estimate("p2p-ce", train_side([0.9, 0.1]), UNIFORM, 1.0)
    out = adjust_posteriors(np.array([[0.6, 0.4]]), spec)
    np.testing.assert_allclose(out.matrix, [[0.142857, 0.857143]], atol=1e-5)


def test_adjust_posteriors_identity():
    spec = spec_from_estimate("p2p-ce", train_side([0.5, 0.5]), UNIFORM, 1.0)
    p = np.array([[0.6, 0.4], [0.1, 0.9]])
    np.testing.assert_allclose(adjust_posteriors(p, spec).matrix, p, atol=1e-15)


def test_one_hot_rows_stay_one_hot():
    spec = spec_from_estimate(
        "p2p-ce", train_side([0.7, 0.2, 0.1]), np.full(3, 1 / 3), 1.7
    )
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(adjust_posteriors(p, spec).matrix, p)


@given(posterior_rows)
def test_probability_and_log_paths_agree(posts):
    spec = spec_from_estimate(
        "p2p-ce", train_side([0.6, 0.3, 0.1]), np.full(3, 1 / 3), 1.25
    )
    via_prob = adjust_posteriors(posts, spec).matrix
    via_log = softmax_rows(adjust_logits(np.log(posts), spec))
    np.testing.assert_allclose(via_prob, via_log, atol=1e-12)


@given(posterior_rows)
def test_composition_inverts(posts):
    a = np.array([0.6, 0.3, 0.1])
    b = np.array([0.2, 0.5, 0.3])
    fwd = spec_from_estimate("p2p-ce", train_side(a), b, 1.0)
    back = spec_from_estimate("p2p-ce", train_side(b), a, 1.0)
    roundtrip = adjust_posteriors(adjust_posteriors(posts, fwd).matrix, back).matrix
    np.testing.assert_allclose(roundtrip, posts, atol=1e-12)


def test_per_sample_constant_never_changes_adjusted_argmax(rng):
    spec = spec_from_estimate(
        "p2p-ce", train_side([0.5, 0.3, 0.2]), np.full(3, 1 / 3), 1.0
    )
    z = rng.normal(size=(20, 3))
    shifted = z + rng.normal(size=(20, 1))
    np.testing.assert_array_equal(
        np.argmax(adjust_logits(z, spec), axis=1),
        np.argmax(adjust_logits(shifted, spec), axis=1),
    )


def test_alpha_monotonically_drains_estimated_head():
    estimate = train_side([0.7, 0.2, 0.1])
    row = np.array([[1.0, 0.4, 0.2]])
    masses = []
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        spec = spec_from_estimate("p2p-ce", estimate, np.full(3, 1 / 3), alpha)
        masses.append(adjust_posteriors(softmax_rows(row), spec).matrix[0, 0])
    assert np.all(np.diff(masses) < 0)


def test_achieved_prior_trivial():
    np.testing.assert_allclose(
        achieved_prior(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5]
    )


def test_achieved_prior_biased_model_far_from_uniform(gmm, toy_ce_model, toy_test):
    from tailcal.oracle import oracle_effective_prior

    posts = softmax_rows(predict_logits(toy_ce_model, toy_test.features))
    achieved = achieved_prior(posts)
    assert achieved[0] > 0.9
    assert np.abs(achieved - UNIFORM).sum() > 0.5
    # the exact marginal of the same model under the uniform prior
    exact = oracle_effective_prior(toy_ce_model, gmm, UNIFORM)
    assert np.abs(achieved - exact).sum() < 0.03


def test_method_estimator_compatibility_enforced():
    with pytest.raises(UsageError, match="method 'p2p-la' requires a prior of kind val-side"):
        spec_from_estimate("p2p-la", train_side([0.9, 0.1]), UNIFORM, 1.0)
    with pytest.raises(UsageError, match="'p2p-ce' requires a prior of kind train-side, got 'val-side'"):
        spec_from_estimate("p2p-ce", val_side([0.9, 0.1]), UNIFORM, 1.0)
    # class-frequency refuses estimated priors outright
    with pytest.raises(UsageError, match="'class-frequency' requires a prior of kind frequency"):
        AdjustmentSpec("class-frequency", np.array([0.9, 0.1]), "train-side", UNIFORM, 1.0)
    # p2p-la accepts any inference-side estimate
    for kind in ("val-side", "train-reweighted", "averaged"):
        spec = AdjustmentSpec("p2p-la", np.array([0.9, 0.1]), kind, UNIFORM, 1.0)
        assert spec.method == "p2p-la"


def test_spec_validation_errors():
    with pytest.raises(UsageError, match="method 'p2p-ce' needs estimated and target priors"):
        AdjustmentSpec("p2p-ce", None, "train-side", UNIFORM, 1.0)
    with pytest.raises(UsageError, match="alpha must be >= 0, got -1"):
        AdjustmentSpec("p2p-ce", np.array([0.9, 0.1]), "train-side", UNIFORM, -1.0)
    with pytest.raises(UsageError, match="unknown adjustment method 'mystery'"):
        AdjustmentSpec("mystery", np.array([0.9, 0.1]), "train-side", UNIFORM, 1.0)


def test_apply_to_linear_model_matches_logit_path(toy_ce_model, toy_test):
    spec = spec_from_estimate("p2p-ce", train_side([0.99, 0.01]), UNIFORM, 1.0)
    folded = apply_to_linear_model(toy_ce_model, spec)
    direct = adjust_logits(predict_logits(toy_ce_model, toy_test.features), spec)
    np.testing.assert_allclose(
        predict_logits(folded, toy_test.features), direct, atol=1e-12
    )


def test_spec_json_roundtrip(tmp_path):
    spec = spec_from_estimate("p2p-la", val_side([0.8, 0.2]), np.array([0.4, 0.6]), 1.5)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    written = json.loads(path.read_text())
    assert written == spec.to_json()
    assert [written[k] for k in ("method", "prior_kind", "alpha")] == ["p2p-la", "val-side", 1.5]
    none_path = tmp_path / "none.json"
    save_spec(no_adjustment(), none_path)
    assert json.loads(none_path.read_text()) == {"method": "none"}


@pytest.mark.parametrize("alpha, need", [
    (float("nan"), "finite"), (float("inf"), "finite"), (float("-inf"), ">= 0"),
])
def test_spec_rejects_a_non_finite_alpha(alpha, need):
    with pytest.raises(UsageError, match=f"^alpha must be {need}, got {alpha}$"):
        AdjustmentSpec("p2p-ce", np.array([0.9, 0.1]), "train-side", UNIFORM, alpha)
