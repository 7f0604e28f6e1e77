import math

import numpy as np
import pytest

from tailcal.dataset import GaussianMixtureSpec
from tailcal.errors import DataError
from tailcal.model import LinearSoftmaxModel, init_linear, predict_logits
from tailcal.numerics import RngStream, prob_vector, softmax_rows
from tailcal.oracle import (
    bayes_classify,
    bayes_posterior_rows,
    boundary_offset,
    oracle_effective_prior,
    sample_mixture,
)


def bayes_equivalent_model(gmm, prior):
    """Linear model whose logits reproduce the Bayes log-posteriors."""
    var = float(gmm.sigmas[0]) ** 2
    weights = gmm.means / var
    biases = np.log(np.asarray(prior)) - (gmm.means**2).sum(axis=1) / (2 * var)
    return LinearSoftmaxModel(weights, biases)


def test_bayes_posterior_symmetry(gmm):
    np.testing.assert_allclose(
        bayes_posterior_rows(gmm, [0.5, 0.5], [[0.0, 0.0]])[0], [0.5, 0.5], atol=1e-15
    )


def test_bayes_posterior_equal_likelihood_returns_prior(gmm):
    np.testing.assert_allclose(
        bayes_posterior_rows(gmm, [0.99, 0.01], [[0.0, 0.0]])[0], [0.99, 0.01], atol=1e-12
    )


def test_bayes_boundary_closed_form(gmm):
    # equal posteriors where the log prior odds cancel the likelihood gap
    x_star = math.log(99) / 2
    post = bayes_posterior_rows(gmm, [0.99, 0.01], [[x_star, 0.3]])[0]
    assert post[0] == pytest.approx(post[1], abs=1e-12)
    left = bayes_posterior_rows(gmm, [0.99, 0.01], [[x_star - 0.01, 0.0]])[0]
    right = bayes_posterior_rows(gmm, [0.99, 0.01], [[x_star + 0.01, 0.0]])[0]
    assert left[0] > 0.5 > right[0]


def test_bayes_posterior_no_overflow_far_from_means(gmm):
    post = bayes_posterior_rows(gmm, [0.5, 0.5], [[1e6, -1e6]])[0]
    prob_vector(post)


def test_bayes_classify_tie_breaks_to_smaller_index(gmm):
    labels = bayes_classify(gmm, [0.5, 0.5], [[0.0, 0.0], [-5.0, 0.0], [5.0, 0.0]])
    assert labels.tolist() == [0, 0, 1]


def test_bayes_accuracy_matches_closed_form(gmm):
    features, labels = sample_mixture(gmm, [0.5, 0.5], 10000, RngStream(17))
    pred = bayes_classify(gmm, [0.5, 0.5], features)
    accuracy = float(np.mean(pred == labels))
    # two unit Gaussians two apart: accuracy = Phi(1)
    phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert accuracy == pytest.approx(phi1, abs=0.01)


def test_bayes_classify_scale_invariance(rng):
    means = rng.normal(size=(3, 2))
    gmm1 = GaussianMixtureSpec(means, np.full(3, 0.7))
    gmm2 = GaussianMixtureSpec(means * 2.5, np.full(3, 0.7 * 2.5))
    prior = np.array([0.5, 0.3, 0.2])
    x = rng.normal(size=(50, 2))
    np.testing.assert_array_equal(
        bayes_classify(gmm1, prior, x), bayes_classify(gmm2, prior, x * 2.5)
    )


def test_posterior_prior_consistency(gmm):
    # averaging exact posteriors over draws from prior pi recovers pi
    pi = np.array([0.8, 0.2])
    n = 10000
    features, _ = sample_mixture(gmm, pi, n, RngStream(23))
    achieved = bayes_posterior_rows(gmm, pi, features).mean(axis=0)
    assert np.abs(achieved - pi).sum() < 3 / math.sqrt(n)


def test_oracle_effective_prior_zero_model_is_uniform(gmm):
    est = oracle_effective_prior(init_linear(2, 2), gmm, [0.9, 0.1])
    np.testing.assert_array_equal(est, [0.5, 0.5])


@pytest.mark.parametrize("sigmas", [(1.0, 1.0), (1.0, 2.0)])
def test_oracle_effective_prior_matches_a_million_draws(gmm, toy_ce_model, sigmas):
    mixture = GaussianMixtureSpec(gmm.means, np.array(sigmas))
    n = 1_000_000
    features, _ = sample_mixture(mixture, [0.5, 0.5], n, RngStream(7001, 3))
    sampled = softmax_rows(predict_logits(toy_ce_model, features)).mean(axis=0)
    exact = oracle_effective_prior(toy_ce_model, mixture, [0.5, 0.5])
    assert np.abs(exact - sampled).sum() < 3 / math.sqrt(n)


def test_oracle_vs_train_side_estimator(gmm, toy_ce_model, toy_train):
    from tailcal.prior import effective_prior_train

    train_prior = np.array([0.9901, 0.0099])
    exact = oracle_effective_prior(toy_ce_model, gmm, train_prior)
    sample_est = effective_prior_train(
        softmax_rows(predict_logits(toy_ce_model, toy_train.features))
    )
    assert np.abs(exact - sample_est.probs).sum() < 0.03


def test_boundary_offset_zero_for_bayes_model(gmm):
    prior = np.array([0.7, 0.3])
    model = bayes_equivalent_model(gmm, prior)
    assert boundary_offset(model, gmm, prior) == pytest.approx(0.0, abs=1e-12)


def test_boundary_offset_bias_shift(gmm):
    prior = np.array([0.5, 0.5])
    model = bayes_equivalent_model(gmm, prior)
    delta = 0.37
    shifted = LinearSoftmaxModel(
        model.weights.copy(), model.biases + np.array([delta, 0.0])
    )
    dw = model.weights[0] - model.weights[1]
    axis = (gmm.means[1] - gmm.means[0]) / np.linalg.norm(gmm.means[1] - gmm.means[0])
    expected = delta / abs(float(dw @ axis))
    observed = boundary_offset(shifted, gmm, prior) - boundary_offset(model, gmm, prior)
    assert abs(observed) == pytest.approx(expected, rel=1e-9)


def test_boundary_offset_unequal_sigmas_crossing():
    gmm = GaussianMixtureSpec(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0])
    )
    prior = np.array([0.6, 0.4])
    # On the axis at x0 = t - 1 the log odds log p0 N0 - log p1 N1 are
    # a t^2 + b t + c with these coefficients (2 dims, means 2 apart); the
    # Bayes crossing is the root nearest the midpoint t = 1.
    a = 0.5 * (1 / 4 - 1)
    b = -2 / 4
    c = math.log(0.6 / 0.4) + 2 * math.log(2) + 0.5 * 4 / 4
    roots = np.roots([a, b, c])
    t_star = float(roots[np.argmin(np.abs(roots - 1.0))])
    post = bayes_posterior_rows(gmm, prior, [[-1.0 + t_star, 0.0]])[0]
    assert post[0] == pytest.approx(post[1], abs=1e-10)


def test_bayes_posterior_dimension_checks(gmm):
    with pytest.raises(DataError, match="features have 3 dims, mixture has 2"):
        bayes_posterior_rows(gmm, [0.5, 0.5], [[0.0, 0.0, 0.0]])
    with pytest.raises(DataError, match="prior length must match the number of classes"):
        bayes_posterior_rows(gmm, [0.5, 0.3, 0.2], [[0.0, 0.0]])
