"""Analytic ground truth for isotropic Gaussian mixtures.

Exact Bayes posteriors and decision rules under any class prior, an
independent Monte-Carlo estimator of a trained model's effective prior, and
the signed boundary offset that scores a two-class linear model against the
Bayes boundary.

The default two-class toy problem used throughout the experiments lives
here: means at (-1, 0) and (+1, 0), unit sigma, training counts [9901, 99]
(imbalance ~100 with a 10000-sample total).
"""

from __future__ import annotations

import numpy as np

from .dataset import GaussianMixtureSpec
from .errors import DataError, UsageError
from .model import LinearSoftmaxModel, Model, predict_logits
from .numerics import RngStream, as_matrix, prob_vector, softmax_rows

TOY_TRAIN_COUNTS = (9901, 99)


def toy_mixture() -> GaussianMixtureSpec:
    """The default two-class toy mixture: means +-(1, 0), sigma 1."""
    return GaussianMixtureSpec(
        means=np.array([[-1.0, 0.0], [1.0, 0.0]]), sigmas=np.array([1.0, 1.0])
    )


def _log_likelihood_rows(gmm: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """(N, C) log N(x; mean_i, sigma_i^2 I) up to the shared 2*pi constant."""
    # ||x - mu_i||^2 expanded to avoid an (N, C, D) intermediate.
    sq = (
        (x * x).sum(axis=1, keepdims=True)
        - 2.0 * x @ gmm.means.T
        + (gmm.means * gmm.means).sum(axis=1)
    )
    var = gmm.sigmas**2
    return -0.5 * sq / var - gmm.dims * np.log(gmm.sigmas)


def bayes_posterior_rows(gmm: GaussianMixtureSpec, prior, features) -> np.ndarray:
    """Exact posteriors per row, entry i proportional to prior_i * N(x; mean_i,
    sigma_i^2 I); computed in log space, so no reasonable x overflows them."""
    p = prob_vector(prior)
    if p.shape[0] != gmm.num_classes:
        raise DataError("prior length must match the number of classes")
    x = as_matrix(features)
    if x.shape[1] != gmm.dims:
        raise DataError(f"features have {x.shape[1]} dims, mixture has {gmm.dims}")
    with np.errstate(divide="ignore"):
        log_scores = _log_likelihood_rows(gmm, x) + np.log(p)
    return softmax_rows(log_scores)


def bayes_classify(gmm: GaussianMixtureSpec, prior, features) -> np.ndarray:
    """argmax of the Bayes posterior per row; ties go to the smaller index."""
    post = bayes_posterior_rows(gmm, prior, features)
    return np.argmax(post, axis=1)


def sample_mixture(
    gmm: GaussianMixtureSpec, prior, n_draws: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (features, labels) i.i.d. from the mixture under a class prior."""
    if n_draws < 1:
        raise DataError("need at least one draw")
    p = prob_vector(prior)
    if p.shape[0] != gmm.num_classes:
        raise DataError("prior length must match the number of classes")
    gen = rng.generator()
    labels = gen.choice(gmm.num_classes, size=n_draws, p=p / p.sum())
    noise = gen.standard_normal((n_draws, gmm.dims))
    features = gmm.means[labels] + gmm.sigmas[labels][:, None] * noise
    return features, labels


def oracle_effective_prior(
    model: Model,
    gmm: GaussianMixtureSpec,
    sampling_prior,
    n_draws: int,
    rng: RngStream,
) -> np.ndarray:
    """Brute-force estimate of the class marginal a model's posteriors imply.

    Draws from the mixture under ``sampling_prior`` and averages the model's
    softmax outputs. Use a stream disjoint from any training stream so the
    estimate stays independent of the model under test.
    """
    if n_draws < 1000:
        raise DataError("need >= 1000 draws for a stable estimate")
    features, _ = sample_mixture(gmm, sampling_prior, n_draws, rng)
    posteriors = softmax_rows(predict_logits(model, features))
    return prob_vector(posteriors.mean(axis=0))


def _axis_crossing_model(model: LinearSoftmaxModel, origin, axis) -> float:
    """Parameter t where the model's log-odds vanish along origin + t * axis."""
    dw = model.weights[0] - model.weights[1]
    db = float(model.biases[0] - model.biases[1])
    slope = float(dw @ axis)
    if abs(slope) < 1e-300:
        raise UsageError("decision boundary is parallel to the class axis")
    return -(float(dw @ origin) + db) / slope


def _axis_crossing_bayes(gmm: GaussianMixtureSpec, prior) -> float:
    """Bayes boundary along the inter-mean axis, measured from class-0's mean."""
    p = prob_vector(prior)
    m = float(np.linalg.norm(gmm.means[1] - gmm.means[0]))
    if m == 0.0:
        raise UsageError("coincident class means have no boundary axis")
    s0, s1 = float(gmm.sigmas[0]), float(gmm.sigmas[1])
    log_prior_odds = float(np.log(p[0]) - np.log(p[1]))
    d = gmm.dims
    if abs(s0 - s1) < 1e-12:
        # equal-sigma log odds are linear in t: solve directly
        return m / 2.0 + s0 * s0 * log_prior_odds / m
    # unequal sigmas: log odds quadratic in t; pick the root nearest the midpoint
    a = 0.5 * (1.0 / (s1 * s1) - 1.0 / (s0 * s0))
    b = -m / (s1 * s1)
    c = log_prior_odds + d * np.log(s1 / s0) + 0.5 * m * m / (s1 * s1)
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise UsageError("no Bayes boundary crossing on the class axis")
    roots = np.array([(-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)])
    return float(roots[np.argmin(np.abs(roots - m / 2.0))])


def boundary_offset(model: Model, gmm: GaussianMixtureSpec, prior) -> float:
    """Signed distance along the inter-mean axis between the model's
    zero-log-odds plane and the Bayes boundary under ``prior``.

    Positive values mean the model's boundary sits beyond the Bayes one in
    the direction of class 1's mean. Two-class linear models only.
    """
    if not isinstance(model, LinearSoftmaxModel):
        raise UsageError("boundary offset requires a linear model")
    if model.num_classes != 2 or gmm.num_classes != 2:
        raise UsageError("boundary offset requires exactly 2 classes")
    delta = gmm.means[1] - gmm.means[0]
    m = float(np.linalg.norm(delta))
    if m == 0.0:
        raise UsageError("coincident class means have no boundary axis")
    axis = delta / m
    t_model = _axis_crossing_model(model, gmm.means[0], axis)
    t_bayes = _axis_crossing_bayes(gmm, prior)
    return t_model - t_bayes
