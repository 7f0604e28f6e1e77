"""Analytic ground truth for isotropic Gaussian mixtures.

Exact Bayes posteriors and decision rules under any class prior, and two
closed forms that score a two-class linear model against the mixture: the
class marginal its posteriors imply (its effective prior) and the signed
offset of its boundary from the Bayes boundary.

The default two-class toy problem used throughout the experiments lives
here: means at (-1, 0) and (+1, 0), unit sigma.
"""

from __future__ import annotations

import numpy as np

from .dataset import GaussianMixtureSpec
from .errors import DataError, UsageError
from .model import Model
from .numerics import RngStream, _row_sum, as_matrix, prob_vector, softmax_rows


def toy_mixture() -> GaussianMixtureSpec:
    """The default two-class toy mixture: means +-(1, 0), sigma 1."""
    return GaussianMixtureSpec(
        means=np.array([[-1.0, 0.0], [1.0, 0.0]]), sigmas=np.array([1.0, 1.0])
    )


def _log_likelihood_rows(gmm: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """(N, C) log N(x; mean_i, sigma_i^2 I) up to the shared 2*pi constant."""
    # ||x - mu_i||^2 expanded to avoid an (N, C, D) intermediate.
    sq = (
        _row_sum(x * x)
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


def oracle_effective_prior(model: Model, gmm: GaussianMixtureSpec, prior) -> np.ndarray:
    """The exact class marginal a two-class linear model's posteriors imply
    on draws from the mixture under ``prior``.

    Under class k the model's log-odds d = dw . x + db are N(dw . mean_k +
    db, sigma_k^2 |dw|^2), so E[sigmoid(d)] = 1/2 + E[tanh(d / 2)] / 2 (exactly
    1/2 for a zero model) is a 1-D integral, summed by 64-node Gauss-Hermite
    quadrature: within 1e-5 while sigma_k |dw| <= 5 (the toy CE model's is
    about 2), 3e-3 off at 10. The model and the mixture must both be
    two-class, with equal dims; nothing checks it.
    """
    from numpy.polynomial.hermite_e import hermegauss  # ~4 ms; only callers pay

    p = prob_vector(prior)
    nodes, weights = hermegauss(64)
    dw = model.weights[1] - model.weights[0]
    db = float(model.biases[1] - model.biases[0])
    centers = gmm.means @ dw + db  # (2,) mean log-odds per class
    spreads = gmm.sigmas * float(np.linalg.norm(dw))
    half_tanh = np.tanh(0.5 * (centers[:, None] + spreads[:, None] * nodes)) @ weights
    q1 = 0.5 + 0.5 * float(p @ half_tanh) / float(weights.sum())
    return np.array([1.0 - q1, q1])


def boundary_offset(model: Model, gmm: GaussianMixtureSpec, prior) -> float:
    """Signed distance along the inter-mean axis between the model's
    zero-log-odds plane and the Bayes boundary under ``prior``.

    Positive values mean the model's boundary sits beyond the Bayes one in
    the direction of class 1's mean. Two-class linear models of a two-class
    mixture with equal class sigmas only, where the Bayes boundary is a
    plane; nothing checks it but the boundary's slope, which it divides by.
    """
    p = prob_vector(prior)
    delta = gmm.means[1] - gmm.means[0]
    m = float(np.linalg.norm(delta))
    # both crossings are measured along the axis from class 0's mean
    dw = model.weights[0] - model.weights[1]
    slope = float(dw @ (delta / m))
    if abs(slope) < 1e-300:
        raise UsageError("decision boundary is parallel to the class axis")
    t_model = -(float(dw @ gmm.means[0]) + float(model.biases[0] - model.biases[1])) / slope
    s0 = float(gmm.sigmas[0])
    log_prior_odds = float(np.log(p[0]) - np.log(p[1]))
    return t_model - (m / 2.0 + s0 * s0 * log_prior_odds / m)  # equal sigmas: linear log odds
