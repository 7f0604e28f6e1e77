"""Post-hoc prior correction of logits and posteriors.

Every supported method is one multiplicative correction applied per class:

    adjusted_logit_i = logit_i - alpha * log(estimate_i) + log(target_i)

equivalently, posteriors are scaled by target_i / estimate_i**alpha and
renormalized. The methods differ only in which prior estimate they demand:
``class-frequency`` uses the empirical count prior, ``p2p-ce`` the effective
prior measured on training-side posteriors, and ``p2p-la`` the effective
prior of a logit-adjusted model measured with the train-time shift removed.
Any per-sample scale factor is absorbed by the row renormalization, so it
never changes an argmax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import METHODS
from .errors import DataError, UsageError
from .model import LinearSoftmaxModel
from .numerics import as_matrix, prob_matrix, prob_vector

PRIOR_KIND_FREQUENCY = "frequency"

# Effective-prior estimator kinds (see prior.py). The train-side estimate is
# the prior the training loss saw; the other three all measure the
# inference-side marginal, so they are interchangeable with one another.
ESTIMATOR_TRAIN_SIDE = "train-side"
ESTIMATOR_VAL_SIDE = "val-side"
ESTIMATOR_TRAIN_REWEIGHTED = "train-reweighted"
ESTIMATOR_AVERAGED = "averaged"
PMBAR_KINDS = (ESTIMATOR_VAL_SIDE, ESTIMATOR_TRAIN_REWEIGHTED, ESTIMATOR_AVERAGED)

_METHOD_COMPAT = {
    "class-frequency": (PRIOR_KIND_FREQUENCY,),
    "p2p-ce": (ESTIMATOR_TRAIN_SIDE,),
    "p2p-la": PMBAR_KINDS,
}


@dataclass(frozen=True)
class AdjustmentSpec:
    """A fully resolved correction: method, prior estimate, target, exponent.

    Method/estimator compatibility is enforced here, at construction, because
    supplying the wrong prior kind is the easiest way to silently get an
    invalid correction.
    """

    method: str
    estimated_prior: np.ndarray | None = None
    prior_kind: str | None = None
    target_prior: np.ndarray | None = None
    alpha: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown adjustment method {self.method!r}")
        if not 0 <= self.alpha < np.inf:
            need = ">= 0" if self.alpha < 0 else "finite"
            raise UsageError(f"alpha must be {need}, got {self.alpha}")
        if self.method == "none":
            return
        if self.estimated_prior is None or self.target_prior is None:
            raise UsageError(f"method {self.method!r} needs estimated and target priors")
        estimated = prob_vector(self.estimated_prior)
        target = prob_vector(self.target_prior)
        if estimated.shape != target.shape:
            raise DataError("estimated and target priors must have equal length")
        allowed = _METHOD_COMPAT[self.method]
        if self.prior_kind not in allowed:
            raise UsageError(
                f"method {self.method!r} requires a prior of kind "
                f"{' or '.join(allowed)}, got {self.prior_kind!r}"
            )
        object.__setattr__(self, "estimated_prior", estimated)
        object.__setattr__(self, "target_prior", target)

    def to_json(self) -> dict:
        if self.method == "none":
            return {"method": "none"}
        return {
            "method": self.method,
            "estimated_prior": [float(v) for v in self.estimated_prior],
            "prior_kind": self.prior_kind,
            "target_prior": [float(v) for v in self.target_prior],
            "alpha": float(self.alpha),
        }


def no_adjustment() -> AdjustmentSpec:
    return AdjustmentSpec("none")


def class_frequency_spec(freq_prior, target_prior, alpha: float = 1.0) -> AdjustmentSpec:
    """Correction from the empirical count prior, e.g. ``empirical_prior(counts)``."""
    return AdjustmentSpec(
        "class-frequency", freq_prior, PRIOR_KIND_FREQUENCY, target_prior, alpha
    )


def spec_from_estimate(method: str, estimate, target_prior, alpha: float | None = None) -> AdjustmentSpec:
    """Build a p2p spec from a :class:`prior.EffectivePrior`; when ``alpha``
    is omitted the estimate's own stored exponent is used."""
    return AdjustmentSpec(
        method,
        estimate.probs,
        estimate.estimator,
        target_prior,
        float(estimate.alpha) if alpha is None else float(alpha),
    )


@dataclass
class AdjustedPosteriors:
    """Corrected posteriors plus the spec that produced them."""

    matrix: np.ndarray
    spec: AdjustmentSpec

    def __post_init__(self):
        self.matrix = prob_matrix(self.matrix)


def _log_shift(spec: AdjustmentSpec) -> np.ndarray:
    return -spec.alpha * np.log(spec.estimated_prior) + np.log(spec.target_prior)


def adjust_logits(logits, spec: AdjustmentSpec, out=None) -> np.ndarray:
    """Shift every row by -alpha * log(estimate) + log(target).

    The result goes to a new array, or to ``out``, which may be ``logits``.
    """
    z = as_matrix(logits)
    if spec.method == "none":
        return np.positive(z, out=out)  # an exact copy, -0.0 kept
    if z.shape[1] != spec.estimated_prior.shape[0]:
        raise DataError(
            f"{z.shape[1]} logit columns vs {spec.estimated_prior.shape[0]} classes"
        )
    return np.add(z, _log_shift(spec), out=out)


def adjust_posteriors(posteriors, spec: AdjustmentSpec) -> AdjustedPosteriors:
    """Scale each row by target / estimate**alpha and renormalize.

    Matches softmax(adjust_logits(log posteriors)) to 1e-12 on positive rows,
    and keeps exact zeros (one-hot rows stay one-hot).
    """
    p = prob_matrix(posteriors)
    if spec.method == "none":
        return AdjustedPosteriors(p.copy(), spec)
    if p.shape[1] != spec.estimated_prior.shape[0]:
        raise DataError(
            f"{p.shape[1]} posterior columns vs {spec.estimated_prior.shape[0]} classes"
        )
    scaled = p * (spec.target_prior / spec.estimated_prior**spec.alpha)
    return AdjustedPosteriors(scaled / scaled.sum(axis=1, keepdims=True), spec)


def achieved_prior(posteriors) -> np.ndarray:
    """Column means: the Monte-Carlo class marginal the posteriors imply."""
    p = prob_matrix(posteriors)
    return prob_vector(p.mean(axis=0))


def apply_to_linear_model(model: LinearSoftmaxModel, spec: AdjustmentSpec) -> LinearSoftmaxModel:
    """Fold a per-class logit shift into a linear model's biases.

    The correction is constant per class, so for a linear model it is exactly
    a bias shift; the returned model scores samples identically to adjusting
    its logits after the fact.
    """
    out = model.copy()
    if spec.method != "none":
        out.biases = out.biases + _log_shift(spec)
    return out


def save_spec(spec: AdjustmentSpec, path) -> None:
    Path(path).write_text(json.dumps(spec.to_json(), indent=1) + "\n")
