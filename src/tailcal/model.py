"""Small softmax classifiers and their two-stage training loop.

Stage 1 is plain cross-entropy with instance-balanced sampling (a uniform
reshuffle of the full dataset each epoch). Stage 2 trains under the
prior-shifted cross-entropy loss, where each logit is offset by
alpha * log(prior) of its class before the softmax: either a new head on
the features of the frozen stage-1 backbone, computed once (CL), or the
whole model (FT).

Training is plain SGD, single-threaded, and bit-deterministic given the
config's random stream. A two-class linear model steps on its log-odds
margin, the sigmoid form of its two-logit softmax: one length-N vector in
place of the N x 2 logits. It agrees with the softmax form to rounding
(about 1e-13 relative), not bit for bit; every other model keeps the
softmax step's bits. At full batch such a model's step only sums over the
rows, so it reshuffles nothing and draws nothing from the stream: every
step runs on the rows in stored order, and the run allocates the step's
row-long buffers once for all its steps.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ACTIVATIONS, SCHEDULES, STAGE_TWO_MODES
from .dataset import LabeledDataset
from .errors import DataError, NumericError, TailcalError, UsageError
from .numerics import (
    RngStream,
    as_matrix,
    as_vector,
    log_sum_exp,
    log_sum_exp_rows,
    prob_vector,
    softmax,
)

MODEL_SCHEMA_VERSION = 1
LOSS_KINDS = ("plain-ce", "logit-adjusted")

DIVERGENCE_LIMIT = 1e6

# Each family's parameter names in model_parameters order; they are also the
# keys of a model file's "params" object.
PARAM_NAMES = {
    "linear": ("weights", "biases"),
    "mlp": ("hidden_weights", "hidden_biases", "head_weights", "head_biases"),
}


@dataclass
class LinearSoftmaxModel:
    """Single linear layer producing one logit per class: z = Wx + b."""

    weights: np.ndarray  # (C, D)
    biases: np.ndarray  # (C,)

    def __post_init__(self):
        self.weights = as_matrix(self.weights)
        self.biases = as_vector(self.biases)
        if self.biases.shape[0] != self.weights.shape[0]:
            raise DataError("one bias per class required")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dims(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "LinearSoftmaxModel":
        return LinearSoftmaxModel(self.weights.copy(), self.biases.copy())


@dataclass
class MlpModel:
    """One hidden layer (relu or tanh) under a linear softmax head."""

    hidden_weights: np.ndarray  # (H, D)
    hidden_biases: np.ndarray  # (H,)
    activation: str
    head: LinearSoftmaxModel  # over H features

    def __post_init__(self):
        self.hidden_weights = as_matrix(self.hidden_weights)
        self.hidden_biases = as_vector(self.hidden_biases)
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")
        if self.hidden_biases.shape[0] != self.hidden_weights.shape[0]:
            raise DataError("one hidden bias per hidden unit required")
        if self.head.dims != self.hidden_weights.shape[0]:
            raise DataError("head input width must equal hidden width")

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    @property
    def dims(self) -> int:
        return self.hidden_weights.shape[1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            self.hidden_weights.copy(),
            self.hidden_biases.copy(),
            self.activation,
            self.head.copy(),
        )


Model = LinearSoftmaxModel | MlpModel


@dataclass(frozen=True)
class LossSpec:
    """Training loss: plain CE, or CE over prior-shifted logits."""

    kind: str = "plain-ce"
    prior: np.ndarray | None = None
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise UsageError(f"unknown loss kind {self.kind!r}")
        if not 0 <= self.alpha < np.inf:
            raise UsageError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.kind == "logit-adjusted":
            if self.prior is None:
                raise UsageError("logit-adjusted loss needs a prior")
            prior = prob_vector(self.prior)
            if np.any(prior <= 0):
                raise NumericError("logit-adjusted loss needs strictly positive prior")
            object.__setattr__(self, "prior", prior)
        elif self.prior is not None:
            raise UsageError("plain cross-entropy takes no prior")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    iterations: int
    batch_size: int
    seed: RngStream
    schedule: str = "constant"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise UsageError(f"learning rate must be positive, got {self.learning_rate}")
        if self.iterations < 0:
            raise UsageError("iterations must be >= 0")
        if self.batch_size < 1:
            raise UsageError("batch size must be >= 1")
        if self.schedule not in SCHEDULES:
            raise UsageError(f"unknown schedule {self.schedule!r}")


def init_linear(num_classes: int, dims: int) -> LinearSoftmaxModel:
    """Zero-initialized linear model: initial logits are all zero."""
    return LinearSoftmaxModel(
        np.zeros((num_classes, dims)), np.zeros(num_classes)
    )


def init_mlp(
    num_classes: int, dims: int, hidden: int, activation: str, rng: RngStream
) -> MlpModel:
    """Hidden weights uniform in [-1/sqrt(D), 1/sqrt(D)]; zero head."""
    gen = rng.generator()
    bound = 1.0 / np.sqrt(dims)
    w1 = gen.uniform(-bound, bound, size=(hidden, dims))
    return MlpModel(
        w1, np.zeros(hidden), activation, init_linear(num_classes, hidden)
    )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _forward(model: Model, x: np.ndarray):
    """``(hidden, pre, head)`` for a batch: the linear head's input features,
    the hidden pre-activation (None for a linear model) and the head."""
    if isinstance(model, LinearSoftmaxModel):
        return x, None, model
    pre = x @ model.hidden_weights.T + model.hidden_biases
    return _activate(pre, model.activation), pre, model.head


def predict_logits(model: Model, features) -> np.ndarray:
    """Per-sample logits, one row per feature row."""
    x = as_matrix(features)
    if x.shape[1] != model.dims:
        raise DataError(
            f"model expects {model.dims}-dim features, got {x.shape[1]}"
        )
    hidden, _, head = _forward(model, x)
    return hidden @ head.weights.T + head.biases


def ce_loss_and_grad(logits, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one sample and its gradient w.r.t. the logits.

    loss = -log softmax(logits)[label]; grad = softmax(logits) - onehot.
    """
    z = as_vector(logits)
    if not 0 <= label < z.size:
        raise DataError(f"label {label} out of range for {z.size} classes")
    loss = log_sum_exp(z) - float(z[label])
    grad = softmax(z)
    grad[label] -= 1.0
    return loss, grad


def la_loss_and_grad(
    logits, label: int, prior, alpha: float
) -> tuple[float, np.ndarray]:
    """Cross-entropy over prior-shifted logits z_k + alpha * log(prior_k).

    The shift is constant w.r.t. the logits, so the gradient is the plain CE
    gradient evaluated at the shifted logits.
    """
    z = as_vector(logits)
    p = prob_vector(prior)
    if np.any(p <= 0):
        raise NumericError("prior must be strictly positive (log of zero)")
    if p.size != z.size:
        raise DataError("prior and logits must have equal length")
    return ce_loss_and_grad(z + alpha * np.log(p), label)


def _loss_shift(loss: LossSpec, num_classes: int) -> np.ndarray:
    if loss.kind == "logit-adjusted":
        if loss.prior.shape[0] != num_classes:
            raise DataError("loss prior length must match class count")
        return loss.alpha * np.log(loss.prior)
    return np.zeros(num_classes)


def model_parameters(model: Model) -> list[np.ndarray]:
    """Live parameter arrays in a fixed order (mutating them edits the model)."""
    if isinstance(model, LinearSoftmaxModel):
        return [model.weights, model.biases]
    return [model.hidden_weights, model.hidden_biases, *model_parameters(model.head)]


def batch_loss_and_grads(
    model: Model, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> tuple[float, list[np.ndarray]]:
    """Mean loss over a batch plus gradients aligned with model_parameters.

    Labels must lie in [0, C). The features must be finite, which is checked
    here; :func:`train` steps on a validated :class:`LabeledDataset`, so it
    checks neither again on each step.
    """
    return _loss_and_grads(model, as_matrix(features), labels, loss)


def _loss_and_grads(
    model: Model,
    x: np.ndarray,
    labels: np.ndarray,
    loss: LossSpec,
    ws: _LogOddsWorkspace | None = None,
) -> tuple[float, list[np.ndarray]]:
    """:func:`batch_loss_and_grads` over finite float64 features ``x``.

    A two-class linear model takes the log-odds step, in ``ws`` when given
    (built from these labels) or else in a fresh workspace; every other model
    takes the softmax step, whose gradient is built in place of its logits.
    """
    y = np.asarray(labels, dtype=np.int64)
    shift = _loss_shift(loss, model.num_classes)
    if _takes_log_odds_step(model):
        return _log_odds_loss_and_grads(model, x, ws or _LogOddsWorkspace(y), shift)
    n = x.shape[0]
    hidden, pre, head = _forward(model, x)
    z = hidden @ head.weights.T
    z += head.biases
    z += shift
    lse = log_sum_exp_rows(z)
    # z is a fresh C-ordered array, so z.ravel() is a view: writes through it reach z
    flat, true_class = z.ravel(), np.arange(n) * model.num_classes + y
    mean_loss = float(np.mean(lse - flat[true_class]))
    g = z  # the gradient is built in place of the logits
    g -= lse[:, None]
    np.exp(g, out=g)
    flat[true_class] -= 1.0
    g /= n
    grads = [g.T @ hidden, g.sum(axis=0)]
    if pre is not None:
        d_hidden = (g @ head.weights) * _activate_grad(pre, model.activation)
        grads = [d_hidden.T @ x, d_hidden.sum(axis=0)] + grads
    return mean_loss, grads


def _takes_log_odds_step(model: Model) -> bool:
    """Whether ``model`` steps on its log-odds margin: a two-class linear model."""
    return isinstance(model, LinearSoftmaxModel) and model.num_classes == 2


class _LogOddsWorkspace:
    """The buffers of the log-odds step over one batch of N rows: the labels
    as floats y and as signs 1 - 2y, the mask d >= 0 and three float rows
    that each step overwrites."""

    def __init__(self, y: np.ndarray):
        n = y.shape[0]
        positive = y == 1
        self.labels = positive.astype(np.float64)
        self.signs = np.where(positive, -1.0, 1.0)
        self.non_negative = np.empty(n, dtype=bool)
        self.d, self.e, self.q = np.empty(n), np.empty(n), np.empty(n)


def _log_odds_loss_and_grads(
    model: LinearSoftmaxModel, x: np.ndarray, ws: _LogOddsWorkspace, shift: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """The softmax step of a two-class linear model over its one margin.

    Two softmax probabilities are the sigmoid of the margin
    d = x.(w1 - w0) + (b1 - b0) + (s1 - s0) and its complement, so one
    length-N vector replaces the N x 2 logits. One e = exp(-|d|) gives both
    sigmoid(d) and each row's loss softplus(+-d), so nothing overflows. The
    results match the softmax form to rounding, not bit for bit.

    Every row-long intermediate is written into ``ws``, whose labels are the
    batch's, with the bits that picking by label and by sign would give: d
    times a sign of +-1 is +-d exactly, infinities included; the sigmoid's
    numerator, 1 where d >= 0 and e elsewhere, is max(e, d >= 0) since
    e <= 1; and the mean is the sum over n, as np.mean takes it. The labels
    are float rows, not masks: a ufunc masked by ``where=`` runs many times
    slower on labels that alternate often.
    """
    w, b = model.weights, model.biases
    n = x.shape[0]
    d, e, q = ws.d, ws.e, ws.q
    np.matmul(x, w[1] - w[0], out=d)
    d += (b[1] - b[0]) + (shift[1] - shift[0])
    np.abs(d, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(d, 0.0, out=ws.non_negative)
    d *= ws.signs  # the margin towards the other class
    np.maximum(d, 0.0, out=d)
    np.log1p(e, out=q)
    d += q
    mean_loss = float(d.sum() / n)
    np.maximum(e, ws.non_negative, out=q)
    e += 1.0
    q /= e  # sigmoid(d)
    q -= ws.labels
    q /= n
    weight_grad = q @ x
    bias_grad = q.sum()
    return mean_loss, [np.array((-weight_grad, weight_grad)), np.array([-bias_grad, bias_grad])]


@dataclass
class TrainResult:
    model: Model
    loss_trace: list[float] = field(default_factory=list)


def _learning_rate(cfg: TrainConfig, step: int) -> float:
    if cfg.schedule == "cosine":
        return cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / cfg.iterations))
    return cfg.learning_rate


def train(model: Model, ds: LabeledDataset, loss: LossSpec, cfg: TrainConfig) -> TrainResult:
    """Mini-batch SGD with seeded shuffling; deterministic given cfg.seed.

    A two-class linear model at full batch is not shuffled: each step runs on
    the rows in stored order, and nothing is drawn from cfg.seed. Its steps
    share one workspace, built once per run, for their row-long intermediates.

    Returns the trained model and the per-epoch mean loss trace. Aborts with
    NumericError when the loss goes non-finite or beyond 1e6.
    """
    if cfg.batch_size > ds.n:
        raise UsageError(f"batch size {cfg.batch_size} exceeds dataset size {ds.n}")
    model = model.copy()
    params = model_parameters(model)
    result = TrainResult(model)
    gen = cfg.seed.generator()
    # In C order, as a gathered batch always is: the BLAS sums in an order
    # that depends on the layout.
    features = np.ascontiguousarray(ds.features)
    # The log-odds step sums over its rows, so at full batch a permutation
    # would only reorder the summands.
    in_order = cfg.batch_size == ds.n and _takes_log_odds_step(model)
    # One gather buffer for every step: a fresh batch-sized array per step
    # makes the allocator hand memory back to the OS and fault it in again.
    # mode="clip" never clips a permutation's indices; the default "raise"
    # would gather through a temporary array of the buffer's size.
    buf = None if in_order else np.empty((cfg.batch_size, ds.dims))
    # For the same reason the in-order steps reuse one log-odds workspace.
    ws = _LogOddsWorkspace(ds.labels) if in_order else None
    step = 0
    while step < cfg.iterations:
        perm = None if in_order else gen.permutation(ds.n)
        epoch_loss = 0.0
        epoch_samples = 0
        for start in range(0, ds.n, cfg.batch_size):
            if step >= cfg.iterations:
                break
            if in_order:
                x, y = features, ds.labels
            else:
                batch = perm[start : start + cfg.batch_size]
                x = np.take(features, batch, axis=0, out=buf[: batch.size], mode="clip")
                y = ds.labels[batch]
            batch_loss, grads = _loss_and_grads(model, x, y, loss, ws)
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss at step {step}; lower the learning rate"
                )
            lr = _learning_rate(cfg, step)
            for param, grad in zip(params, grads):
                param -= lr * grad
            epoch_loss += batch_loss * y.size
            epoch_samples += y.size
            step += 1
        mean_epoch = epoch_loss / epoch_samples
        result.loss_trace.append(mean_epoch)
        if not np.isfinite(mean_epoch) or mean_epoch > DIVERGENCE_LIMIT:
            raise NumericError(
                f"epoch mean loss {mean_epoch} beyond limit {DIVERGENCE_LIMIT}"
            )
    return result


def stage2_retrain(
    stage1_model: Model,
    ds: LabeledDataset,
    mode: str,
    cfg: TrainConfig,
    prior,
    alpha: float = 1.0,
) -> TrainResult:
    """Second training stage under the prior-shifted loss.

    CL trains a new zero-initialized head on the features of the frozen
    stage-1 backbone, computed once for the whole dataset, and puts it on a
    copy of the stage-1 model; FT updates all parameters starting from the
    stage-1 values.
    """
    if mode not in STAGE_TWO_MODES:
        raise UsageError(f"unknown stage-2 mode {mode!r}")
    loss = LossSpec("logit-adjusted", prob_vector(prior), alpha)
    if mode == "FT":
        return train(stage1_model, ds, loss, cfg)
    if isinstance(stage1_model, LinearSoftmaxModel):
        warnings.warn(
            "CL on a pure linear model degenerates to a full retrain",
            stacklevel=2,
        )
        return train(init_linear(stage1_model.num_classes, stage1_model.dims), ds, loss, cfg)
    features, _, head = _forward(stage1_model, ds.features)
    result = train(init_linear(head.num_classes, head.dims),
                   LabeledDataset(features, ds.labels, ds.counts), loss, cfg)
    model = stage1_model.copy()
    model.head = result.model
    return TrainResult(model, result.loss_trace)


@dataclass(frozen=True)
class ModelProvenance:
    """How a saved model was produced; consumed by the adjustment pipeline."""

    stage: int = 1
    loss: LossSpec = LossSpec()
    seed: tuple[int, int] = (0, 0)


def _arch_payload(model: Model) -> dict:
    if isinstance(model, LinearSoftmaxModel):
        return {"family": "linear", "classes": model.num_classes, "dims": model.dims}
    return {
        "family": "mlp",
        "classes": model.num_classes,
        "dims": model.dims,
        "hidden": model.hidden_weights.shape[0],
        "activation": model.activation,
    }


def save_model(model: Model, path, provenance: ModelProvenance | None = None) -> None:
    """Write the versioned model JSON; parameters round-trip bit-exactly."""
    provenance = provenance or ModelProvenance()
    loss = provenance.loss
    arch = _arch_payload(model)
    names = PARAM_NAMES[arch["family"]]
    payload = {
        "schema": MODEL_SCHEMA_VERSION,
        "arch": arch,
        "params": {name: p.tolist() for name, p in zip(names, model_parameters(model))},
        "provenance": {
            "stage": provenance.stage,
            "loss_kind": loss.kind,
            "prior": None if loss.prior is None else [float(v) for v in loss.prior],
            "alpha": loss.alpha,
            "seed": list(provenance.seed),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_model(path) -> tuple[Model, ModelProvenance]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DataError(f"{path}: not a model file: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != MODEL_SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema {schema!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        arch = payload["arch"]
        family = arch["family"]
        if family not in PARAM_NAMES:
            raise DataError(f"unknown family {family!r}")
        w = [np.asarray(payload["params"][name]) for name in PARAM_NAMES[family]]
        if family == "linear":
            model: Model = LinearSoftmaxModel(*w)
        else:
            model = MlpModel(w[0], w[1], arch["activation"], LinearSoftmaxModel(w[2], w[3]))
        if arch != (implied := _arch_payload(model)):
            raise DataError(f"arch {arch} disagrees with the parameters: {implied}")
        prov = payload["provenance"]
        prior = prov["prior"]
        loss = LossSpec(
            str(prov["loss_kind"]),
            None if prior is None else np.asarray(prior, dtype=np.float64),
            float(prov["alpha"]),
        )
        _loss_shift(loss, model.num_classes)  # the prior's length
        provenance = ModelProvenance(
            int(prov["stage"]), loss, tuple(int(v) for v in prov["seed"])
        )
    except (KeyError, TypeError, ValueError, TailcalError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    return model, provenance
