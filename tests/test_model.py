import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tailcal import model as model_module
from tailcal.dataset import GaussianMixtureSpec, LabeledDataset, sample_dataset
from tailcal.errors import DataError, NumericError, UsageError
from tailcal.model import (
    ACTIVATIONS,
    LinearSoftmaxModel,
    LossSpec,
    MlpModel,
    ModelProvenance,
    TrainConfig,
    batch_loss_and_grads,
    ce_loss_and_grad,
    init_linear,
    init_mlp,
    la_loss_and_grad,
    load_model,
    model_parameters,
    predict_logits,
    save_model,
    stage2_retrain,
    train,
)
from tailcal.numerics import RngStream, prob_vector, softmax_rows


def separable_gmm():
    return GaussianMixtureSpec(np.array([[-3.0, 0.0], [3.0, 0.0]]), np.array([0.5, 0.5]))


def small_cfg(seed=7, **overrides):
    base = dict(learning_rate=0.5, iterations=300, batch_size=64, seed=RngStream(seed))
    base.update(overrides)
    return TrainConfig(**base)


def test_predict_logits_zero_model():
    model = init_linear(2, 2)
    out = predict_logits(model, np.array([[1.0, -1.0], [0.3, 0.4]]))
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_predict_logits_identity_weights():
    model = LinearSoftmaxModel(np.eye(2), np.zeros(2))
    np.testing.assert_allclose(predict_logits(model, [[1.0, 0.0]]), [[1.0, 0.0]])


def test_predict_logits_rows_land_on_simplex(rng):
    model = LinearSoftmaxModel(rng.normal(size=(3, 4)), rng.normal(size=3))
    posts = softmax_rows(predict_logits(model, rng.normal(size=(10, 4))))
    for row in posts:
        prob_vector(row)


def test_predict_logits_dimension_mismatch():
    with pytest.raises(DataError, match="model expects 3-dim features, got 2"):
        predict_logits(init_linear(2, 3), np.zeros((4, 2)))


def test_ce_loss_closed_form():
    loss, grad = ce_loss_and_grad([0.0, 0.0], 0)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    np.testing.assert_allclose(grad, [-0.5, 0.5], atol=1e-12)


def test_ce_loss_large_margin_goes_to_zero():
    loss, _ = ce_loss_and_grad([60.0, 0.0], 0)
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_ce_grad_sums_to_zero(rng):
    for _ in range(5):
        z = rng.normal(size=4)
        _, grad = ce_loss_and_grad(z, int(rng.integers(4)))
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_ce_rejects_bad_label():
    with pytest.raises(DataError, match="label 2 out of range for 2 classes"):
        ce_loss_and_grad([0.0, 0.0], 2)


def test_la_loss_uniform_prior_equals_ce(rng):
    uniform = np.full(3, 1 / 3)
    for _ in range(10):
        z = rng.normal(size=3)
        label = int(rng.integers(3))
        ce = ce_loss_and_grad(z, label)
        for alpha in (0.0, 0.7, 2.0):
            la = la_loss_and_grad(z, label, uniform, alpha)
            assert la[0] == pytest.approx(ce[0], abs=1e-12)
            np.testing.assert_allclose(la[1], ce[1], atol=1e-12)


def test_la_loss_alpha_zero_equals_ce(rng):
    prior = np.array([0.8, 0.15, 0.05])
    z = rng.normal(size=3)
    ce = ce_loss_and_grad(z, 1)
    la = la_loss_and_grad(z, 1, prior, 0.0)
    assert la[0] == pytest.approx(ce[0], abs=1e-12)


def test_la_loss_tail_example():
    loss, _ = la_loss_and_grad([0.0, 0.0], 1, [0.9, 0.1], 1.0)
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_loss_spec_prior_iff_logit_adjusted():
    with pytest.raises(UsageError, match="logit-adjusted loss needs a prior"):
        LossSpec("logit-adjusted")
    with pytest.raises(UsageError, match="plain cross-entropy takes no prior"):
        LossSpec("plain-ce", prior=np.array([0.5, 0.5]))


def _flat_params(model):
    return np.concatenate([p.ravel() for p in model_parameters(model)])


def _assign_params(model, flat):
    offset = 0
    for p in model_parameters(model):
        p.flat[:] = flat[offset : offset + p.size]
        offset += p.size


@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
@pytest.mark.parametrize("family", ["linear", "mlp", "two-class-linear"])
def test_gradients_match_central_differences(family, loss_kind, rng):
    c = 2 if family == "two-class-linear" else 3
    prior = np.array([0.7, 0.3]) if c == 2 else np.array([0.7, 0.2, 0.1])
    loss = (
        LossSpec()
        if loss_kind == "plain-ce"
        else LossSpec("logit-adjusted", prior, alpha=1.3)
    )
    step = 1e-5
    for case in range(25):
        if family != "mlp":
            model = LinearSoftmaxModel(rng.normal(size=(c, 4)), rng.normal(size=c))
        else:
            model = MlpModel(
                rng.normal(size=(5, 4)),
                rng.normal(size=5),
                "tanh",
                LinearSoftmaxModel(rng.normal(size=(3, 5)), rng.normal(size=3)),
            )
        x = rng.normal(size=(1, 4))
        y = np.array([case % c])
        _, grads = batch_loss_and_grads(model, x, y, loss)
        analytic = np.concatenate([g.ravel() for g in grads])
        flat = _flat_params(model)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            for sign in (+1, -1):
                bumped = flat.copy()
                bumped[i] += sign * step
                _assign_params(model, bumped)
                value, _ = batch_loss_and_grads(model, x, y, loss)
                numeric[i] += sign * value
            numeric[i] /= 2 * step
        _assign_params(model, flat)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric)
        )
        assert rel < 1e-5


def _shift_of(loss, c):
    return loss.alpha * np.log(loss.prior) if loss.kind == "logit-adjusted" else np.zeros(c)


def _row_indexed_loss_and_grads(model, x, y, loss):
    """The softmax step written with m.max(axis=1) and z[rows, y]."""
    c = model.num_classes
    shift = _shift_of(loss, c)
    if isinstance(model, LinearSoftmaxModel):
        hidden = x
        z = x @ model.weights.T + model.biases + shift
    else:
        pre = x @ model.hidden_weights.T + model.hidden_biases
        hidden = np.maximum(pre, 0.0) if model.activation == "relu" else np.tanh(pre)
        z = hidden @ model.head.weights.T + model.head.biases + shift
    n = x.shape[0]
    mx = z.max(axis=1, keepdims=True)
    lse = (mx + np.log(np.exp(z - mx).sum(axis=1, keepdims=True)))[:, 0]
    rows = np.arange(n)
    mean_loss = float(np.mean(lse - z[rows, y]))
    g = np.exp(z - lse[:, None])
    g[rows, y] -= 1.0
    g /= n
    if isinstance(model, LinearSoftmaxModel):
        return mean_loss, [g.T @ x, g.sum(axis=0)]
    if model.activation == "relu":
        act_grad = (pre > 0.0).astype(np.float64)
    else:
        act_grad = 1.0 - np.tanh(pre) * np.tanh(pre)
    d_hidden = (g @ model.head.weights) * act_grad
    return mean_loss, [d_hidden.T @ x, d_hidden.sum(axis=0), g.T @ hidden, g.sum(axis=0)]


def _row_indexed_log_odds_loss_and_grads(model, x, y, loss):
    """The two-class linear step over the margin d, each row's loss and
    sigmoid picked by label and by sign from stacked columns."""
    shift = _shift_of(loss, 2)
    w, b = model.weights, model.biases
    n = x.shape[0]
    rows = np.arange(n)
    d = x @ (w[1] - w[0]) + ((b[1] - b[0]) + (shift[1] - shift[0]))
    e = np.exp(-np.abs(d))
    towards_the_other_class = np.stack([d, -d], axis=1)[rows, y]
    mean_loss = float(np.mean(np.maximum(towards_the_other_class, 0.0) + np.log1p(e)))
    sigmoid = np.stack([e, np.ones(n)], axis=1)[rows, (d >= 0.0).astype(np.int64)] / (1.0 + e)
    q = (sigmoid - y) / n
    weight_grad, bias_grad = q @ x, q.sum()
    return mean_loss, [np.array([-weight_grad, weight_grad]), np.array([-bias_grad, bias_grad])]


def _reference_loss_and_grads(model, x, y, loss):
    """The row-indexed form of the step that the kernel takes for this model."""
    if isinstance(model, LinearSoftmaxModel) and model.num_classes == 2:
        return _row_indexed_log_odds_loss_and_grads(model, x, y, loss)
    return _row_indexed_loss_and_grads(model, x, y, loss)


def _assert_kernel_matches_the_row_indexed_form(model, x, y, loss):
    value, grads = batch_loss_and_grads(model, x, y, loss)
    ref_value, ref_grads = _reference_loss_and_grads(model, x, y, loss)
    assert value == ref_value
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


def _loss_of_kind(kind, rng, c):
    if kind == "plain-ce":
        return LossSpec()
    return LossSpec(kind, rng.dirichlet(np.ones(c)), alpha=1.3)


# numpy sums a row of 8 or more terms pairwise, so 7, 8 and 9 bracket it;
# 17 is the narrowest row whose max numerics._row_max takes by m.max(axis=1)
# (FOLD_MAX_COLUMNS + 1), and 100 the class count of the ingest workload
@pytest.mark.parametrize("c", [2, 3, 7, 8, 9, 10, 17, 100])
@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
@pytest.mark.parametrize("family", ["linear", "relu", "tanh"])
def test_batch_loss_and_grads_match_the_row_indexed_form_bit_for_bit(family, loss_kind, c):
    rng = np.random.default_rng(c)
    d, n = 6, 257
    if family == "linear":
        model = LinearSoftmaxModel(rng.normal(size=(c, d)), rng.normal(size=c))
    else:
        model = MlpModel(
            rng.normal(size=(8, d)), rng.normal(size=8), family,
            LinearSoftmaxModel(rng.normal(size=(c, 8)), rng.normal(size=c)),
        )
    loss = _loss_of_kind(loss_kind, rng, c)
    x = rng.normal(scale=3.0, size=(n, d))
    y = rng.integers(0, c, size=n)
    _assert_kernel_matches_the_row_indexed_form(model, x, y, loss)


@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
@pytest.mark.parametrize("c, d, n", [(2, 2, 10_000), (10, 32, 12_408)])
def test_batch_loss_and_grads_bit_for_bit_at_the_benchmark_shapes(c, d, n, loss_kind):
    """The toy's full batch and the pipeline's train split: GEMM bits that
    depend on the operand layout show only at large N."""
    rng = np.random.default_rng(n)
    model = LinearSoftmaxModel(rng.normal(size=(c, d)), rng.normal(size=c))
    x = rng.normal(scale=3.0, size=(n, d))
    y = rng.integers(0, c, size=n)
    _assert_kernel_matches_the_row_indexed_form(model, x, y, _loss_of_kind(loss_kind, rng, c))


@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
def test_two_class_log_odds_step_matches_its_reference_on_one_row_batches(loss_kind):
    """In a long batch an ulp of a small sigmoid vanishes below the last bit
    of the summed gradient; a one-row gradient is q * x, which keeps it."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        model = LinearSoftmaxModel(rng.normal(size=(2, 3)), rng.normal(size=2))
        x = rng.normal(scale=3.0, size=(1, 3))
        y = rng.integers(0, 2, size=1)
        _assert_kernel_matches_the_row_indexed_form(model, x, y, _loss_of_kind(loss_kind, rng, 2))


@pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
def test_two_class_log_odds_step_agrees_with_the_softmax_form(loss_kind, scale):
    """The log-odds step reorders the softmax arithmetic, so it keeps its
    value to rounding, out to logits of a few hundred."""
    rng = np.random.default_rng(int(scale))
    d, n = 6, 257
    for _ in range(20):
        model = LinearSoftmaxModel(
            rng.normal(scale=scale / 3, size=(2, d)), rng.normal(scale=scale, size=2)
        )
        loss = _loss_of_kind(loss_kind, rng, 2)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        value, grads = batch_loss_and_grads(model, x, y, loss)
        ref_value, ref_grads = _row_indexed_loss_and_grads(model, x, y, loss)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_two_class_log_odds_step_is_finite_at_margins_of_800():
    """exp(800) overflows, so a sigmoid or softplus that takes exp(-d) for
    every d would not hold here."""
    model = LinearSoftmaxModel(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    x = np.array([[800.0, 0.0], [-800.0, 0.0], [800.0, 0.0], [-800.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grads = batch_loss_and_grads(model, x, np.array([0, 0, 1, 1]), LossSpec())
    # rows 0 and 3 sit 800 towards the wrong class, rows 1 and 2 as far right
    assert value == 400.0
    assert np.array_equal(grads[0], [[-400.0, 0.0], [400.0, 0.0]])
    assert np.array_equal(grads[1], [0.0, 0.0])


@pytest.mark.parametrize("loss_kind", ["plain-ce", "logit-adjusted"])
def test_two_class_log_odds_step_keeps_the_reference_bits_at_weights_of_1e300(loss_kind):
    """Margins of about 1e300, and of +-inf on every fourth row: the step
    flips the margin's sign and subtracts the labels exactly there, so it
    keeps the reference's bits and warns of no invalid value. A margin
    built as relu(d) - y * d would read inf - inf, a NaN, on those rows."""
    rng = np.random.default_rng(300)
    model = LinearSoftmaxModel(np.array([[1e300, -1e300], [-1e300, 1e300]]),
                               np.array([1e300, -1e300]))
    x = rng.normal(size=(64, 2))
    x[::4, 0] *= 1e10  # x0 * (w1 - w0)[0] overflows to +-inf
    y = rng.integers(0, 2, size=64)
    loss = _loss_of_kind(loss_kind, rng, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, grads = batch_loss_and_grads(model, x, y, loss)
    with np.errstate(over="ignore"):
        ref_value, ref_grads = _row_indexed_log_odds_loss_and_grads(model, x, y, loss)
    assert value == ref_value == math.inf
    for g, ref in zip(grads, ref_grads, strict=True):
        assert np.array_equal(g, ref)
    assert np.all(np.isfinite(grads[0]))
    messages = [str(w.message) for w in caught]
    assert any("overflow" in m for m in messages)
    assert not [m for m in messages if "invalid value" in m]


def _traced_peak(run) -> int:
    """The bytes that ``run()`` holds at its peak beyond those held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_two_class_full_batch_train_peaks_alike_for_1_and_100_steps():
    ds = sample_dataset(separable_gmm(), [15_000, 5_000], RngStream(20))
    peaks = [_traced_peak(lambda: train(init_linear(2, 2), ds, LossSpec(),
                                        small_cfg(iterations=steps, batch_size=ds.n)))
             for steps in (1, 100)]
    assert peaks[1] <= peaks[0] + 8 * ds.n  # one float row


def test_two_class_step_in_a_reused_workspace_allocates_no_row():
    """numpy casts the mask d >= 0 to floats through a buffer of at most
    8 192 values, so at 20 000 rows that buffer is below one row."""
    rng = np.random.default_rng(21)
    n = 20_000
    x, y = rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)
    model = LinearSoftmaxModel(rng.normal(size=(2, 2)), rng.normal(size=2))
    ws = model_module._LogOddsWorkspace(y)

    def step():
        return model_module._loss_and_grads(model, x, y, LossSpec(), ws)

    step()
    assert _traced_peak(step) < 8 * n


def test_two_class_full_batch_train_in_one_workspace_matches_the_row_indexed_loop(toy_train):
    loss = LossSpec("logit-adjusted", [0.7, 0.3])
    cfg = small_cfg(iterations=30, batch_size=toy_train.n, learning_rate=5.0)
    result = train(init_linear(2, 2), toy_train, loss, cfg)
    model = _row_indexed_train(init_linear(2, 2), toy_train, loss, cfg)
    for trained, ref in zip(model_parameters(result.model), model_parameters(model)):
        assert np.array_equal(trained, ref)


def _row_indexed_train(model, ds, loss, cfg):
    """train's SGD loop over the row-indexed references, gathering by index.
    A two-class linear model at full batch steps on the rows in stored order
    and draws nothing."""
    in_order = (cfg.batch_size == ds.n and isinstance(model, LinearSoftmaxModel)
                and model.num_classes == 2)
    gen, step = cfg.seed.generator(), 0
    while step < cfg.iterations:
        perm = np.arange(ds.n) if in_order else gen.permutation(ds.n)
        for start in range(0, ds.n, cfg.batch_size):
            if step < cfg.iterations:
                batch = perm[start : start + cfg.batch_size]
                _, grads = _reference_loss_and_grads(
                    model, ds.features[batch], ds.labels[batch], loss
                )
                for param, grad in zip(model_parameters(model), grads):
                    param -= cfg.learning_rate * grad
                step += 1
    return model


@pytest.mark.parametrize("batch_size", [64, 300])
def test_train_matches_the_gather_by_index_loop_bit_for_bit(batch_size):
    ds = sample_dataset(separable_gmm(), [250, 50], RngStream(3))
    cfg = small_cfg(iterations=12, batch_size=batch_size, learning_rate=5.0)
    result = train(init_linear(2, 2), ds, LossSpec(), cfg)
    model = _row_indexed_train(init_linear(2, 2), ds, LossSpec(), cfg)
    for trained, ref in zip(model_parameters(result.model), model_parameters(model)):
        assert np.array_equal(trained, ref)


def test_full_batch_logit_adjusted_train_at_ten_classes_matches_the_row_indexed_loop():
    """The pipeline's stage-2 case: full-batch steps at lr 5.0 under the
    prior-shifted loss, with ten classes."""
    rng = np.random.default_rng(10)
    gmm = GaussianMixtureSpec(rng.normal(scale=2.0, size=(10, 32)), np.ones(10))
    counts = np.round(500 * 0.5 ** np.arange(10)).astype(np.int64) + 5
    ds = sample_dataset(gmm, counts, RngStream(11))
    loss = LossSpec("logit-adjusted", counts / counts.sum())
    cfg = small_cfg(iterations=5, batch_size=ds.n, learning_rate=5.0)
    result = train(init_linear(10, 32), ds, loss, cfg)
    model = _row_indexed_train(init_linear(10, 32), ds, loss, cfg)
    for trained, ref in zip(model_parameters(result.model), model_parameters(model)):
        assert np.array_equal(trained, ref)


@pytest.mark.parametrize("batch_size", [64, None])
def test_two_class_train_on_fortran_ordered_features_has_the_bits_of_c_order(
    toy_train, batch_size
):
    """At full batch the step runs on the dataset's own rows, whose layout
    would change the GEMM's bits; a gathered batch was always in C order."""
    fortran = LabeledDataset(np.asfortranarray(toy_train.features), toy_train.labels,
                             toy_train.counts)
    assert not fortran.features.flags.c_contiguous
    cfg = small_cfg(iterations=20, batch_size=batch_size or toy_train.n, learning_rate=5.0)
    a, b = (train(init_linear(2, 2), ds, LossSpec(), cfg) for ds in (toy_train, fortran))
    for trained, ref in zip(model_parameters(a.model), model_parameters(b.model)):
        assert np.array_equal(trained, ref)
    assert a.loss_trace == b.loss_trace


class _PermutationSpy(np.random.Generator):
    """A generator that records the size of each permutation it draws."""

    drawn: list[int] = []

    def permutation(self, x, axis=0):
        self.drawn.append(x)
        return super().permutation(x, axis)


@pytest.mark.parametrize("family, c, batch_size, iterations, draws", [
    ("linear", 2, None, 7, 0),  # the rows in stored order, nothing drawn
    ("linear", 2, 64, 12, 3),  # 5 batches of 300 rows per epoch: epochs of 5, 5 and 2
    ("linear", 10, None, 7, 7),
    ("mlp", 2, None, 7, 7),
])
def test_train_draws_one_permutation_per_epoch_except_two_class_linear_at_full_batch(
    monkeypatch, family, c, batch_size, iterations, draws
):
    rng = np.random.default_rng(50 + c)
    gmm = GaussianMixtureSpec(rng.normal(scale=2.0, size=(c, 2)), np.ones(c))
    counts = [250, 50] if c == 2 else [30] * c
    ds = sample_dataset(gmm, counts, RngStream(51))
    model = (init_linear(c, 2) if family == "linear"
             else init_mlp(c, 2, hidden=3, activation="tanh", rng=RngStream(52)))
    monkeypatch.setattr(_PermutationSpy, "drawn", [])
    monkeypatch.setattr(np.random, "Generator", _PermutationSpy)
    cfg = small_cfg(iterations=iterations, batch_size=batch_size or ds.n)
    train(model, ds, LossSpec(), cfg)
    assert _PermutationSpy.drawn == [ds.n] * draws


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_batch_loss_and_grads_rejects_nonfinite_features(bad):
    x = np.zeros((4, 2))
    x[2, 1] = bad
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        batch_loss_and_grads(init_linear(2, 2), x, np.array([0, 1, 0, 1]), LossSpec())


def test_train_zero_iterations_returns_init(toy_train):
    model = LinearSoftmaxModel(np.ones((2, 2)), np.array([0.5, -0.5]))
    result = train(model, toy_train, LossSpec(), small_cfg(iterations=0))
    np.testing.assert_array_equal(result.model.weights, model.weights)
    np.testing.assert_array_equal(result.model.biases, model.biases)
    assert result.loss_trace == []


def test_train_deterministic(toy_train):
    a = train(init_linear(2, 2), toy_train, LossSpec(), small_cfg(seed=3))
    b = train(init_linear(2, 2), toy_train, LossSpec(), small_cfg(seed=3))
    np.testing.assert_array_equal(a.model.weights, b.model.weights)
    np.testing.assert_array_equal(a.model.biases, b.model.biases)
    assert a.loss_trace == b.loss_trace


def test_two_class_linear_train_at_full_batch_has_the_same_bits_for_any_seed(toy_train):
    a, b = (train(init_linear(2, 2), toy_train, LossSpec(),
                  small_cfg(seed=seed, batch_size=toy_train.n)) for seed in (3, 4))
    np.testing.assert_array_equal(a.model.weights, b.model.weights)
    np.testing.assert_array_equal(a.model.biases, b.model.biases)
    assert a.loss_trace == b.loss_trace


def test_train_separable_problem_reaches_high_accuracy():
    gmm = separable_gmm()
    ds = sample_dataset(gmm, [500, 500], RngStream(13))
    cfg = TrainConfig(learning_rate=0.5, iterations=2000, batch_size=100, seed=RngStream(14))
    result = train(init_linear(2, 2), ds, LossSpec(), cfg)
    pred = np.argmax(predict_logits(result.model, ds.features), axis=1)
    assert np.mean(pred == ds.labels) >= 0.99


def test_full_batch_loss_trace_non_increasing(toy_train):
    cfg = TrainConfig(
        learning_rate=1.0, iterations=60, batch_size=toy_train.n, seed=RngStream(5)
    )
    trace = train(init_linear(2, 2), toy_train, LossSpec(), cfg).loss_trace
    after_warmup = np.array(trace[10:])
    assert np.all(np.diff(after_warmup) <= 1e-12)


def test_minibatch_loss_trace_mostly_non_increasing(toy_train):
    cfg = TrainConfig(
        learning_rate=0.2, iterations=780, batch_size=128, seed=RngStream(6)
    )
    trace = np.array(train(init_linear(2, 2), toy_train, LossSpec(), cfg).loss_trace)
    diffs = np.diff(trace[1:])
    prev = trace[1:-1]
    # stochastic batching may tick the epoch mean up, but by at most 1%
    assert np.all(diffs <= prev * 0.01)


def test_divergence_detection_non_finite(toy_train):
    cfg = TrainConfig(
        learning_rate=1e300, iterations=200, batch_size=128, seed=RngStream(7)
    )
    with pytest.raises(NumericError, match="epoch mean loss .* beyond limit"):
        train(init_linear(2, 2), toy_train, LossSpec(), cfg)


def test_divergence_detection_non_finite_loss_at_a_step():
    # finite logits of +-1e308, each on the wrong class: the loss overflows
    hostile = LinearSoftmaxModel(np.array([[1e307, 0.0], [-1e307, 0.0]]), np.zeros(2))
    ds = LabeledDataset(np.array([[10.0, 0.0], [-10.0, 0.0]]), [1, 0], [1, 1])
    assert np.isfinite(predict_logits(hostile, ds.features)).all()
    cfg = TrainConfig(learning_rate=0.1, iterations=5, batch_size=2, seed=RngStream(9))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericError, match="non-finite loss at step 0; lower the learning rate"):
            train(hostile, ds, LossSpec(), cfg)


def test_divergence_detection_epoch_limit(toy_train):
    # misoriented huge init: finite loss far beyond the 1e6 abort threshold
    hostile = LinearSoftmaxModel(
        np.array([[1e7, 0.0], [-1e7, 0.0]]), np.zeros(2)
    )
    cfg = TrainConfig(
        learning_rate=1e-12, iterations=toy_train.n // 128 + 1,
        batch_size=128, seed=RngStream(8),
    )
    with pytest.raises(NumericError, match="epoch mean loss .* beyond limit"):
        train(hostile, toy_train, LossSpec(), cfg)


def test_train_rejects_oversized_batch(toy_train):
    with pytest.raises(UsageError, match="batch size 10001 exceeds dataset size 10000"):
        train(
            init_linear(2, 2),
            toy_train,
            LossSpec(),
            small_cfg(batch_size=toy_train.n + 1),
        )


def test_stage2_cl_freezes_hidden_layer(toy_train):
    mlp = init_mlp(2, 2, hidden=6, activation="relu", rng=RngStream(20))
    stage1 = train(mlp, toy_train, LossSpec(), small_cfg(seed=21)).model
    prior = np.array([0.9901, 0.0099])
    result = stage2_retrain(stage1, toy_train, "CL", small_cfg(seed=22), prior)
    np.testing.assert_array_equal(result.model.hidden_weights, stage1.hidden_weights)
    np.testing.assert_array_equal(result.model.hidden_biases, stage1.hidden_biases)
    assert not np.array_equal(result.model.head.weights, stage1.head.weights)


def test_stage2_ft_zero_iterations_keeps_model(toy_train):
    stage1 = train(init_linear(2, 2), toy_train, LossSpec(), small_cfg(seed=23)).model
    result = stage2_retrain(
        stage1, toy_train, "FT", small_cfg(seed=24, iterations=0), [0.99, 0.01]
    )
    np.testing.assert_array_equal(result.model.weights, stage1.weights)
    np.testing.assert_array_equal(result.model.biases, stage1.biases)


def test_stage2_cl_on_linear_model_warns(toy_train):
    stage1 = train(init_linear(2, 2), toy_train, LossSpec(), small_cfg(seed=25)).model
    with pytest.warns(UserWarning, match="full retrain"):
        stage2_retrain(stage1, toy_train, "CL", small_cfg(seed=26), [0.9901, 0.0099])


def _masked_head_train(stage1, ds, loss, cfg):
    """CL as a masked run of the whole MLP: at each step its forward and
    backward pass on the gathered rows, then an update of the zero head only.
    Returns the model and the epoch mean loss trace."""
    model = stage1.copy()
    model.head = init_linear(model.num_classes, model.head.dims)
    head_params = model_parameters(model)[2:]
    gen, step, trace = cfg.seed.generator(), 0, []
    while step < cfg.iterations:
        perm = gen.permutation(ds.n)
        epoch_loss, epoch_samples = 0.0, 0
        for start in range(0, ds.n, cfg.batch_size):
            if step < cfg.iterations:
                batch = perm[start : start + cfg.batch_size]
                value, grads = batch_loss_and_grads(
                    model, ds.features[batch], ds.labels[batch], loss
                )
                for param, grad in zip(head_params, grads[2:]):
                    param -= cfg.learning_rate * grad
                epoch_loss += value * batch.size
                epoch_samples += batch.size
                step += 1
        trace.append(epoch_loss / epoch_samples)
    return model, trace


def _relative_difference(a, b):
    return np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b))


@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("c", [2, 3, 10])
def test_stage2_cl_matches_the_masked_full_model_loop(c, activation, batch_size):
    """Bit for bit wherever the head takes the softmax step; a two-class head
    takes the log-odds step, which agrees to rounding."""
    rng = np.random.default_rng(40 + c)
    d, hidden = 5, 7
    gmm = GaussianMixtureSpec(rng.normal(scale=2.0, size=(c, d)), np.ones(c))
    counts = np.round(200 * 0.6 ** np.arange(c)).astype(np.int64) + 5
    ds = sample_dataset(gmm, counts, RngStream(41))
    stage1 = init_mlp(c, d, hidden, activation, RngStream(42))
    prior = counts / counts.sum()
    cfg = small_cfg(iterations=15, batch_size=batch_size or ds.n)
    result = stage2_retrain(stage1, ds, "CL", cfg, prior, alpha=0.8)
    ref, ref_trace = _masked_head_train(stage1, ds, LossSpec("logit-adjusted", prior, 0.8), cfg)
    for trained, frozen in zip(model_parameters(result.model)[:2], model_parameters(stage1)[:2]):
        assert np.array_equal(trained, frozen)
    pairs = [(result.model.head.weights, ref.head.weights),
             (result.model.head.biases, ref.head.biases), (result.loss_trace, ref_trace)]
    for trained, expected in pairs:
        if c == 2:
            assert _relative_difference(trained, expected) <= 1e-11
        else:
            assert np.array_equal(trained, expected)


def test_stage2_cl_computes_the_stage1_features_once(toy_train, monkeypatch):
    """One hidden-layer pass over the whole dataset, not one per step, and
    no gradient for the frozen layer."""
    calls = []
    for name in ("_activate", "_activate_grad"):
        def spy(z, kind, _name=name, _real=getattr(model_module, name)):
            calls.append((_name, z.shape))
            return _real(z, kind)
        monkeypatch.setattr(model_module, name, spy)
    stage1 = init_mlp(2, 2, hidden=4, activation="tanh", rng=RngStream(30))
    stage2_retrain(stage1, toy_train, "CL", small_cfg(seed=31, iterations=20), [0.99, 0.01])
    assert calls == [("_activate", (toy_train.n, 4))]


def test_stage2_cl_improves_balanced_accuracy_over_ce(gmm):
    from tailcal.evaluation import balanced_accuracy, confusion_matrix

    deltas = []
    for seed in range(20):
        base = RngStream(8800).child(seed)
        ds = sample_dataset(gmm, [9901, 99], base.child(0))
        test = sample_dataset(gmm, [2000, 2000], base.child(1))
        mlp = init_mlp(2, 2, hidden=8, activation="relu", rng=base.child(2))
        cfg1 = TrainConfig(
            learning_rate=5.0, iterations=100, batch_size=ds.n, seed=base.child(3)
        )
        stage1 = train(mlp, ds, LossSpec(), cfg1).model
        cfg2 = TrainConfig(
            learning_rate=5.0, iterations=100, batch_size=ds.n, seed=base.child(4)
        )
        prior = np.array([0.9901, 0.0099])
        stage2 = stage2_retrain(stage1, ds, "CL", cfg2, prior).model
        accs = []
        for model in (stage1, stage2):
            pred = np.argmax(predict_logits(model, test.features), axis=1)
            accs.append(balanced_accuracy(confusion_matrix(pred, test.labels, 2)))
        deltas.append(accs[1] - accs[0])
    assert np.mean(deltas) > 0


def test_save_load_roundtrip_linear(tmp_path, toy_ce_model):
    path = tmp_path / "model.json"
    provenance = ModelProvenance(stage=1, loss=LossSpec("plain-ce"), seed=(1234, 5))
    save_model(toy_ce_model, path, provenance)
    loaded, prov = load_model(path)
    np.testing.assert_array_equal(loaded.weights, toy_ce_model.weights)
    np.testing.assert_array_equal(loaded.biases, toy_ce_model.biases)
    assert prov.loss.kind == "plain-ce" and prov.seed == (1234, 5)
    x = np.array([[0.3, -0.2], [1.5, 0.7]])
    np.testing.assert_array_equal(
        predict_logits(loaded, x), predict_logits(toy_ce_model, x)
    )


def test_save_load_roundtrip_mlp(tmp_path):
    mlp = init_mlp(3, 4, hidden=5, activation="tanh", rng=RngStream(77))
    path = tmp_path / "mlp.json"
    save_model(mlp, path)
    loaded, _ = load_model(path)
    x = np.linspace(-1, 1, 8).reshape(2, 4)
    np.testing.assert_array_equal(predict_logits(loaded, x), predict_logits(mlp, x))


def test_stage2_provenance_roundtrip(tmp_path, toy_ce_model):
    prior = np.array([0.9901, 0.0099])
    provenance = ModelProvenance(
        stage=2, loss=LossSpec("logit-adjusted", prior, alpha=0.75), seed=(9, 9)
    )
    path = tmp_path / "stage2.json"
    save_model(toy_ce_model, path, provenance)
    _, prov = load_model(path)
    assert prov.stage == 2
    assert prov.loss.kind == "logit-adjusted"
    assert prov.loss.alpha == 0.75
    np.testing.assert_array_equal(prov.loss.prior, prior)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "arch": {"family": "line')
    with pytest.raises(DataError, match="not a model file"):
        load_model(path)


def test_load_rejects_schema_mismatch(tmp_path, toy_ce_model):
    path = tmp_path / "old.json"
    save_model(toy_ce_model, path)
    payload = path.read_text().replace('"schema": 1', '"schema": 99')
    path.write_text(payload)
    with pytest.raises(DataError, match="unsupported schema 99"):
        load_model(path)
