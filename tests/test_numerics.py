import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailcal.errors import DataError, NumericError
from tailcal.numerics import (
    FOLD_MAX_COLUMNS,
    RngStream,
    _row_sum,
    log_sum_exp,
    log_sum_exp_rows,
    prob_vector,
    softmax,
    softmax_rows,
)

# Rows of 10 take the folded max and sum, rows of 40 numpy's reductions. (At
# 2 columns each (N,) column is half the matrix, so the row vectors alone
# exceed the bound.)
@pytest.mark.parametrize("columns", [10, 40])
@pytest.mark.parametrize("fn", [log_sum_exp_rows, softmax_rows])
def test_row_softmax_family_holds_one_temporary_matrix(traced_peak, fn, columns):
    z = np.random.default_rng(columns).normal(size=(200_000 // columns, columns)) * 20
    assert traced_peak(lambda: fn(z)) <= 1.5 * z.nbytes


finite_logits = st.lists(
    st.floats(min_value=-700, max_value=700, allow_nan=False), min_size=2, max_size=8
)


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_extreme_inputs_do_not_overflow():
    p = softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_hand_value():
    np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(DataError, match="expected a non-empty 1-D vector"):
        softmax([])
    with pytest.raises(NumericError, match="vector contains NaN or Inf"):
        softmax([1.0, float("nan")])
    with pytest.raises(NumericError, match="vector contains NaN or Inf"):
        softmax([1.0, float("inf")])


def test_log_sum_exp_values():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)
    assert log_sum_exp([3.7]) == pytest.approx(3.7)
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000 + math.log(2))
    with pytest.raises(DataError, match="expected a non-empty 1-D vector"):
        log_sum_exp([])


ROW_WIDTHS = (2, 3, 8, 9, 10, 15, FOLD_MAX_COLUMNS, FOLD_MAX_COLUMNS + 1, 32, 100)


def _hard_rows(c: int, layout: str) -> np.ndarray:
    """Random rows plus rows of ties, signed zeros and values near +-700."""
    rng = np.random.default_rng(c)
    rows = [rng.normal(scale=5.0, size=(64, c)), rng.integers(-2, 3, size=(64, c))]
    rows.append(np.full((1, c), 3.5))
    rows.append(np.where(np.arange(c) % 2, 0.0, -0.0)[None])
    rows.append(np.where(np.arange(c) % 2, -0.0, 0.0)[None])
    rows.append(np.where(np.arange(c) % 2, -1.0, 0.0)[None])
    rows.append(np.where(np.arange(c) == c - 1, 700.0, 699.0)[None])
    rows.append(np.where(np.arange(c) == 0, -700.0, -699.999)[None])
    rows.append(np.linspace(-700.0, 700.0, c)[None])
    rows.append(np.linspace(700.0, -700.0, c)[None])
    m = np.concatenate(rows).astype(np.float64)
    return np.asfortranarray(m) if layout == "F" else m


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bytes: stricter than np.array_equal, which takes -0.0 == 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("c", ROW_WIDTHS)
def test_row_kernels_match_the_row_max_formula_bit_for_bit(c, layout):
    """Both branches of the row max give the bits of m.max(axis=1), and both
    branches of the row sum, for either layout, the bits of e.sum(axis=1)
    over a C-ordered ``e``, signed zeros included. numpy sums an F-ordered
    matrix column by column, which rounds otherwise from 8 columns on."""
    m = _hard_rows(c, layout)
    mx = m.max(axis=1, keepdims=True)
    e = np.exp(m - mx)
    row_sums = np.ascontiguousarray(e).sum(axis=1, keepdims=True)
    lse = (mx + np.log(row_sums))[:, 0]
    posts = e / row_sums
    for rows in (e, m, -m):
        assert _same_bits(_row_sum(rows), np.ascontiguousarray(rows).sum(axis=1, keepdims=True))
    assert _same_bits(log_sum_exp_rows(m), lse)
    assert _same_bits(softmax_rows(m), posts)


@pytest.mark.parametrize("c", ROW_WIDTHS)
def test_row_kernels_give_the_same_bytes_for_either_layout(c):
    m = _hard_rows(c, "C")
    f = np.asfortranarray(m)
    assert _same_bits(log_sum_exp_rows(f), log_sum_exp_rows(m))
    assert _same_bits(softmax_rows(f), softmax_rows(m))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_row_kernels_reject_nonfinite(bad):
    m = np.zeros((3, 2))
    m[1, 0] = bad
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        log_sum_exp_rows(m)
    with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
        softmax_rows(m)


def test_prob_vector_validation():
    with pytest.raises(NumericError, match=r"probabilities sum to 1\.2, not 1 within 1e-09"):
        prob_vector([0.6, 0.6])
    with pytest.raises(DataError, match="probability vector needs >= 2 entries, got 1"):
        prob_vector([1.0])
    p = prob_vector([0.25, 0.75])
    assert p.dtype == np.float64


@given(finite_logits, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_softmax_shift_invariance(z, c):
    np.testing.assert_allclose(
        softmax(np.asarray(z) + c), softmax(z), atol=1e-12
    )


def _resolvable_argmax(z):
    # exp() cannot separate gaps below float resolution; argmax preservation
    # is only meaningful when the winner leads by a representable margin.
    v = np.sort(np.asarray(z))
    return v[-1] - v[-2] > 1e-9


@given(finite_logits.filter(_resolvable_argmax))
def test_softmax_preserves_argmax(z):
    assert np.argmax(softmax(z)) == np.argmax(z)


@given(finite_logits)
def test_softmax_lands_on_simplex(z):
    prob_vector(softmax(z))


def test_rng_streams_are_reproducible():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ_across_ids():
    a = RngStream(42, 0).generator().standard_normal(16)
    b = RngStream(42, 1).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_rng_child_streams_are_stable_and_distinct():
    base = RngStream(42)
    assert base.child(3) == base.child(3)
    assert base.child(3) != base.child(4)
    assert base.child(3).seed == base.seed
    draws_a = base.child(3).generator().random(8)
    draws_b = base.child(4).generator().random(8)
    assert not np.array_equal(draws_a, draws_b)


def test_rng_generator_restarts_from_stream_origin():
    got = RngStream(7, 1).generator().random(3)
    again = RngStream(7, 1).generator().random(3)
    np.testing.assert_array_equal(got, again)
    assert got.shape == (3,) and np.all((got >= 0) & (got < 1))
