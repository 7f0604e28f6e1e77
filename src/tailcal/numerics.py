"""Dense numeric kernel: validated vectors/matrices, simplex utilities,
numerically stable softmax family, and deterministic random streams.

All arithmetic is 64-bit floating point. Probability vectors are plain
float64 arrays validated by :func:`prob_vector`; construction tolerance is
1e-9 on the simplex sum, algebraic identities hold to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

SIMPLEX_ATOL = 1e-9

_MASK64 = (1 << 64) - 1

# Rows up to this wide take their max by folding np.maximum over the column
# views, wider rows by m.max(axis=1): numpy's reduction over a short row is
# slow, but the fold reads the whole matrix once per column. At N = 10 000
# (2-core x86, numpy 2.4) the fold takes 15 us against 535 us at C = 2,
# 105 us against 598 us at C = 10 and 215 us against 893 us at C = 16, but
# 1899 us against 1194 us at C = 32 and 1405 us against 1213 us at C = 100.
FOLD_MAX_COLUMNS = 16


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DataError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError("vector contains NaN or Inf")
    return v


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise DataError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix contains NaN or Inf")
    return m


def prob_vector(values) -> np.ndarray:
    """Validate a point on the probability simplex and return it as float64.

    Entries must be non-negative and sum to 1 within ``SIMPLEX_ATOL``; length
    must be at least 2 (class distributions need two or more entries).
    """
    p = as_vector(values)
    if p.size < 2:
        raise DataError(f"probability vector needs >= 2 entries, got {p.size}")
    if np.any(p < 0):
        raise NumericError(f"negative probability entry: min={p.min()}")
    total = float(p.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise NumericError(f"probabilities sum to {total!r}, not 1 within {SIMPLEX_ATOL}")
    return p


def prob_matrix(values) -> np.ndarray:
    """Validate a matrix whose rows all lie on the simplex."""
    m = as_matrix(values)
    if m.shape[1] < 2:
        raise DataError(f"posterior matrix needs >= 2 columns, got {m.shape[1]}")
    if np.any(m < 0):
        raise NumericError("negative posterior entry")
    sums = _row_sum(m)[:, 0]
    bad = np.abs(sums - 1.0) > SIMPLEX_ATOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericError(f"row {i} sums to {float(sums[i])!r}, not 1 within {SIMPLEX_ATOL}")
    return m


def log_sum_exp(z) -> float:
    """log(sum(exp(z))) computed as m + log(sum(exp(z - m))), m = max(z)."""
    v = as_vector(z)
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


def _row_max(m: np.ndarray) -> np.ndarray:
    """The max of each row of ``m`` as an (N, 1) column.

    A max is exact in any order, so both branches give the same bits.
    """
    if m.shape[1] > FOLD_MAX_COLUMNS:
        return m.max(axis=1, keepdims=True)
    mx = m[:, 0].copy()
    for j in range(1, m.shape[1]):
        np.maximum(mx, m[:, j], out=mx)
    return mx[:, None]


def _row_sum(e: np.ndarray) -> np.ndarray:
    """The sum of each row of ``e`` as an (N, 1) column, in the bits of
    ``np.ascontiguousarray(e).sum(axis=1, keepdims=True)`` for every layout.

    Two terms add to the same bits in either order, so rows 2 wide are summed
    over their column views: at N = 10 000 (2-core x86, numpy 2.4) that takes
    about 15 us against about 230 us for numpy's reduction. numpy's sum
    starts from +0.0, so the added 0.0 turns a -0.0 sum into +0.0 as it does.
    Three or more terms round differently in another order. numpy sums a
    C-ordered row of 8 to 15 terms as ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7))
    and then adds c8, c9, ... in order, so those rows are summed over their
    column views in that order: 65 us against 260 us at 12 408 x 10. Other
    rows keep the reduction over a C-ordered copy, as numpy sums an F-ordered
    matrix column by column.
    """
    c = e.shape[1]
    if c == 2:
        s = e[:, 0] + e[:, 1]
    elif 8 <= c <= 15:
        s = e[:, 0] + e[:, 1]
        t = e[:, 2] + e[:, 3]
        s += t
        np.add(e[:, 4], e[:, 5], out=t)
        u = e[:, 6] + e[:, 7]
        t += u
        s += t
        for j in range(8, c):
            s += e[:, j]
    else:
        return np.ascontiguousarray(e).sum(axis=1, keepdims=True)
    s += 0.0
    return s[:, None]


def log_sum_exp_rows(z) -> np.ndarray:
    """Row-wise log-sum-exp of a matrix, through one temporary matrix."""
    m = as_matrix(z)
    mx = _row_max(m)
    e = m - mx
    np.exp(e, out=e)
    return (mx + np.log(_row_sum(e)))[:, 0]


def softmax(z) -> np.ndarray:
    """Stable softmax of a logit vector; argmax is preserved exactly.

    Max-subtraction keeps the exponentials bounded, so any finite input is
    safe, including extremes like [1000, 0].
    """
    v = as_vector(z)
    if v.size < 2:
        raise DataError("softmax needs >= 2 logits")
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_rows(z) -> np.ndarray:
    """Row-wise stable softmax of a logit matrix, computed in the one matrix
    it returns."""
    m = as_matrix(z)
    if m.shape[1] < 2:
        raise DataError("softmax needs >= 2 logits per row")
    e = m - _row_max(m)
    np.exp(e, out=e)
    e /= _row_sum(e)
    return e


def _splitmix64(x: int) -> int:
    """One splitmix64 finalizer step; the standard 64-bit avalanche mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based deterministic random stream.

    Identical (seed, stream_id) pairs yield identical draw sequences on every
    platform running the same build, and distinct stream ids are statistically
    independent, so per-trial streams can be consumed in any order (or in
    parallel) without changing any result.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream; same seed, mixed stream id."""
        mixed = _splitmix64(_splitmix64(self.stream_id) ^ (int(index) & _MASK64))
        return RngStream(self.seed, mixed)
