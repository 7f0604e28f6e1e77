"""Synthetic long-tailed Gaussian-mixture datasets.

Generates class-conditional isotropic Gaussian samples under a long-tail
count profile, computes the empirical class prior, builds test-time
shifted label distributions, and round-trips datasets through CSV at full
float64 precision. Each CSV written here gets a binary twin beside it, which
a later read of the unchanged CSV loads instead of parsing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import SHIFT_DIRECTIONS
from .errors import DataError, NumericError, UsageError
from .numerics import RngStream, as_matrix, prob_vector

# Lines per block of a CSV read: a read holds one block's parse beside the
# arrays it fills.
CSV_BLOCK_LINES = 256

# Values in a CSV write from which it is split in two, across two CPUs.
CSV_SPLIT_CELLS = 100_000


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Ground-truth generative mixture: one isotropic Gaussian per class."""

    means: np.ndarray  # (C, D)
    sigmas: np.ndarray  # (C,) positive isotropic std-devs

    def __post_init__(self):
        means = as_matrix(self.means)
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0):
            raise DataError("class sigmas must be finite and positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dims(self) -> int:
        return self.means.shape[1]


def _round_half_even(values: np.ndarray) -> np.ndarray:
    # np.rint rounds half to even, the documented convention here.
    rounded = np.rint(values)
    if np.any(rounded >= 2.0**63):  # the least float above the int64 maximum
        raise UsageError(f"count {rounded.max():.0f} does not fit in a signed 64-bit integer")
    return rounded.astype(np.int64)


def make_longtail_counts(
    num_classes: int, max_count: int, imbalance_factor: float, kind: str = "exponential"
) -> np.ndarray:
    """Per-class training counts of a long-tail profile, head class first.

    ``exponential`` decays counts geometrically from ``max_count`` down to
    ``max_count / imbalance_factor``: counts[i] = round(max_count * IF**(-i /
    (C - 1))), so counts[0] == max_count and counts[C-1] == round(max_count /
    IF). ``step`` gives the head half of the classes ``max_count`` each and the
    tail half round(max_count / IF). It takes C >= 2 and IF >= 1, the bounds
    of ``gen-data --classes`` and ``--imbalance``.
    """
    c = num_classes
    if kind == "exponential":
        i = np.arange(c, dtype=np.float64)
        counts = _round_half_even(max_count * imbalance_factor ** (-i / (c - 1)))
    else:  # step
        head = c - c // 2
        tail_count = _round_half_even(np.array([max_count / imbalance_factor]))[0]
        counts = np.array([max_count] * head + [tail_count] * (c - head))
    if np.any(counts < 1):
        raise UsageError(
            f"profile produces a zero count (counts={counts.tolist()}); "
            "reduce the imbalance factor or raise max_count"
        )
    return counts


@dataclass
class LabeledDataset:
    """Feature matrix plus integer labels and per-class counts."""

    features: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) ints in [0, C)
    counts: np.ndarray  # (C,)

    def __post_init__(self):
        self.features = as_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        c = self.counts.shape[0]
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= c):
            raise DataError(f"label {int(self.labels.max())} out of range for {c} classes")
        observed = np.bincount(self.labels, minlength=c)
        if not np.array_equal(observed, self.counts):
            raise DataError(
                f"counts {self.counts.tolist()} inconsistent with labels "
                f"{observed.tolist()}"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dims(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class ShiftSpec:
    """Test-time label-distribution shift.

    forward: counts decay with class index (same ordering as training);
    backward: counts grow with class index; uniform: equal counts.
    """

    direction: str
    ratio: float = 1.0

    def __post_init__(self):
        if self.direction not in SHIFT_DIRECTIONS:
            raise UsageError(f"unknown shift direction {self.direction!r}")
        if self.ratio < 1:
            raise UsageError(f"shift ratio must be >= 1, got {self.ratio}")
        if self.direction == "uniform" and self.ratio != 1:
            raise UsageError("uniform shift requires ratio == 1")


def sample_dataset(gmm: GaussianMixtureSpec, counts, rng: RngStream) -> LabeledDataset:
    """Draw counts[i] samples from class i's Gaussian, in seeded random order.

    Deterministic given the stream: the same (seed, stream_id) reproduces the
    dataset bit for bit.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (gmm.num_classes,):
        raise DataError(f"{counts.size} counts for {gmm.num_classes} mixture classes")
    if np.any(counts < 1):
        raise DataError(f"every class needs >= 1 sample, got {counts.tolist()}")
    gen = rng.generator()
    blocks, labels = [], []
    for i, n_i in enumerate(counts):
        x = gmm.means[i] + gmm.sigmas[i] * gen.standard_normal((int(n_i), gmm.dims))
        blocks.append(x)
        labels.append(np.full(int(n_i), i, dtype=np.int64))
    features = np.concatenate(blocks, axis=0)
    labels = np.concatenate(labels)
    perm = gen.permutation(features.shape[0])
    return LabeledDataset(features[perm], labels[perm], counts)


def empirical_prior(counts) -> np.ndarray:
    """Class-frequency prior n_i / sum(n)."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 1):
        raise DataError(f"counts must all be >= 1, got {counts.tolist()}")
    total = counts.sum()
    if total <= 0:
        raise NumericError("zero total count")
    return prob_vector(counts / total)


def make_shifted_counts(base_counts, shift: ShiftSpec) -> np.ndarray:
    """Redistribute the total of ``base_counts`` under a shifted profile.

    The shifted profile is the exponential long-tail shape at the requested
    ratio, scaled so the total is preserved within rounding; ``backward``
    reverses the class ordering, ``uniform`` splits the total evenly.
    """
    base = np.asarray(base_counts, dtype=np.int64)
    c = base.shape[0]
    if c < 2:
        raise DataError("need >= 2 classes to shift")
    total = float(sum(base.tolist()))  # Python ints: no int64 wrap-around
    if shift.direction == "uniform":
        counts = _round_half_even(np.full(c, total / c))
    else:
        i = np.arange(c, dtype=np.float64)
        weights = shift.ratio ** (-i / (c - 1))
        counts = _round_half_even(total * weights / weights.sum())
        if shift.direction == "backward":
            counts = counts[::-1].copy()
    if np.any(counts < 1):
        raise UsageError(
            f"shift produces a zero count (counts={counts.tolist()}); "
            "lower the ratio or enlarge the base total"
        )
    return counts


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_slots() -> int:
    """How many processes work may be spread over: one per usable CPU, or one
    without ``os.fork`` or beside other threads, which a fork does not copy."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


@contextmanager
def _forked(fn, *args):
    """Start ``fn(*args)`` in a forked child and yield ``wait``, which returns
    its result or raises its exception, as calling ``fn`` there would.

    The child reads the parent's memory through the fork; only the pickled
    result or exception comes back, through a pipe. It leaves through
    ``os._exit``, so the stdio buffers and atexit handlers it inherited never
    run twice. A child not waited for when the block exits is killed; every
    child is reaped. With fewer than two :func:`_fork_slots`, or when the
    fork fails, nothing is forked and ``wait`` calls ``fn`` itself.
    """
    pid = None
    if _fork_slots() > 1:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # EAGAIN, ENOMEM: the fork is only a speed-up
            os.close(read)
            os.close(write)
    if pid is None:
        yield lambda: fn(*args)
        return
    if pid == 0:
        try:
            os.close(read)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with open(write, "wb") as channel:
                channel.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write)
    pipe, reaped = open(read, "rb"), False

    def wait():
        nonlocal reaped
        with pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not payload:  # killed, or its outcome did not pickle
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"{fn.__name__} died in a forked child (exit {code})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    try:
        yield wait
    finally:
        if not reaped:
            import signal  # at module level it would cost every start 1 ms

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_rows(out, values: np.ndarray, labels, ids) -> None:
    """Write one ``[id,]v0,...,v{K-1},label`` line per row to a text file."""
    prefixes = repeat("") if ids is None else (f"{i}," for i in ids)
    for prefix, row, label in zip(prefixes, values, labels):
        out.write(prefix + ",".join(map(repr, row.tolist())) + f",{int(label)}\n")


def _write_part(file, values: np.ndarray, labels, ids) -> None:
    """:func:`_write_rows` into a binary file, through a text layer of its own."""
    with open(file.fileno(), "w", encoding="utf-8", closefd=False) as out:
        _write_rows(out, values, labels, ids)


def _checked_rows(path: Path, values: np.ndarray, labels, ids, bound: int):
    """``(labels, ids)`` of rows that a read of their CSV accepts: the labels
    as int64 and each id as the text written for it. A DataError naming
    ``path`` for a label or id count other than the row count, no rows, a
    non-finite value, a label that is not an integer in ``[0, bound)``, an id
    holding ``,``, CR or LF, which would split its line, or an id that UTF-8
    cannot encode, such as a lone surrogate."""
    if not (isinstance(labels, np.ndarray) and labels.dtype == np.int64):
        try:  # written through int()
            labels = np.fromiter(map(int, labels), np.int64, len(labels))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: labels must be integers in [0, {bound}): {exc}") from exc
    ids = None if ids is None else [f"{i}" for i in ids]
    rows = len(values)
    for what, count in (("labels", len(labels)), ("ids", rows if ids is None else len(ids))):
        if count != rows:
            raise DataError(f"{path}: {count} {what} for {rows} rows")
    if not rows:
        raise DataError(f"{path}: no data rows")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():  # named by its line in the CSV, as a read names it
        raise DataError(f"{path}: line {2 + int(np.argmin(finite))}: non-finite value")
    outside = (labels < 0) | (labels >= bound)
    if outside.any():
        row = int(np.argmax(outside))
        raise DataError(f"{path}: line {2 + row}: label {labels[row]} out of range [0, {bound})")
    for line, text in enumerate(ids or (), start=2):
        if any(c in text for c in ",\r\n"):
            raise DataError(f"{path}: line {line}: id {text!r} holds ',', CR or LF")
    try:  # one encode of all ids; the LFs before a failing character count its line
        "\n".join(ids or ()).encode("utf-8")
    except UnicodeEncodeError as exc:
        line = 2 + exc.object.count("\n", 0, exc.start)
        raise DataError(f"{path}: line {line}: id {ids[line - 2]!r} cannot be encoded "
                        "as UTF-8") from None
    return labels, ids


def _write_csv(path, header: list[str], values: np.ndarray, labels, ids=None,
               num_classes: int | None = None) -> Path | None:
    """Write the CSV format shared by datasets and logit dumps, then its
    binary twin (:func:`_write_twin`); returns the twin's path, or None.

    The rows are first checked as a read with ``num_classes`` (None: any
    int64) checks them (:func:`_checked_rows`), so a refused write touches no
    file. Then an earlier twin of ``path`` is removed, so a written CSV never
    sits beside a twin of other rows. Then ``header``, then one
    ``[id,]v0,...,v{K-1},label`` line per row, in UTF-8. Floats go through
    ``repr``, the shortest decimal that round-trips a float64 exactly. Lines
    are written one at a time, so the file's text is never held in memory
    whole.

    A write of at least ``CSV_SPLIT_CELLS`` values and two rows is split in
    two when there are two :func:`_fork_slots`. This process writes the first
    half of the rows into the file while a forked child (:func:`_forked`)
    formats the second half into an unlinked temporary file beside it, which
    is then appended. The bytes are those of a one-process write.
    """
    path = Path(path)
    bound = np.iinfo(np.int64).max if num_classes is None else num_classes  # as _csv_text's
    labels, ids = _checked_rows(path, values, labels, ids, bound)
    _twin_path(path).unlink(missing_ok=True)
    rows = len(values)
    half = rows // 2 if values.size >= CSV_SPLIT_CELLS and _fork_slots() > 1 else 0
    with open(path, "w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        if half == 0:
            _write_rows(out, values, labels, ids)
        else:
            second = (islice(labels, half, None),
                      None if ids is None else islice(ids, half, None))
            with tempfile.TemporaryFile(dir=path.parent) as spill, \
                    _forked(_write_part, spill, values[half:], *second) as wait:
                _write_rows(out, values[:half], islice(labels, half),
                            None if ids is None else islice(ids, half))
                out.flush()
                wait()
                spill.seek(0)
                shutil.copyfileobj(spill, out.buffer, 1 << 20)
    return _write_twin(path, values, labels, ids)


def _twin_path(path: Path) -> Path:
    """Where the binary twin of the CSV at ``path`` lives: ``<name>.npy``."""
    return path.with_name(path.name + ".npy")


def _sha256(path) -> bytes:
    """The SHA-256 digest of a file's bytes, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as raw:
        while block := raw.read(1 << 16):
            digest.update(block)
    return digest.digest()


def _binding(path: Path, arrays) -> bytes:
    """The digest that binds a twin's ``arrays`` to the CSV at ``path``: the
    SHA-256 of the CSV's SHA-256 digest followed, per array, by a line of its
    dtype, shape and memory order, and its bytes in C order."""
    digest = hashlib.sha256(_sha256(path))
    for array in arrays:
        order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
        digest.update(f"{array.dtype.str} {array.shape} {order}\n".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.digest()


def _write_twin(path: Path, values: np.ndarray, labels: np.ndarray, ids) -> Path | None:
    """Write the binary twin of the CSV just written at ``path`` from the
    rows written into it, as :func:`_checked_rows` returned them, and return
    the twin's path.

    The twin is one ``.npy`` file of consecutive ``np.save`` arrays: their
    :func:`_binding` to the CSV (32 uint8), the float64 values in C order,
    the int64 labels and, with ``ids``, the ids as a numpy str array. There
    is no twin (None, and nothing written) for ids holding NUL, which a str
    array cannot carry, nor for ids that a str array, which pads each to the
    longest, would hold in more than twice their total length.
    """
    arrays = [np.ascontiguousarray(values, dtype=np.float64), labels]
    if ids is not None:
        text = "".join(ids)
        if "\0" in text or max(map(len, ids)) * len(ids) > 2 * len(text):
            return None
        arrays.append(np.array(ids, dtype=str))
    twin = _twin_path(path)
    with open(twin, "wb") as out:
        np.save(out, np.frombuffer(_binding(path, arrays), np.uint8))
        for array in arrays:
            np.save(out, array)
    return twin


def _load_twin(path: Path, names: list[str], has_ids: bool, bound: int):
    """``(ids, values, labels)`` from the binary twin of the CSV at ``path``
    (:func:`_write_twin`), whose header ``names`` passed its check: what a
    parse of the CSV returns, or None.

    None when there is no twin, when its digest is not the :func:`_binding`
    of its arrays to the CSV's bytes as they are now, when it is truncated or
    unreadable, and when its arrays fail a check a parse applies: their
    dtypes, values ``(rows, width)`` in C order with the width the header
    gives, one label and id per row and at least one row, finite values, and
    labels in ``[0, bound)``. The CSV is hashed only when a twin exists.
    """
    try:  # read_array, unlike np.load, reads an .npy array and nothing else
        with _twin_path(path).open("rb") as twin:
            digest, values, labels, *ids = (np.lib.format.read_array(twin, allow_pickle=False)
                                            for _ in range(4 if has_ids else 3))
        if digest.dtype != np.uint8 or digest.tobytes() != _binding(path, [values, labels, *ids]):
            return None
    except (OSError, ValueError, MemoryError):  # MemoryError: a shape no file holds
        return None
    rows = len(labels) if labels.ndim == 1 else 0
    width = len(names) - (2 if has_ids else 1)
    if not (rows and labels.dtype == np.int64 and values.dtype == np.float64
            and values.shape == (rows, width) and values.flags.c_contiguous
            and all(i.dtype.kind == "U" and i.shape == (rows,) for i in ids)
            and labels.min() >= 0 and labels.max() < bound and np.isfinite(values).all()):
        return None
    return ids[0].tolist() if has_ids else [], values, labels


def _read_csv(path, check_header) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse the CSV format shared by datasets and logit dumps.

    The file is UTF-8 text, a leading byte-order mark skipped; other bytes
    raise :class:`DataError` naming the file. ``check_header(names)`` gets
    the split header line, raises ValueError when its format rejects it, and
    returns ``(has_ids, num_classes)``: whether the first column holds string
    row ids, and the exclusive bound on labels (None: any int64). Every other
    column but the last holds floats; the last holds an integer label. Every
    non-blank line must have as many columns as the header; ``#`` is data,
    not a comment. Blank lines are skipped. A malformed row, a non-finite
    cell or an out-of-range label raises :class:`DataError` naming the file
    and the line. Returns ``(ids, values, labels)``; ``ids`` is empty without
    an id column.

    Once the header has passed its check, a binary twin bound to the CSV's
    bytes (:func:`_load_twin`) is loaded in place of the rows. Otherwise the
    rows arrive from :func:`_csv_rows` a block at a time and are copied into
    arrays sized from the file's line breaks, so the values are held once.
    """
    path = Path(path)
    with _csv_text(path, check_header) as (lines, header):
        twin = _load_twin(path, *header)
        if twin is not None:
            return twin
        capacity = _line_breaks(path)  # the header is a line, so rows <= breaks
        ids: list[str] = []
        values = labels = None
        n = 0
        for block_ids, block_values, block_labels in _csv_rows(path, lines, *header):
            if values is None:
                values = np.empty((capacity, block_values.shape[1]))
                labels = np.empty(capacity, dtype=np.int64)
            end = n + block_labels.size
            values[n:end] = block_values
            labels[n:end] = block_labels
            ids += block_ids
            n = end
    return ids, values[:n], labels[:n]


def _line_breaks(path: Path) -> int:
    """How many line breaks text mode reads in the file: every ``\\n``,
    ``\\r\\n`` and lone ``\\r``. Neither byte occurs inside a multi-byte
    UTF-8 character."""
    breaks, last = 0, b""
    with path.open("rb") as raw:
        while chunk := raw.read(1 << 20):
            # numpy counts a byte about 4x faster than bytes.count
            breaks += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                breaks += chunk.count(b"\r") - chunk.count(b"\r\n")
            breaks -= last == b"\r" and chunk[:1] == b"\n"  # a CRLF across two chunks
            last = chunk[-1:]
    return breaks


@contextmanager
def _csv_text(path: Path, check_header):
    """Open a :func:`_read_csv` file as text and check its header line with
    ``check_header``; yields the open lines, at the first data line, and
    ``(names, has_ids, bound)``. A byte that is not UTF-8, met here or
    while the caller reads the lines, raises :class:`DataError` naming the
    file."""
    try:
        with path.open(encoding="utf-8-sig") as lines:
            first = lines.readline()
            if not first.strip():
                raise DataError(f"{path}: no header")
            names = first.rstrip("\n").split(",")
            try:
                has_ids, num_classes = check_header(names)
            except ValueError as exc:
                raise DataError(f"{path}: line 1: {exc}") from exc
            bound = np.iinfo(np.int64).max if num_classes is None else num_classes
            yield lines, (names, has_ids, bound)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _csv_blocks(path: Path, check_header):
    """Yield the rows of a :func:`_read_csv` file as ``(ids, values, labels)``
    blocks in file order, none of them empty. A binary twin is never read."""
    with _csv_text(path, check_header) as (lines, header):
        yield from _csv_rows(path, lines, *header)


def _csv_rows(path: Path, lines, names: list[str], has_ids: bool, bound: int):
    """Yield the data ``lines`` of a :func:`_read_csv` file as
    :func:`_csv_blocks` does.

    The lines are parsed ``CSV_BLOCK_LINES`` at a time.
    :func:`_parse_rows_vectorised` parses each block whose label cells are
    ASCII; a block it does not accept, or with a non-ASCII label cell (numpy
    reads some non-digit letters as digits), goes alone to :func:`_parse_rows`,
    which writes each error with the file's own line numbers.
    """
    lineno, rows = 2, 0
    while True:
        block = []
        try:
            for line in islice(lines, CSV_BLOCK_LINES):
                block.append(line)
        except UnicodeDecodeError:
            # the per-line read meets the bad byte after the lines before it,
            # as it does reading the whole file
            _parse_rows(path, block, names, has_ids, bound, lineno)
            raise
        if not block:
            break
        parsed = None
        if all(line.rpartition(",")[2].isascii() for line in block):
            parsed = _parse_rows_vectorised(block, names, has_ids, bound)
        if parsed is None:
            parsed = _parse_rows(path, block, names, has_ids, bound, lineno)
        lineno += len(block)
        if parsed[2].size:
            rows += parsed[2].size
            yield parsed
    if not rows:
        raise DataError(f"{path}: no data rows")


def _parse_rows(path: Path, lines, names: list[str], has_ids: bool, bound: int, start: int = 2):
    """Parse the data lines one at a time, the first of them line ``start`` of
    the file; the reference reading of the format. Each value and label cell
    is stripped of ``str.isspace`` padding, as ``np.loadtxt`` strips it, before
    ``float`` or ``int`` reads it. May return no rows."""
    lead = 1 if has_ids else 0
    ids, rows, labels, linenos = [], [], [], []
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(names):
            raise DataError(
                f"{path}: line {lineno}: expected {len(names)} columns, got {len(parts)}"
            )
        try:
            rows.append([float(v.strip()) for v in parts[lead:-1]])
            label = int(parts[-1].strip())
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= label < bound:
            raise DataError(f"{path}: line {lineno}: label {label} out of range [0, {bound})")
        if has_ids:
            ids.append(parts[0])
        labels.append(label)
        linenos.append(lineno)
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names) - lead - 1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: line {linenos[int(np.argmin(finite))]}: non-finite value")
    return ids, values, np.asarray(labels, dtype=np.int64)


def _parse_rows_vectorised(lines, names: list[str], has_ids: bool, bound: int):
    """Parse a block of data lines in one ``np.loadtxt`` pass, or return None.

    Returns what :func:`_parse_rows` returns for input that passes every
    check, and None for anything else, including every input it rejects.
    Given ASCII label cells, ``loadtxt`` parses a subset of what stripped cells
    give ``float`` and ``int`` (no ``1_0``, no float-valued labels) to the same
    values; it skips only empty lines, so a whitespace-only line fails here.
    """
    width = len(names) - (2 if has_ids else 1)
    fields = [("values", np.float64, (width,)), ("label", np.int64)]
    if has_ids:
        fields.insert(0, ("id", object))  # each cell as its str, untouched
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            # The dtype's field count is the column count every row must have;
            # selecting columns with usecols would let extra ones pass unseen.
            table = np.loadtxt(
                lines, dtype=np.dtype(fields), delimiter=",", comments=None, ndmin=1
            )
    except ValueError:
        return None
    if table.size == 0:
        return None
    labels = table["label"].copy()
    if labels.min() < 0 or labels.max() >= bound:
        return None
    values = table["values"].copy()
    if not np.isfinite(values).all():
        return None
    return table["id"].tolist() if has_ids else [], values, labels


def save_dataset(ds: LabeledDataset, path) -> Path | None:
    """Write ``f0,...,f{D-1},label`` CSV, a lossless float64 round-trip, and
    its binary twin; returns the twin's path, or None."""
    header = [f"f{j}" for j in range(ds.dims)] + ["label"]
    return _write_csv(path, header, ds.features, ds.labels)


def load_dataset(path, num_classes: int | None = None) -> LabeledDataset:
    """Parse a dataset CSV written by :func:`save_dataset`.

    Raises :class:`DataError` naming the offending line for malformed rows,
    inconsistent column counts, non-finite cells or labels outside
    [0, num_classes), and naming the class when one has no samples.
    """

    def check_header(names):
        if names[-1] != "label" or len(names) < 2:
            raise ValueError("expected header 'f0,...,label'")
        return False, num_classes

    _, features, labels = _read_csv(path, check_header)
    # n rows fill at most n classes, so a label >= n always leaves one empty
    c = num_classes if num_classes is not None else min(int(labels.max()), labels.size) + 1
    counts = np.bincount(labels[labels < c], minlength=c)
    if np.any(counts < 1):
        missing = int(np.argmin(counts))
        raise DataError(f"{Path(path)}: class {missing} has no samples")
    return LabeledDataset(features, labels, counts)


def save_counts(counts, path) -> None:
    """Write the counts JSON sidecar: {"counts": [n0, ...]}."""
    Path(path).write_text(
        json.dumps({"counts": [int(v) for v in np.asarray(counts)]}) + "\n"
    )


def load_counts(path) -> np.ndarray:
    """Read a counts file: {"counts": [n0, ...]}, two or more JSON integers >= 1."""
    path = Path(path)
    try:
        counts = json.loads(path.read_text())["counts"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a counts file: {exc}") from exc
    if (
        not isinstance(counts, list)
        or not all(type(v) is int and v >= 1 for v in counts)
        or sum(counts) > np.iinfo(np.int64).max  # empirical_prior sums in int64
    ):
        raise DataError(
            f"{path}: not a counts file: counts must be JSON integers >= 1 "
            f"with a total below 2**63, got {counts!r}"
        )
    if len(counts) < 2:
        raise DataError(f"{path}: counts must list >= 2 classes")
    return np.asarray(counts, dtype=np.int64)
