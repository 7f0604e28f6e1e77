import errno
import hashlib
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcal import cli, dataset
from tailcal.cli import load_logit_dump, save_logit_dump
from tailcal.dataset import (
    GaussianMixtureSpec,
    LabeledDataset,
    ShiftSpec,
    _csv_blocks,
    _parse_rows,
    _parse_rows_vectorised,
    _read_csv,
    empirical_prior,
    load_counts,
    load_dataset,
    make_longtail_counts,
    make_shifted_counts,
    sample_dataset,
    save_counts,
    save_dataset,
)
from tailcal.errors import DataError, UsageError
from tailcal.numerics import RngStream, prob_vector


def test_two_class_split_matches_documented_alternative():
    counts = make_longtail_counts(2, 9900, 99)
    assert counts.tolist() == [9900, 100]
    assert counts.sum() == 10000


def test_exponential_profile_ten_classes():
    counts = make_longtail_counts(10, 5000, 100)
    # frozen from round(5000 * 100 ** (-i / 9)) evaluated directly
    expected = [round(5000 * 100 ** (-i / 9)) for i in range(10)]
    assert counts.tolist() == expected
    assert counts.tolist() == [5000, 2997, 1797, 1077, 646, 387, 232, 139, 83, 50]
    assert counts[0] == 5000 and counts[-1] == 50
    assert np.all(np.diff(counts) <= 0)


def test_balanced_profile():
    counts = make_longtail_counts(3, 10, 1)
    assert counts.tolist() == [10, 10, 10]


def test_step_profile():
    counts = make_longtail_counts(4, 100, 10, "step")
    assert counts.tolist() == [100, 100, 10, 10]


def test_profile_rejects_zero_counts():
    with pytest.raises(UsageError, match="profile produces a zero count"):
        make_longtail_counts(2, 10, 100)


def test_imbalance_factor_roundtrip():
    counts = make_longtail_counts(5, 6000, 12)
    assert counts.max() / counts.min() == pytest.approx(12, rel=0.02)


def test_empirical_prior_examples():
    np.testing.assert_allclose(empirical_prior([196, 4]), [0.98, 0.02])
    np.testing.assert_allclose(empirical_prior([1, 1, 1, 1]), [0.25] * 4)
    np.testing.assert_allclose(empirical_prior([9900, 100]), [0.99, 0.01])
    prob_vector(empirical_prior([3, 7, 11]))


def test_empirical_prior_reconstructs_counts():
    counts = np.array([123, 456, 7])
    prior = empirical_prior(counts)
    np.testing.assert_allclose(prior * counts.sum(), counts, atol=1e-9)


def test_sample_dataset_deterministic(gmm):
    a = sample_dataset(gmm, [50, 20], RngStream(5))
    b = sample_dataset(gmm, [50, 20], RngStream(5))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def _sample_by_blocks(gmm, counts, rng):
    """sample_dataset's earlier formulation, the bit reference: one block per
    class, concatenated, then gathered through the permutation."""
    gen = rng.generator()
    blocks, labels = [], []
    for i, n_i in enumerate(counts):
        blocks.append(gmm.means[i] + gmm.sigmas[i] * gen.standard_normal((n_i, gmm.dims)))
        labels.append(np.full(n_i, i, dtype=np.int64))
    features, labels = np.concatenate(blocks, axis=0), np.concatenate(labels)
    perm = gen.permutation(features.shape[0])
    return features[perm], labels[perm]


@pytest.mark.parametrize("stream", [RngStream(17), RngStream(17).child(2)], ids=["root", "child"])
@pytest.mark.parametrize("dims", [1, 32])
def test_sample_dataset_has_the_bits_of_per_class_blocks_concatenated(stream, dims):
    gen = np.random.default_rng(dims)
    gmm = GaussianMixtureSpec(gen.normal(size=(4, dims)) * 3, [0.3, 1.0, 2.5, 7.0])
    counts = [53, 1, 200, 17]  # uneven, with a one-row class
    ds = sample_dataset(gmm, counts, stream)
    features, labels = _sample_by_blocks(gmm, counts, stream)
    assert ds.features.tobytes() == features.tobytes() and ds.features.shape == features.shape
    assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)
    assert ds.counts.tolist() == counts


def test_sample_dataset_holds_at_most_two_feature_matrices(traced_peak):
    gmm = GaussianMixtureSpec(np.eye(10, 32) * 4, np.ones(10))
    counts = [5000, 3000, 2000, 1000, 500, 300, 200, 100, 50, 1]
    sample_dataset(gmm, [1] * 10, RngStream(4))  # the first call loads code that stays
    peak = traced_peak(lambda: sample_dataset(gmm, counts, RngStream(4)))
    assert peak <= 2.3 * sum(counts) * 32 * 8


def test_sample_dataset_rejects_zero_count(gmm):
    with pytest.raises(DataError, match="every class needs >= 1 sample"):
        sample_dataset(gmm, [3, 0], RngStream(5))


def test_sample_dataset_class_means_converge(gmm):
    ds = sample_dataset(gmm, [5000, 50], RngStream(11))
    for label in (0, 1):
        n = ds.counts[label]
        bound = 3.0 * float(gmm.sigmas[label]) / np.sqrt(n)
        observed = ds.features[ds.labels == label].mean(axis=0)
        assert np.all(np.abs(observed - gmm.means[label]) < bound + 1e-12)


def test_shifted_counts_forward_two_class():
    counts = make_shifted_counts([100, 100], ShiftSpec("forward", 50))
    assert counts.tolist() == [196, 4]
    assert counts.sum() == 200


def test_shifted_counts_backward_reverses_forward():
    counts = make_shifted_counts([196, 4], ShiftSpec("backward", 49))
    assert counts.tolist() == [4, 196]


def test_shifted_counts_uniform():
    counts = make_shifted_counts([150, 50], ShiftSpec("uniform"))
    assert counts.tolist() == [100, 100]


def test_shifted_counts_sum_a_total_beyond_int64_without_wrapping():
    # the int64 sum of these base counts wraps to -2**63
    counts = make_shifted_counts([2**62, 2**62], ShiftSpec("uniform"))
    assert counts.tolist() == [2**62, 2**62]


def test_shift_spec_validation():
    with pytest.raises(UsageError, match="uniform shift requires ratio == 1"):
        ShiftSpec("uniform", 2.0)
    with pytest.raises(UsageError, match="unknown shift direction 'sideways'"):
        ShiftSpec("sideways", 2.0)
    with pytest.raises(UsageError, match="shift ratio must be >= 1"):
        ShiftSpec("forward", 0.5)
    with pytest.raises(UsageError, match="shift produces a zero count"):
        make_shifted_counts([4, 4], ShiftSpec("forward", 100))


def test_feature_mean_matches_mixture_mean(gmm):
    ds = sample_dataset(gmm, [9901, 99], RngStream(21))
    mixture_mean = 0.9901 * (-1.0) + 0.0099 * 1.0
    assert abs(ds.features.mean(axis=0)[0] - mixture_mean) < 0.05


def test_moment_diagnostic_separates_train_and_test(gmm):
    train = sample_dataset(gmm, [9901, 99], RngStream(31, 0))
    test = sample_dataset(gmm, [5000, 5000], RngStream(31, 1))
    gap = np.linalg.norm(train.features.mean(axis=0) - test.features.mean(axis=0))
    stderr = max(
        np.linalg.norm(train.features.std(axis=0)) / np.sqrt(train.n),
        np.linalg.norm(test.features.std(axis=0)) / np.sqrt(test.n),
    )
    assert gap > 5 * stderr


def test_dataset_csv_roundtrip(tmp_path, gmm):
    ds = sample_dataset(gmm, [30, 12], RngStream(8))
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path, num_classes=2)
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.counts, ds.counts)


def test_load_rejects_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n0.0,0.0,0\n1.0,1.0,2\n0.5,0.5,1\n")
    with pytest.raises(DataError, match=r"line 3: label 2 out of range \[0, 2\)"):
        load_dataset(path, num_classes=2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_rejects_nonfinite_cell_naming_its_line(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"f0,f1,label\n0.0,0.0,0\n\n1.0,{cell},1\n")
    with pytest.raises(DataError, match=r"nonfinite\.csv: line 4: non-finite"):
        load_dataset(path, num_classes=2)


@pytest.mark.parametrize("label", ["1000000000000", "100000000000000000000"])
def test_load_without_class_count_rejects_a_huge_label(tmp_path, label):
    # classes are inferred from the labels here; a huge one must not size an array
    path = tmp_path / "huge.csv"
    path.write_text(f"f0,label\n0.1,0\n0.2,{label}\n")
    with pytest.raises(DataError, match="class 1 has no samples|line 3: label .* out of range"):
        load_dataset(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="no header"):
        load_dataset(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,label\n0.0,0.0,0\n1.0,1\n")
    with pytest.raises(DataError, match="line 3: expected 3 columns, got 2"):
        load_dataset(path)


@pytest.mark.parametrize("body", ["", "\n", "\r\n \r\n"])
def test_load_rejects_a_header_without_rows(tmp_path, body):
    path = tmp_path / "norows.csv"
    path.write_bytes(b"f0,f1,label\n" + body.encode())
    with pytest.raises(DataError, match=r"norows\.csv: no data rows"):
        load_dataset(path)


def test_counts_json_roundtrip(tmp_path):
    path = tmp_path / "counts.json"
    save_counts([9901, 99], path)
    assert load_counts(path).tolist() == [9901, 99]
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(DataError, match="not a counts file"):
        load_counts(bad)


def test_read_csv_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("f0,f1,label\n0.5,0.25,1\n", encoding="utf-8-sig")
    headers = []
    _read_csv(path, lambda names: headers.append(names) or (False, None))
    assert headers == [["f0", "f1", "label"]]


def test_labeled_dataset_invariants():
    with pytest.raises(DataError, match=r"counts \[2, 0\] inconsistent with labels"):
        LabeledDataset(np.zeros((2, 2)), [0, 1], [2, 0])
    with pytest.raises(DataError, match="label 5 out of range for 2 classes"):
        LabeledDataset(np.zeros((2, 2)), [0, 5], [1, 1])


def test_mixture_spec_validation():
    with pytest.raises(DataError, match="class sigmas must be finite and positive"):
        GaussianMixtureSpec(np.zeros((2, 2)), np.array([1.0, 0.0]))


# --- the vectorised reader against the per-line reference -------------------

# Cell texts that loadtxt and float() may read differently; every one is a
# valid float64 literal.
EDGE_FLOATS = [
    "0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072e-308", "1e300", "-1e300",
    "1e-300", "-1e-300", "1.7976931348623157e+308", "+1.5", " 2.5 ", "\xa03.5\u2003",
    "1E3", ".5", "7.",
]
FAULTS = {
    "bad float": ("value", "1.0.0"),
    "float label": ("label", "1.0"),
    "huge label": ("label", str(10**20)),
    "label out of range": ("label", "{bound}"),
    "negative label": ("label", "-1"),
    "nan": ("value", "nan"),
    "whitespace-only line": ("line", " \t "),
    "hash cell": ("value", "#"),
    "hash comment": ("value", "# 1.0"),
    "underscore float": ("value", "1_0"),
    "extra column": ("value", "1.0,2.0"),
    "extra column after the label": ("append", "0"),
    "missing column": ("drop", None),
}

# Faults that only the block read meets: numpy's integer parser may read a
# non-ASCII letter as a digit ("\u01fe" as 462), so no such label may reach it.
BLOCK_FAULTS = {
    **FAULTS,
    "look-alike label": ("label", "\u01fe"),
    "digit and look-alike label": ("label", "1\u01fe"),
    "Cyrillic look-alike label": ("label", "\u04fe"),
    "padded bad float": ("value", "\x1c1.0.0\x1f"),
}
# ASCII separators, which str.isspace and np.loadtxt both read as padding
SEPARATORS = "\x1c\x1d\x1e\x1f"

float_cells = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
)
# Comma-free ids that are not plain integers; str.isspace characters other
# than the line breaks of text mode are allowed.
id_cells = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"), max_size=6
).filter(lambda s: not s.strip().isdigit())


@st.composite
def csv_tables(draw):
    """(has_ids, bound, header, data lines) of a table that every reader accepts."""
    has_ids = draw(st.booleans())
    width = draw(st.integers(2 if has_ids else 1, 4))
    bound = width if has_ids else draw(st.sampled_from([width, None]))
    labels = st.integers(0, (bound or 10**6) - 1).map(str)
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        cells = [draw(float_cells) for _ in range(width)] + [draw(labels)]
        if has_ids:
            cells.insert(0, draw(id_cells))
        lines.append(",".join(cells))
        if draw(st.booleans()):
            lines.append("")
    names = (["id"] if has_ids else []) + [f"v{j}" for j in range(width)] + ["label"]
    return has_ids, bound, ",".join(names), lines


def _write_table(path, header, lines, crlf, final_newline):
    end = "\r\n" if crlf else "\n"
    text = end.join([header, *lines]) + (end if final_newline else "")
    path.write_bytes(text.encode("utf-8"))


def _read_both(path, has_ids, bound):
    """(vectorised result or None, per-line result or DataError message)."""
    limit = np.iinfo(np.int64).max if bound is None else bound
    results = []
    for parse in (_parse_rows_vectorised, lambda *args: _parse_rows(path, *args)):
        with path.open(encoding="utf-8") as lines:
            names = lines.readline().rstrip("\n").split(",")
            try:
                results.append(parse(lines, names, has_ids, limit))
            except DataError as exc:
                results.append(str(exc))
    return results


def _check_header_for(has_ids, bound):
    return lambda names: (has_ids, bound)


def _same(a, b):
    ids_a, values_a, labels_a = a
    ids_b, values_b, labels_b = b
    return (ids_a == ids_b and values_a.tobytes() == values_b.tobytes()
            and values_a.shape == values_b.shape and labels_a.dtype == labels_b.dtype
            and labels_a.tobytes() == labels_b.tobytes())


@given(table=csv_tables(), crlf=st.booleans(), final_newline=st.booleans())
def test_vectorised_read_matches_the_per_line_read_byte_for_byte(tmp_path_factory, table,
                                                                 crlf, final_newline):
    has_ids, bound, header, lines = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    _write_table(path, header, lines, crlf, final_newline)
    fast, slow = _read_both(path, has_ids, bound)
    assert fast is not None, "a valid table fell back to the per-line read"
    assert _same(fast, slow)
    assert _same(_read_csv(path, _check_header_for(has_ids, bound)), slow)


@given(table=csv_tables(), fault=st.sampled_from(sorted(FAULTS)), data=st.data())
def test_vectorised_read_defers_every_fault_to_the_per_line_read(tmp_path_factory, table,
                                                                 fault, data):
    has_ids, bound, header, lines = table
    rows = [i for i, line in enumerate(lines) if line]
    at = data.draw(st.sampled_from(rows))
    where, text = FAULTS[fault]
    cells = lines[at].split(",")
    if where == "line":
        lines.insert(at, text)
    elif where == "drop":
        del cells[-2]
    elif where == "append":
        cells.append(text)
    elif where == "label":
        cells[-1] = text.format(bound=bound or 2**63 - 1)
    else:
        cells[data.draw(st.integers(1 if has_ids else 0, len(cells) - 2))] = text
    if where != "line":
        lines[at] = ",".join(cells)
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    _write_table(path, header, lines, data.draw(st.booleans()), True)
    fast, slow = _read_both(path, has_ids, bound)
    assert fast is None, f"the vectorised read accepted a table with a {fault}"
    try:
        whole = _read_csv(path, _check_header_for(has_ids, bound))
    except DataError as exc:
        whole = str(exc)
    if isinstance(slow, str):
        assert whole == slow
    else:  # 1_0 is a float() literal; a whitespace-only line is blank
        assert fault in ("underscore float", "whitespace-only line")
        assert _same(whole, slow)


# --- the block read against the per-line reference ---------------------------

LINE_ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


def _reference_read(path, has_ids, bound):
    """_parse_rows over the whole file: the rows, or the DataError message."""
    limit = np.iinfo(np.int64).max if bound is None else bound
    with path.open(encoding="utf-8-sig") as lines:
        names = lines.readline().rstrip("\n").split(",")
        try:
            return _parse_rows(path, lines, names, has_ids, limit)
        except DataError as exc:
            return str(exc)


def _read_in_blocks(path, has_ids, bound, block_lines):
    """(_read_csv, the concatenated _csv_blocks) at ``block_lines`` lines a
    block, each the rows or the DataError message."""
    check = _check_header_for(has_ids, bound)
    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "CSV_BLOCK_LINES", block_lines)
        for read in (_read_csv, lambda *args: list(_csv_blocks(*args))):
            try:
                results.append(read(path, check))
            except DataError as exc:
                results.append(str(exc))
    blocks = results[1]
    if not isinstance(blocks, str):
        assert all(labels.size for _, _, labels in blocks), "an empty block was yielded"
        results[1] = (
            [i for ids, _, _ in blocks for i in ids],
            np.concatenate([values for _, values, _ in blocks]),
            np.concatenate([labels for _, _, labels in blocks]),
        )
    return results


@settings(max_examples=150)
@given(table=csv_tables(), data=st.data())
def test_block_read_matches_the_per_line_read(tmp_path_factory, table, data):
    has_ids, bound, header, lines = table
    # separators padding value and label cells
    padding = st.text(st.sampled_from(SEPARATORS), max_size=2)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
        cells = lines[at].split(",")
        j = data.draw(st.integers(1 if has_ids else 0, len(cells) - 1))
        cells[j] = data.draw(padding) + cells[j] + data.draw(padding)
        lines[at] = ",".join(cells)
    # blank and whitespace-only lines anywhere, block edges included
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", " ", "\t ", "\u3000"])))
    # half the tables stay valid, so a block that falls back to the per-line
    # read after accepted ones must not repeat or drop their rows
    fault = data.draw(st.one_of(st.none(), st.sampled_from(sorted(BLOCK_FAULTS))))
    if fault is not None:  # often in a later block than the first
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        where, text = BLOCK_FAULTS[fault]
        cells = lines[at].split(",")
        if where == "line":
            lines.insert(at, text)
        elif where == "drop":
            del cells[-2]
        elif where == "append":
            cells.append(text)
        elif where == "label":
            cells[-1] = text.format(bound=bound or 2**63 - 1)
        else:
            cells[data.draw(st.integers(1 if has_ids else 0, len(cells) - 2))] = text
        if where != "line":
            lines[at] = ",".join(cells)
    end = LINE_ENDS[data.draw(st.sampled_from(sorted(LINE_ENDS)))]
    text = end.join([header, *lines]) + (end if data.draw(st.booleans()) else "")
    bom = "\ufeff" if data.draw(st.booleans()) else ""
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes((bom + text).encode("utf-8"))

    reference = _reference_read(path, has_ids, bound)
    for got in _read_in_blocks(path, has_ids, bound, data.draw(st.integers(1, 3))):
        if isinstance(reference, str):
            assert got == reference  # the same message, naming the same line
        else:  # every accepted row once, in file order
            assert _same(got, reference)


def test_a_rejected_block_falls_back_alone_and_no_non_ascii_label_reaches_numpy(
    tmp_path, monkeypatch
):
    rows = [f"{i}.5,{i % 2}" for i in range(12)]
    rows.insert(1, " ")  # whitespace-only: block 1 falls back to the per-line read
    rows[9] = "8.5,\u0661"  # an Arabic-Indic 1, which int() reads, in block 3
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(["f0,label", *rows]) + "\n", encoding="utf-8")
    blocks = []
    vectorised = dataset._parse_rows_vectorised

    def spy(lines, *args):
        blocks.append(list(lines))
        return vectorised(lines, *args)

    monkeypatch.setattr(dataset, "CSV_BLOCK_LINES", 4)
    monkeypatch.setattr(dataset, "_parse_rows_vectorised", spy)
    got = _read_csv(path, _check_header_for(False, 2))
    assert [block[0] for block in blocks] == ["0.5,0\n", "3.5,1\n", "11.5,1\n"]  # blocks 1, 2, 4
    assert all(line.rpartition(",")[2].isascii() for block in blocks for line in block)
    assert _same(got, _reference_read(path, False, 2))
    assert got[2].tolist() == [i % 2 for i in range(8)] + [1] + [i % 2 for i in range(9, 12)]


@pytest.mark.parametrize("bad_line", [True, False])
def test_a_bad_byte_in_a_block_is_met_after_the_lines_before_it(tmp_path, bad_line):
    # text mode decodes 8 KiB at a time, so the bad byte at line 250 is met
    # while the first block is read; the whole-file per-line read meets the
    # column fault at line 5 first, and so must the block read
    rows = [f"{i / 7:.40f},{i % 2}" for i in range(300)]
    if bad_line:
        rows[3] = "0.5"
    path = tmp_path / "mixed.csv"
    path.write_bytes("\n".join(["f0,label", *rows]).encode() + b"\n")
    raw = bytearray(path.read_bytes())
    raw[raw.index(rows[248].encode())] = 0xFF
    path.write_bytes(bytes(raw))
    message = r"line 5: expected 2 columns, got 1" if bad_line else r"not UTF-8 text"
    with pytest.raises(DataError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_csv_sizes_its_arrays_from_the_line_breaks(tmp_path, end):
    lines = ["f0,label", *(f"{i}.5,{i % 2}" for i in range(7))]
    path = tmp_path / "rows.csv"
    path.write_bytes(end.join(lines).encode())  # no final line break
    assert dataset._line_breaks(path) == 7
    _, values, labels = _read_csv(path, _check_header_for(False, 2))
    assert values.base.shape == (7, 1) and labels.tolist() == [0, 1] * 3 + [0]


# --- the binary twin against a parse of its CSV ------------------------------

twin_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# ids a str array holds in at most twice their length: 3 or 4 characters each
twin_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n\0"),
    min_size=3, max_size=4,
)


def _twin(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


@settings(max_examples=30)
@given(data=st.data())
def test_a_twin_loads_the_bits_a_parse_of_its_csv_returns(tmp_path_factory, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 3))
    cells = data.draw(st.lists(twin_floats, min_size=rows * cols, max_size=rows * cols))
    values = np.array(cells).reshape(rows, cols)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    ids = data.draw(st.lists(twin_ids, min_size=rows, max_size=rows))
    directory = tmp_path_factory.mktemp("twin")
    cases = (  # labels as a list in the dump: the twin holds what int() wrote
        (save_dataset, LabeledDataset(values, labels, np.bincount(labels, minlength=2)),
         lambda path: _read_csv(path, _check_header_for(False, None))),
        (lambda dump, path: save_logit_dump(ids, values, labels.tolist(), path), None,
         load_logit_dump),
    )
    for i, (save, ds, read) in enumerate(cases):
        path = directory / f"{i}.csv"
        assert save(ds, path) == _twin(path)
        parses = []
        with pytest.MonkeyPatch.context() as patch:  # a twin load parses no row
            patch.setattr(dataset, "_csv_rows", lambda *args: parses.append(args))
            loaded = read(path)
        assert parses == []
        _twin(path).unlink()
        parsed = read(path)
        assert _same(loaded, parsed) and np.array_equal(loaded[1], parsed[1])
        assert loaded[0] == (ids if i else [])


def _binding(path: Path, arrays) -> bytes:
    """The digest binding a twin's arrays to the CSV's bytes as they are now:
    the SHA-256 of the CSV's SHA-256, then per array a line of its dtype,
    shape and memory order, and its bytes in C order."""
    digest = hashlib.sha256(hashlib.sha256(path.read_bytes()).digest())
    for array in arrays:
        order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
        digest.update(f"{array.dtype.str} {array.shape} {order}\n".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


def _forge_twin(path: Path, values, labels, ids=None) -> None:
    """A twin bound to the CSV's bytes as they are now, holding the arrays given."""
    arrays = (values, labels) + (() if ids is None else (ids,))
    with _twin(path).open("wb") as out:
        np.save(out, np.frombuffer(_binding(path, arrays), np.uint8))
        for array in arrays:
            np.save(out, array)


def _twin_arrays(path: Path) -> list:
    """Every array of the twin of the CSV at ``path``, its digest first."""
    arrays = []
    with _twin(path).open("rb") as raw:
        while raw.peek(1):
            arrays.append(np.lib.format.read_array(raw))
    return arrays


def _one_byte_changed(index: int):
    """The twin's array ``index`` (1 values, 2 labels, 3 ids) with the lowest
    bit of its first byte flipped, and the digest it was written with kept."""
    def change(path, *given):
        arrays = _twin_arrays(path)
        raw = bytearray(arrays[index].tobytes())
        raw[0] ^= 1
        arrays[index] = np.frombuffer(raw, arrays[index].dtype).reshape(arrays[index].shape)
        with _twin(path).open("wb") as out:
            for array in arrays:
                np.save(out, array)
    return change


def _set_cell(path: Path, row: int, column: int, text: str) -> None:
    """Rewrite one cell of a data row of a CSV."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[column] = text
    lines[row + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _cut_twin(keep):
    """Cut the twin to its first ``keep(size)`` bytes."""
    def cut(path, *arrays):
        raw = _twin(path).read_bytes()
        _twin(path).write_bytes(raw[:keep(len(raw))])
    return cut


def _forged_fault(column, cell, fault):
    """The CSV's cell at row 1 and ``column`` set to ``cell``, and a twin that
    holds the same fault, bound to the CSV's new bytes."""
    def forge(path, values, labels, ids):
        _set_cell(path, 1, column, cell)
        values, labels = values.copy(), labels.copy()
        fault(values, labels)
        _forge_twin(path, values, labels, ids)
    return forge


# A CSV written with its twin, then changed so that the twin must be passed
# over: each read equals the read of the same CSV without a twin.
TWIN_FAULTS = {
    "csv-value-edited": lambda path, *arrays: _set_cell(path, 1, -2, "4.0"),
    "csv-fault-edited": lambda path, *arrays: _set_cell(path, 1, -2, "x"),
    "twin-cut-in-the-digest": _cut_twin(lambda size: size // 20),
    "twin-cut-in-half": _cut_twin(lambda size: size // 2),
    "twin-cut-short-by-a-byte": _cut_twin(lambda size: size - 1),
    "twin-not-npy": lambda path, *arrays: _twin(path).write_bytes(b"PK\x03\x04 not a twin"),
    "twin-of-other-bytes": lambda path, values, labels, ids: _twin(path).write_bytes(
        _twin(path).read_bytes().replace(_twin_arrays(path)[0].tobytes(), bytes(32))),
    # each passes every check a parse makes; only the binding tells them apart
    "twin-value-byte": _one_byte_changed(1),
    "twin-label-byte": _one_byte_changed(2),
    "wrong-width": lambda path, values, labels, ids: _forge_twin(path, values[:, :1], labels, ids),
    "fewer-value-rows-than-labels": lambda path, values, labels, ids: _forge_twin(
        path, values[:2], labels, ids),
    "no-rows": lambda path, values, labels, ids: (
        path.write_text(path.read_text().splitlines()[0] + "\n"),
        _forge_twin(path, values[:0], labels[:0], None if ids is None else ids[:0])),
    "fortran-order": lambda path, values, labels, ids: _forge_twin(
        path, np.asfortranarray(values), labels, ids),
    "int32-labels": lambda path, values, labels, ids: _forge_twin(
        path, values, labels.astype(np.int32), ids),
    "big-endian-values": lambda path, values, labels, ids: _forge_twin(
        path, values.astype(">f8"), labels, ids),
    "nan": _forged_fault(-2, "nan", lambda values, labels: values.__setitem__((1, -1), np.nan)),
    "label-out-of-range": _forged_fault(-1, "2", lambda values, labels: labels.__setitem__(1, 2)),
    "negative-label": _forged_fault(-1, "-1", lambda values, labels: labels.__setitem__(1, -1)),
}
DUMP_TWIN_FAULTS = {
    "ids-count": lambda path, values, labels, ids: _forge_twin(path, values, labels, ids[:2]),
    "ids-not-str": lambda path, values, labels, ids: _forge_twin(
        path, values, labels, np.arange(3)),
    "ids-missing": lambda path, values, labels, ids: _forge_twin(path, values, labels),
    "twin-id-byte": _one_byte_changed(3),
}


@pytest.mark.parametrize("fmt, fault", [
    *(("dataset", fault) for fault in TWIN_FAULTS),
    *(("dump", fault) for fault in [*TWIN_FAULTS, *DUMP_TWIN_FAULTS]),
])
def test_a_twin_that_fails_a_check_changes_no_result_and_no_error(tmp_path, fmt, fault):
    values = np.array([[0.5, -1.25], [3.0, -0.0], [5e-324, 1.7e308]])
    labels = np.array([0, 1, 1])
    ids = np.array(["a", "b", "c"]) if fmt == "dump" else None
    path = tmp_path / "t.csv"
    if fmt == "dump":
        save_logit_dump(ids.tolist(), values, labels, path)
        read = load_logit_dump
    else:
        save_dataset(LabeledDataset(values, labels, [1, 2]), path)
        read = lambda path: load_dataset(path, num_classes=2)  # noqa: E731
    {**TWIN_FAULTS, **DUMP_TWIN_FAULTS}[fault](path, values, labels, ids)
    results = []
    for _ in range(2):
        try:
            got = read(path)
            results.append(got if fmt == "dump" else ([], got.features, got.labels))
        except DataError as exc:
            results.append(str(exc))
        _twin(path).unlink(missing_ok=True)
    with_twin, parsed = results
    assert type(with_twin) is type(parsed)
    assert with_twin == parsed if isinstance(parsed, str) else _same(with_twin, parsed)


def test_a_csv_without_a_twin_is_not_hashed_by_the_reader(tmp_path, monkeypatch):
    save_logit_dump(["a", "b"], np.eye(2), [0, 1], tmp_path / "d.csv")
    hashed, sha256 = [], dataset._sha256
    monkeypatch.setattr(dataset, "_sha256", lambda path: hashed.append(path) or sha256(path))
    load_logit_dump(tmp_path / "d.csv")
    assert hashed == [tmp_path / "d.csv"]
    _twin(tmp_path / "d.csv").unlink()
    load_logit_dump(tmp_path / "d.csv")
    assert hashed == [tmp_path / "d.csv"]


@pytest.mark.parametrize("ids", [["a\0", "c", "d"], ["long", "", ""]],
                         ids=["nul", "padded-past-twice-the-length"])
def test_ids_that_a_twin_cannot_carry_get_none(tmp_path, ids):
    _twin(tmp_path / "d.csv").write_bytes(b"a stale twin")
    assert save_logit_dump(ids, np.eye(3), [0, 1, 2], tmp_path / "d.csv") is None
    assert not _twin(tmp_path / "d.csv").exists()  # removed before the CSV was written
    assert load_logit_dump(tmp_path / "d.csv")[0] == ids


def test_int32_labels_get_a_twin_that_loads_the_bits_of_a_parse(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    values = np.array([[0.5, -1.25], [3.0, -0.0], [5e-324, 1.7e308]])
    labels = np.array([0, 1, 1], np.int32)
    assert save_logit_dump(["a", "b", "c"], values, labels, path) == _twin(path)
    with monkeypatch.context() as patch:  # a twin load parses no row
        patch.setattr(dataset, "_csv_rows", None)
        loaded = load_logit_dump(path)
    _twin(path).unlink()
    parsed = load_logit_dump(path)
    assert loaded[2].dtype == np.int64 and _same(loaded, parsed)


NAN = float("nan")
DATASET_HEADER = ["f0", "f1", "f2", "label"]


@pytest.mark.parametrize("ids, values, labels, message", [
    (["a", "b"], np.eye(3), [0, 1, 0], "2 ids for 3 rows"),
    (["a", "b", "c"], np.eye(3), [0, 1], "2 labels for 3 rows"),
    ([], np.zeros((0, 3)), [], "no data rows"),
    (None, np.zeros((0, 3)), [], "no data rows"),
    (["a", "b", "c"], [[0, 0, 0], [0, NAN, 0], [0, 0, 0]], [0, 1, 0], "line 3: non-finite value"),
    (None, [[0, 0, 0], [0, 0, 0], [0, 0, -np.inf]], [0, 1, 0], "line 4: non-finite value"),
    (["a", "b", "c"], np.eye(3), [0, -1, 0], "line 3: label -1 out of range [0, 3)"),
    (["a", "b", "c"], np.eye(3), [0, 1, 3], "line 4: label 3 out of range [0, 3)"),
    (None, np.eye(3), [0, 2**63 - 1, 0],
     "line 3: label 9223372036854775807 out of range [0, 9223372036854775807)"),
    (None, np.eye(3), [0, 2**63, 0], "labels must be integers in [0, 9223372036854775807): "),
    (["a", "b", "c"], np.eye(3), [0, 1, "x"],
     "labels must be integers in [0, 3): invalid literal for int() with base 10: 'x'"),
    (["a", "b,c", "d"], np.eye(3), [0, 1, 2], "line 3: id 'b,c' holds ',', CR or LF"),
    (["a", "b", "c\r"], np.eye(3), [0, 1, 2], "line 4: id 'c\\r' holds ',', CR or LF"),
    (["a\nb", "c", "d"], np.eye(3), [0, 1, 2], "line 2: id 'a\\nb' holds ',', CR or LF"),
    (["a", "\ud800"], np.eye(2), np.array([0, 1]),
     "line 3: id '\\ud800' cannot be encoded as UTF-8"),
], ids=["ids-count", "labels-count", "no-rows-dump", "no-rows-dataset", "nan", "minus-inf",
        "label-minus-1", "label-at-logit-count", "label-int64-max", "label-beyond-int64",
        "label-not-an-integer", "id-comma", "id-carriage-return", "id-line-feed",
        "id-lone-surrogate"])
def test_rows_a_read_would_refuse_are_not_written(tmp_path, ids, values, labels, message):
    path = tmp_path / "d.csv"
    with pytest.raises(DataError) as caught:
        if ids is None:
            dataset._write_csv(path, DATASET_HEADER, np.asarray(values, float), labels)
        else:
            save_logit_dump(ids, values, labels, path)
    assert str(caught.value).startswith(f"{path}: {message}")
    assert list(tmp_path.iterdir()) == []  # neither a CSV nor a twin


def test_a_csv_rewritten_in_a_reused_out_keeps_no_old_twin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["gen-data", "--counts", "30,10", "--val-per-class", "5", "--test-per-class", "5",
            "--out", "d"]
    assert cli.main([*argv, "--seed", "1"]) == 0
    first = load_dataset("d/train.csv")

    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:  # the new train.csv is written, not its twin
        patch.setattr(dataset, "_write_twin", full_disk)
        assert cli.main([*argv, "--seed", "2"]) == 3
    assert Path("d/train.csv").exists() and not Path("d/train.csv.npy").exists()
    assert not np.array_equal(load_dataset("d/train.csv").features, first.features)


@pytest.mark.parametrize("rows, cols, slots, split_cells, with_ids, parts", [
    (dataset.CSV_SPLIT_CELLS - 1, 1, 2, None, True, 1),  # just below: one process
    (dataset.CSV_SPLIT_CELLS + 1, 1, 2, None, True, 2),  # just above: two parts
    (dataset.CSV_SPLIT_CELLS + 1, 1, 2, None, False, 2),
    (7, 3, 3, 1, True, 2),  # an odd row count; never more than two parts
    (1, 2, 8, 1, False, 1),  # more slots than rows: one process
], ids=["below", "above-ids", "above", "odd-rows", "more-slots-than-rows"])
def test_a_split_write_has_the_bytes_of_a_one_process_write(
    tmp_path, monkeypatch, forks, rows, cols, slots, split_cells, with_ids, parts
):
    gen = RngStream(61).generator()
    values = gen.normal(size=(rows, cols)) * 10.0 ** gen.integers(-300, 300, size=(rows, cols))
    values[0, 0], values[-1, -1] = -0.0, 5e-324
    labels = gen.integers(0, 5, size=rows)
    ids = [f"r-{i}-é" for i in range(rows)] if with_ids else None
    header = (["id"] if with_ids else []) + [f"v{j}" for j in range(cols)] + ["label"]
    if split_cells is not None:
        monkeypatch.setattr(dataset, "CSV_SPLIT_CELLS", split_cells)
    monkeypatch.setattr(dataset, "_fork_slots", lambda: 1)
    dataset._write_csv(tmp_path / "one.csv", header, values, labels, ids)
    monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
    dataset._write_csv(tmp_path / "split.csv", header, values, labels, ids)
    assert forks == ["_write_part"] * (parts - 1)
    for name in ("csv", "csv.npy"):  # the twins too
        assert (tmp_path / f"split.{name}").read_bytes() == (tmp_path / f"one.{name}").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.csv.npy", "split.csv", "split.csv.npy"]


def test_a_split_write_hashes_its_csv_as_it_writes_it(tmp_path, monkeypatch, forks):
    hashed, sha256 = [], dataset._sha256
    monkeypatch.setattr(dataset, "_sha256", lambda path: hashed.append(path.name) or sha256(path))
    monkeypatch.setattr(dataset, "CSV_SPLIT_CELLS", 1)
    values, labels = np.arange(14.0).reshape(7, 2) / 3, np.arange(7) % 3
    for name, slots in (("split.csv", 2), ("one.csv", 1)):
        monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
        dataset._write_csv(tmp_path / name, ["f0", "f1", "label"], values, labels)
    assert forks == ["_write_part"] and hashed == ["one.csv"]  # read back unsplit only
    for name in ("csv", "csv.npy"):
        assert (tmp_path / f"split.{name}").read_bytes() == (tmp_path / f"one.{name}").read_bytes()


def test_a_failing_part_raises_in_the_parent_as_in_one_process(tmp_path, monkeypatch, forks):
    # the disk fills once the last row, which the last part writes, is written
    values, labels, ids = np.ones((7, 2)), [0] * 7, [f"r{i}" for i in range(7)]
    write_rows = dataset._write_rows

    def filling_rows(out, values, labels, ids):
        ids = list(ids)
        write_rows(out, values, labels, ids)
        if ids[-1] == "r6":
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(dataset, "_write_rows", filling_rows)
    monkeypatch.setattr(dataset, "CSV_SPLIT_CELLS", 1)
    for slots in (1, 3):
        monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
        with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$"):
            dataset._write_csv(tmp_path / f"{slots}.csv", ["id", "f0", "f1", "label"], values,
                               labels, ids)
    assert forks == ["_write_part"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1.csv", "3.csv"]


@pytest.mark.parametrize("slots", [1, 2])
def test_forked_runs_its_function_in_a_child_only_with_two_slots(monkeypatch, forks, slots):
    monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
    with dataset._forked(os.getpid) as wait:
        assert (wait() != os.getpid()) == (slots == 2)
    with pytest.raises(DataError, match="^bad$"), dataset._forked(_raise, DataError("bad")) as wait:
        wait()


def _raise(exc):
    raise exc


def test_a_failed_fork_leaves_the_work_in_this_process(tmp_path, monkeypatch, forks):
    pipes, real_pipe = [], os.pipe

    def pipe():
        pipes.extend(real_pipe())
        return pipes[-2:]

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    values, labels = np.arange(14.0).reshape(7, 2) / 3, np.arange(7) % 3
    monkeypatch.setattr(dataset, "CSV_SPLIT_CELLS", 1)
    monkeypatch.setattr(dataset, "_fork_slots", lambda: 1)
    dataset._write_csv(tmp_path / "one.csv", ["f0", "f1", "label"], values, labels)
    monkeypatch.setattr(dataset, "_fork_slots", lambda: 2)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    dataset._write_csv(tmp_path / "split.csv", ["f0", "f1", "label"], values, labels)
    with dataset._forked(os.getpid) as wait:
        assert wait() == os.getpid()
    assert forks == ["_write_part", "getpid"] and len(pipes) == 4
    for fd in pipes:  # both ends closed again
        with pytest.raises(OSError):
            os.fstat(fd)
    for name in ("csv", "csv.npy"):  # the twins too
        assert (tmp_path / f"split.{name}").read_bytes() == (tmp_path / f"one.{name}").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.csv.npy", "split.csv", "split.csv.npy"]


def test_a_child_still_running_when_the_parent_raises_is_killed_and_reaped(forks):
    started = time.perf_counter()
    with pytest.raises(KeyError), dataset._forked(time.sleep, 60):
        raise KeyError("the parent fails first")
    assert time.perf_counter() - started < 30


def test_a_child_that_dies_raises_in_the_parent_naming_its_function(forks):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent  # never end this process
        os._exit(7)

    with pytest.raises(ChildProcessError, match=r"^die died in a forked child \(exit 7\)$"), \
            dataset._forked(die) as wait:
        wait()
    assert forks == ["die"]


def test_usable_cpus_without_an_affinity_mask_are_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert dataset._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert dataset._usable_cpus() == 1


def test_fork_slots_are_the_usable_cpus_of_a_one_thread_process(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert dataset._usable_cpus() == dataset._fork_slots() == 3
    monkeypatch.setattr(threading, "active_count", lambda: 2)  # a fork copies one thread
    assert dataset._fork_slots() == 1
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.delattr(os, "fork")
    assert dataset._fork_slots() == 1
