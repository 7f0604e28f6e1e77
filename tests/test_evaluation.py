import json
import math

import numpy as np
import pytest

from tailcal.errors import DataError, NumericError, UsageError
from tailcal.evaluation import (
    GroupThresholds,
    balanced_accuracy,
    build_report,
    confusion_matrix,
    emit_report,
    export_boundary_data,
    export_prior_bars,
    group_accuracy,
    per_class_accuracy,
    prior_mismatch,
    report_to_json,
    top1_accuracy,
)
from tailcal.model import LinearSoftmaxModel, init_mlp
from tailcal.numerics import RngStream, softmax_rows


def test_top1_trivials():
    assert top1_accuracy([1, 0, 2], [1, 0, 2]) == 1.0
    assert top1_accuracy([1, 0], [0, 1]) == 0.0
    assert top1_accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75
    with pytest.raises(DataError, match="predictions and truth must be equal-length"):
        top1_accuracy([0, 1], [0])


def test_confusion_matrix_rows_are_truth():
    confusion = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert confusion.tolist() == [[1, 0], [1, 2]]
    assert confusion.sum() == 4
    assert top1_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(
        np.trace(confusion) / confusion.sum()
    )


def test_balanced_accuracy_is_mean_of_per_class():
    confusion = np.array([[8, 2], [3, 7]])
    per_class = per_class_accuracy(confusion)
    np.testing.assert_allclose(per_class, [0.8, 0.7])
    assert balanced_accuracy(confusion) == pytest.approx(0.75)


def test_group_accuracy_buckets():
    out = group_accuracy([0.9, 0.6, 0.3], [5000, 50, 5], GroupThresholds(100, 20))
    assert out == {"many": pytest.approx(0.9), "medium": pytest.approx(0.6), "few": pytest.approx(0.3)}


def test_group_accuracy_single_bucket_matches_balanced():
    out = group_accuracy([0.4, 0.8], [5000, 4000], GroupThresholds())
    assert set(out) == {"many"}
    assert out["many"] == pytest.approx(0.6)


def test_group_accuracy_uniform_value():
    out = group_accuracy([0.7, 0.7, 0.7], [500, 50, 5], GroupThresholds())
    assert all(v == pytest.approx(0.7) for v in out.values())


def test_group_thresholds_validation():
    with pytest.raises(UsageError, match="need many_min > few_max >= 1"):
        GroupThresholds(10, 10)
    with pytest.raises(UsageError, match="need many_min > few_max >= 1"):
        GroupThresholds(100, 0)


def test_prior_mismatch_zero_for_equal():
    l1, kl = prior_mismatch([0.3, 0.7], [0.3, 0.7])
    assert l1 == 0.0 and kl == pytest.approx(0.0, abs=1e-15)


def test_prior_mismatch_hand_values():
    l1, kl = prior_mismatch([1.0, 0.0], [0.5, 0.5])
    assert l1 == pytest.approx(1.0)
    assert kl == pytest.approx(math.log(2))


def test_prior_mismatch_l1_symmetric_kl_not():
    a, t = np.array([0.2, 0.8]), np.array([0.6, 0.4])
    l1_ab, kl_ab = prior_mismatch(a, t)
    l1_ba, kl_ba = prior_mismatch(t, a)
    assert l1_ab == pytest.approx(l1_ba)
    assert kl_ab != pytest.approx(kl_ba)


def test_prior_mismatch_kl_undefined_on_a_zero_target_class():
    with pytest.raises(NumericError, match=r"KL undefined: achieved mass \[0\.5\] on zero-target"):
        prior_mismatch([0.5, 0.5], [1.0, 0.0])


def test_prior_mismatch_ranges(rng):
    for _ in range(20):
        a = rng.dirichlet(np.ones(4))
        t = rng.dirichlet(np.ones(4))
        l1, kl = prior_mismatch(a, t)
        assert 0.0 <= l1 <= 2.0
        assert kl >= -1e-15


def _tiny_report():
    pred = np.array([0, 0, 1, 1, 0, 1])
    truth = np.array([0, 0, 1, 0, 0, 1])
    posts = softmax_rows(np.where(pred[:, None] == np.arange(2), 2.0, 0.0))
    return build_report(
        pred,
        truth,
        posts,
        [0.5, 0.5],
        train_counts=[500, 10],
        provenance={"model": "m.json"},
    )


def test_report_json_roundtrip(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    written = json.loads(path.read_text())
    assert written == report_to_json(report)
    assert (written["top1"], written["balanced_accuracy"]) == (report.top1, report.balanced)
    assert written["confusion"] == report.confusion.tolist()
    assert written["achieved_prior"] == report.achieved_prior.tolist()
    assert written["group_accuracy"] == report.groups
    assert written["provenance"] == report.provenance


def test_report_csv_row_count(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    # header + per-class rows + summary block
    assert len(lines) == 1 + 2 + 4 + len(report.groups)


def test_report_table_columns(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.txt"
    emit_report(report, "table-text", path)
    text = path.read_text()
    for column in ("Many", "Medium", "Few", "All"):
        assert column in text


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(UsageError, match="unknown report format 'yaml'"):
        emit_report(_tiny_report(), "yaml", tmp_path / "x")


def test_boundary_export_coincident_for_bayes_weights(tmp_path, gmm):
    var = float(gmm.sigmas[0]) ** 2
    weights = gmm.means / var
    biases = np.log([0.5, 0.5]) - (gmm.means**2).sum(axis=1) / (2 * var)
    model = LinearSoftmaxModel(weights, biases)
    path = tmp_path / "boundary.csv"
    export_boundary_data([("model", model)], gmm, [0.5, 0.5], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,x0,x1"
    rows = [line.split(",") for line in lines[1:]]
    model_pts = [(float(r[1]), float(r[2])) for r in rows if r[0] == "model"]
    bayes_pts = [(float(r[1]), float(r[2])) for r in rows if r[0] == "bayes"]
    assert len(model_pts) == len(bayes_pts) == 41
    np.testing.assert_allclose(model_pts, bayes_pts, atol=1e-9)


def test_boundary_export_steps_along_x0_for_a_flat_line(tmp_path, gmm):
    model = LinearSoftmaxModel([[0.0, 1.0], [0.0, -1.0]], [0.5, 0.0])  # x1 = -0.25
    export_boundary_data([("m", model)], gmm, [0.5, 0.5], tmp_path / "b.csv")
    rows = [line.split(",") for line in (tmp_path / "b.csv").read_text().splitlines()]
    points = np.array([[float(x0), float(x1)] for name, x0, x1 in rows if name == "m"])
    np.testing.assert_array_equal(points[:, 0], np.linspace(-4.0, 4.0, 41))
    assert set(points[:, 1]) == {-0.25}


def test_boundary_export_rejects_bad_inputs(tmp_path, gmm):
    mlp = init_mlp(2, 2, hidden=3, activation="relu", rng=RngStream(4))
    with pytest.raises(UsageError, match="series 'm' is not a 2-class linear model"):
        export_boundary_data([("m", mlp)], gmm, [0.5, 0.5], tmp_path / "x.csv")


def test_prior_bars_export(tmp_path):
    path = tmp_path / "bars.csv"
    export_prior_bars(
        [0.9901, 0.0099], [0.9906, 0.0094], [9901, 99], path
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class,freq_prior,effective_prior,group"
    assert len(lines) == 1 + 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "many"
    assert float(first[2]) > float(first[1])
