import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcal import adjust, cli, dataset, prior
from tailcal import model as model_module
from tailcal.cli import (
    ToyConfig,
    load_logit_dump,
    load_manifest,
    main,
    save_logit_dump,
    shift_eval_rows,
    toy_workers,
)
from tailcal.dataset import load_dataset, sample_dataset
from tailcal.errors import DataError, NumericError
from tailcal.evaluation import top1_accuracy
from tailcal.model import (
    LinearSoftmaxModel,
    LossSpec,
    MlpModel,
    ModelProvenance,
    load_model,
    predict_logits,
    save_model,
)
from tailcal.numerics import RngStream, softmax_rows
from tailcal.oracle import toy_mixture


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def small_run_files(tmp_path_factory):
    """The outputs of a quick end-to-end pipeline, made once per session."""
    root = tmp_path_factory.mktemp("small_run")
    with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(
            "gen-data", "--out", "data", "--seed", "77",
            "--counts", "1960,40", "--val-per-class", "300", "--test-per-class", "500",
        ) == 0
        assert run_cli(
            "train", "--data", "data/train.csv", "--out", "stage1", "--seed", "77",
        ) == 0
    return root


@pytest.fixture()
def small_run(workdir, small_run_files):
    """A copy of the quick pipeline's outputs in the test's workdir, shared by
    several tests: every path they hold is relative, and a twin binds to its
    CSV's content, so the copy reads as the original does."""
    shutil.copytree(small_run_files, workdir, dirs_exist_ok=True)
    return workdir


def test_gen_data_rejects_degenerate_configs(workdir, capsys):
    assert run_cli("gen-data", "--out", "x", "--imbalance", "0.5") != 0
    assert "error" in capsys.readouterr().err
    assert run_cli("gen-data", "--out", "x", "--classes", "1") != 0
    assert "error" in capsys.readouterr().err
    assert run_cli("gen-data", "--out", "x", "--max-count", "10", "--imbalance", "1000") != 0
    assert "error" in capsys.readouterr().err


def test_gen_data_takes_means_that_fit_classes_and_dims_from_its_config(workdir):
    (workdir / "cfg.json").write_text(json.dumps(
        {"means": [[0, 0, 0], [2, 0, 0]], "sigmas": [1, 0.5], "dims": 3}))
    assert run_cli("gen-data", "--config", "cfg.json", "--counts", "20,10", "--val-per-class",
                   "2", "--test-per-class", "2", "--out", "d") == 0
    assert (workdir / "d" / "train.csv").read_text().startswith("f0,f1,f2,label\n")
    assert load_manifest(workdir / "d" / "manifest.json")["config"]["dims"] == 3


@pytest.mark.parametrize("argv, counts", [
    (["--profile", "step", "--max-count", "100", "--imbalance", "10"], [100, 100, 10, 10]),
    (["--profile", "explicit", "--counts", "30,20,10,5"], [30, 20, 10, 5]),
], ids=["step", "explicit"])
def test_gen_data_profile_sets_the_train_counts(workdir, argv, counts):
    assert run_cli("gen-data", "--classes", "4", *argv, "--val-per-class", "1",
                   "--test-per-class", "1", "--out", "d") == 0
    assert json.loads((workdir / "d" / "counts.json").read_text()) == {"counts": counts}
    assert load_dataset(workdir / "d" / "train.csv").counts.tolist() == counts


def test_gen_data_writes_expected_files(small_run):
    for name in ("train.csv", "val.csv", "test.csv", "counts.json", "manifest.json"):
        assert (small_run / "data" / name).exists()
    ds = load_dataset(small_run / "data" / "train.csv")
    assert ds.counts.tolist() == [1960, 40]


def test_train_stage2_requires_init(small_run, capsys):
    code = run_cli(
        "train", "--data", "data/train.csv", "--stage", "2", "--out", "nope"
    )
    assert code == 2
    assert "--init" in capsys.readouterr().err


@pytest.mark.parametrize("mode, arch, classes, dims", [
    ("FT", "linear", 2, 3), ("CL", "mlp", 2, 3), ("FT", "linear", 3, 2),
], ids=["ft-linear-dims", "cl-mlp-dims", "ft-linear-classes"])
def test_train_stage2_init_that_does_not_fit_the_data_exits_3_naming_both(
    workdir, capsys, monkeypatch, mode, arch, classes, dims
):
    counts = ",".join(["20"] * classes)
    assert run_cli("gen-data", "--out", "d", "--classes", classes, "--dims", dims, "--counts",
                   counts, "--val-per-class", "2", "--test-per-class", "2", "--seed", "1") == 0
    assert run_cli("gen-data", "--out", "d2", "--counts", "20,20", "--val-per-class", "2",
                   "--test-per-class", "2", "--seed", "1") == 0
    assert run_cli("train", "--data", "d2/train.csv", "--arch", arch, "--hidden", "3",
                   "--iterations", "2", "--out", "m", "--seed", "1") == 0
    capsys.readouterr()
    steps = []
    monkeypatch.setattr("tailcal.model.stage2_retrain", lambda *args: steps.append(args))
    code = run_cli("train", "--data", "d/train.csv", "--stage", "2", "--mode", mode,
                   "--init", "m/model.json", "--out", "x")
    assert (code, capsys.readouterr().err) == (3, (
        "error: --init m/model.json has 2 classes over 2 features, but --data d/train.csv "
        f"has {classes} classes over {dims} features\n"))
    assert steps == [] and not (workdir / "x").exists()


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_train_stage2_cl_trains_a_new_head_under_the_shifted_loss(workdir, recwarn, arch):
    assert run_cli("gen-data", "--out", "d", "--counts", "40,10", "--val-per-class", "2",
                   "--test-per-class", "2", "--seed", "1") == 0
    assert run_cli("train", "--data", "d/train.csv", "--arch", arch, "--hidden", "3",
                   "--iterations", "5", "--out", "s1", "--seed", "1") == 0
    assert run_cli("train", "--data", "d/train.csv", "--stage", "2", "--mode", "CL", "--init",
                   "s1/model.json", "--iterations", "5", "--out", "s2", "--seed", "1") == 0
    (stage1, _), (stage2, provenance) = (load_model(f"{s}/model.json") for s in ("s1", "s2"))
    assert (provenance.stage, provenance.loss.kind) == (2, "logit-adjusted")
    cl_warnings = [w for w in recwarn if "CL on a pure linear model" in str(w.message)]
    if arch == "linear":  # nothing to freeze: a new linear model trained from zero
        assert len(cl_warnings) == 1 and isinstance(stage2, LinearSoftmaxModel)
    else:
        assert cl_warnings == []
        np.testing.assert_array_equal(stage2.hidden_weights, stage1.hidden_weights)
        np.testing.assert_array_equal(stage2.hidden_biases, stage1.hidden_biases)
        assert not np.array_equal(stage2.head.weights, stage1.head.weights)


def test_train_is_deterministic(small_run):
    for out in ("repeat1", "repeat2"):
        assert run_cli(
            "train", "--data", "data/train.csv", "--out", out, "--seed", "77",
        ) == 0
    a = (small_run / "repeat1" / "model.json").read_text()
    b = (small_run / "repeat2" / "model.json").read_text()
    assert a == b


def test_train_with_its_full_batch_named_writes_the_bits_of_the_default(small_run):
    """``small_run``'s stage1 trained on the default full batch of 1960 + 40 rows."""
    assert run_cli("train", "--data", "data/train.csv", "--out", "named", "--seed", "77",
                   "--batch-size", "2000") == 0
    for name in ("model.json", "loss_trace.json"):
        named, default = (small_run / out / name for out in ("named", "stage1"))
        assert named.read_bytes() == default.read_bytes()


def test_toy_stage1_training_fits_time_budget(workdir):
    assert run_cli("gen-data", "--out", "full", "--seed", "3") == 0
    started = time.time()
    assert run_cli("train", "--data", "full/train.csv", "--out", "m", "--seed", "3") == 0
    assert time.time() - started < 60


def test_train_divergence_exit_code(small_run, capsys):
    code = run_cli(
        "train", "--data", "data/train.csv", "--out", "boom",
        "--lr", "1e300", "--iterations", "50", "--batch-size", "128",
    )
    assert code == 4


def test_estimate_prior_json_schema(small_run):
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/train.csv", "--estimator", "train", "--out", "est",
    ) == 0
    payload = json.loads((small_run / "est" / "prior.json").read_text())
    assert set(payload) == {"probs", "estimator", "samples", "alpha"}
    assert payload["estimator"] == "train-side"
    assert payload["samples"] == 2000
    loaded = prior.load_prior(small_run / "est" / "prior.json")
    assert loaded.probs.shape == (2,)


def test_estimate_prior_val_is_the_mean_raw_posterior_of_the_data(small_run):
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/val.csv", "--estimator", "val", "--out", "est_val",
    ) == 0
    est = prior.load_prior(small_run / "est_val" / "prior.json")
    model, _ = load_model(small_run / "stage1" / "model.json")
    val = load_dataset(small_run / "data" / "val.csv", num_classes=2)
    expected = softmax_rows(predict_logits(model, val.features)).mean(axis=0)
    assert est.estimator == "val-side" and est.samples == 600
    np.testing.assert_allclose(est.probs, expected / expected.sum(), rtol=1e-12)


def test_estimate_prior_balanced_symmetric_model_is_near_uniform(workdir):
    assert run_cli(
        "gen-data", "--out", "bal", "--seed", "5",
        "--counts", "5000,5000", "--val-per-class", "100", "--test-per-class", "100",
    ) == 0
    assert run_cli("train", "--data", "bal/train.csv", "--out", "balm", "--seed", "5") == 0
    assert run_cli(
        "estimate-prior", "--model", "balm/model.json",
        "--data", "bal/train.csv", "--estimator", "train", "--out", "bale",
    ) == 0
    est = prior.load_prior(workdir / "bale" / "prior.json")
    assert np.abs(est.probs - 0.5).sum() < 0.02


def test_estimate_prior_averaged_needs_train_data(small_run, capsys):
    code = run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/val.csv", "--estimator", "averaged", "--out", "x",
    )
    assert code == 2
    assert "--train-data" in capsys.readouterr().err


def test_estimate_prior_averaged_combines_routes(small_run):
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/val.csv", "--estimator", "averaged",
        "--train-data", "data/train.csv", "--out", "avg",
    ) == 0
    est = prior.load_prior(small_run / "avg" / "prior.json")
    assert est.estimator == "averaged"
    assert est.samples == 600 + 2000


def test_adjust_method_none_is_byte_identical(small_run):
    assert run_cli(
        "adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
        "--method", "none", "--out", "raw1",
    ) == 0
    assert run_cli(
        "adjust", "--logits", "raw1/adjusted_logits.csv",
        "--method", "none", "--out", "raw2",
    ) == 0
    a = (small_run / "raw1" / "adjusted_logits.csv").read_bytes()
    b = (small_run / "raw2" / "adjusted_logits.csv").read_bytes()
    assert a == b


def test_adjust_worked_example_through_files(workdir):
    # the hand-worked two-class correction reproduced via the file path
    save_logit_dump(["a"], np.array([[2.0, 1.0]]), [0], "dump.csv")
    est = prior.EffectivePrior(np.array([0.9, 0.1]), "train-side", 10)
    prior.save_prior(est, "prior.json")
    assert run_cli(
        "adjust", "--logits", "dump.csv", "--method", "p2p-ce",
        "--prior", "prior.json", "--alpha", "1.0",
        "--target-prior", "[0.5, 0.5]", "--out", "adj",
    ) == 0
    _, logits, labels = load_logit_dump(workdir / "adj" / "adjusted_logits.csv")
    np.testing.assert_allclose(logits, [[1.412214, 2.609438]], atol=1e-5)
    assert labels.tolist() == [0]


def test_adjust_class_frequency_worked_example_through_files(workdir):
    # the same correction from counts whose frequency is [0.9, 0.1]
    save_logit_dump(["a"], np.array([[2.0, 1.0]]), [0], "dump.csv")
    (workdir / "counts.json").write_text(json.dumps({"counts": [90, 10]}))
    assert run_cli(
        "adjust", "--logits", "dump.csv", "--method", "class-frequency",
        "--counts", "counts.json", "--target-prior", "[0.5, 0.5]", "--out", "adj",
    ) == 0
    _, logits, labels = load_logit_dump(workdir / "adj" / "adjusted_logits.csv")
    np.testing.assert_allclose(logits, [[1.412214, 2.609438]], atol=1e-5)
    assert labels.tolist() == [0]


def test_adjust_defaults_target_to_uniform_with_notice(small_run, capsys):
    est = prior.EffectivePrior(np.array([0.9, 0.1]), "train-side", 10)
    prior.save_prior(est, small_run / "p.json")
    save_logit_dump(["r0"], np.array([[0.5, -0.5]]), [0], small_run / "d.csv")
    assert run_cli(
        "adjust", "--logits", "d.csv", "--method", "p2p-ce",
        "--prior", "p.json", "--out", "adj2",
    ) == 0
    assert "uniform" in capsys.readouterr().err


def test_adjust_rejects_incompatible_estimator(small_run, capsys):
    est = prior.EffectivePrior(np.array([0.9, 0.1]), "train-side", 10)
    prior.save_prior(est, small_run / "train_side.json")
    save_logit_dump(["r0"], np.array([[0.5, -0.5]]), [0], small_run / "d.csv")
    code = run_cli(
        "adjust", "--logits", "d.csv", "--method", "p2p-la",
        "--prior", "train_side.json", "--out", "bad",
    )
    assert code == 2
    assert "p2p-la" in capsys.readouterr().err


def test_eval_emits_all_formats(small_run):
    assert run_cli(
        "eval", "--model", "stage1/model.json", "--data", "data/test.csv",
        "--train-counts", "data/counts.json", "--out", "rep",
    ) == 0
    report = json.loads((small_run / "rep" / "report.json").read_text())
    assert report["schema"] == 1
    assert 0.0 <= report["top1"] <= 1.0
    csv_text = (small_run / "rep" / "report.csv").read_text()
    assert csv_text.startswith("row,class,value")
    table = (small_run / "rep" / "report.txt").read_text()
    for column in ("Many", "Medium", "Few", "All"):
        assert column in table


def test_eval_leaves_a_class_absent_from_the_labels_out_of_every_mean(workdir):
    logits = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
    save_logit_dump(["a", "b", "c", "d"], logits, [0, 1, 0, 1], "d.csv")  # no label 2
    assert run_cli("eval", "--logits", "d.csv", "--out", "x") == 0
    report = json.loads((workdir / "x" / "report.json").read_text())
    assert report["per_class_accuracy"] == [0.5, 0.5, None]
    assert report["balanced_accuracy"] == 0.5
    assert report["group_accuracy"] == {"few": 0.5}


def test_eval_rejects_missing_label_column(workdir, capsys):
    (workdir / "broken.csv").write_text("id,logit_0,logit_1\nr0,0.5,0.4\n")
    code = run_cli("eval", "--logits", "broken.csv", "--out", "x")
    assert code == 3
    assert "label" in capsys.readouterr().err


def test_sweep_alpha_through_files(small_run):
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/train.csv", "--estimator", "train", "--out", "est",
    ) == 0
    assert run_cli(
        "sweep-alpha", "--prior", "est/prior.json", "--method", "p2p-ce",
        "--model", "stage1/model.json", "--data", "data/val.csv",
        "--grid", "0,0.5,1.0,1.5", "--out", "sweep",
    ) == 0
    curve_lines = (small_run / "sweep" / "alpha_curve.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "alpha,holdout_accuracy"
    assert len(curve_lines) == 5
    chosen = json.loads((small_run / "sweep" / "chosen_alpha.json").read_text())
    accs = {float(l.split(",")[0]): float(l.split(",")[1]) for l in curve_lines[1:]}
    assert chosen["alpha"] in accs
    assert accs[chosen["alpha"]] >= accs[0.0]


def test_adjust_alpha_from_sweep(small_run):
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/train.csv", "--estimator", "train", "--out", "estsw",
    ) == 0
    assert run_cli(
        "sweep-alpha", "--prior", "estsw/prior.json", "--method", "p2p-ce",
        "--model", "stage1/model.json", "--data", "data/val.csv",
        "--grid", "0,1.0", "--out", "sw",
    ) == 0
    chosen = json.loads((small_run / "sw" / "chosen_alpha.json").read_text())["alpha"]
    assert run_cli(
        "adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
        "--method", "p2p-ce", "--prior", "estsw/prior.json",
        "--alpha-from-sweep", "sw/chosen_alpha.json",
        "--target-prior", "uniform", "--out", "adjsw",
    ) == 0
    estimate = prior.load_prior(small_run / "estsw" / "prior.json")
    spec = adjust.spec_from_estimate("p2p-ce", estimate, np.array([0.5, 0.5]), chosen)
    written = json.loads((small_run / "adjsw" / "adjustment.json").read_text())
    assert written == spec.to_json()
    assert written["alpha"] == chosen
    code = run_cli(
        "adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
        "--method", "p2p-ce", "--prior", "estsw/prior.json",
        "--alpha", "1.0", "--alpha-from-sweep", "sw/chosen_alpha.json", "--out", "x",
    )
    assert code == 2


def test_sweep_alpha_rejects_empty_grid(small_run, capsys):
    est = prior.EffectivePrior(np.array([0.9, 0.1]), "train-side", 10)
    prior.save_prior(est, small_run / "p.json")
    code = run_cli(
        "sweep-alpha", "--prior", "p.json", "--model", "stage1/model.json",
        "--data", "data/val.csv", "--grid", ",", "--out", "x",
    )
    assert code == 2


def test_ingest_uniform_dump_selects_alpha_zero(workdir, capsys):
    # per-row symmetric scores: the achieved prior is uniform on any split,
    # so every alpha ties and the sweep's tie-break picks 0
    gen = RngStream(4242).generator()
    scale = gen.normal(size=400)
    logits = np.column_stack([scale, scale])
    labels = gen.integers(0, 2, size=400)
    save_logit_dump([str(i) for i in range(400)], logits, labels, "uniform_dump.csv")
    assert run_cli(
        "ingest-logits", "--logits", "uniform_dump.csv", "--seed", "4242", "--out", "ing",
    ) == 0
    report = json.loads((workdir / "ing" / "ingest_report.json").read_text())
    assert report["alpha"] == 0.0
    assert abs(report["delta"]) < 1e-12


def test_ingest_rejects_missing_label_column(workdir, capsys):
    (workdir / "nolabel.csv").write_text("id,logit_0,logit_1\nr0,0.5,0.4\n")
    code = run_cli("ingest-logits", "--logits", "nolabel.csv", "--out", "x")
    assert code == 3


@pytest.mark.parametrize("body", [
    '{"counts": [1.5, 2.7]}',  # floats, once truncated to [1, 2]
    '{"counts": [10, 0]}',  # an empty class
    '{"counts": [true, 2]}',
    '{"counts": ["90", 10]}',
    '{"counts": [4611686018427387904, 4611686018427387904]}',  # a total past int64
])
@pytest.mark.parametrize("argv", [
    ["adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
     "--method", "class-frequency", "--counts", "bad.json"],
    ["eval", "--model", "stage1/model.json", "--data", "data/test.csv",
     "--train-counts", "bad.json"],
    ["estimate-prior", "--model", "stage1/model.json", "--data", "data/train.csv",
     "--estimator", "train-reweighted", "--target-prior", "bad.json"],
])
def test_counts_file_without_integers_of_at_least_1_exits_3(small_run, capsys, body, argv):
    (small_run / "bad.json").write_text(body)
    assert run_cli(*argv, "--out", "x") == 3
    err = capsys.readouterr().err
    assert "bad.json: not a counts file: counts must be JSON integers >= 1" in err
    assert "Traceback" not in err
    assert not (small_run / "x").exists()


def test_sweep_alpha_refuses_class_frequency_before_any_input_is_read(workdir, capsys):
    (method,) = (o for o in fields(cli.SweepOptions) if o.name == "method")
    assert method.metadata["choices"] == ("p2p-ce", "p2p-la")
    with pytest.raises(SystemExit) as exc:  # argparse: no --prior file holds a count prior
        main(["sweep-alpha", "--prior", "absent.json", "--logits", "absent.csv",
              "--method", "class-frequency", "--out", "x"])
    assert exc.value.code == 2
    assert "argument --method: invalid choice: 'class-frequency'" in capsys.readouterr().err
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("argv, text, message", [
    (["train", "--data", "bad"], "", "no header"),
    (["train", "--data", "bad"], "f0,f1,label\n", "no data rows"),
    (["train", "--data", "bad"], "f0,f1,label\n0.5,0.25,0\n1.5,-0.25,2\n",
     "class 1 has no samples"),
    (["adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
      "--method", "class-frequency", "--counts", "bad", "--target-prior", "uniform"],
     "counts = [10, 5]\n",
     "not a counts file: Expecting value: line 1 column 1 (char 0)"),
], ids=["empty-data", "header-only-data", "data-without-class-1", "counts-not-json"])
def test_an_input_file_the_reader_refuses_exits_3_naming_it(small_run, capsys, argv, text,
                                                             message):
    (small_run / "bad").write_text(text)
    assert run_cli(*argv, "--out", "x") == 3
    assert capsys.readouterr().err == f"error: bad: {message}\n"
    assert not (small_run / "x").exists()


# Per CSV format: its header, one valid data row, and a command that reads it.
CSV_READERS = {
    "dataset": ("f0,f1,label", "0.5,0.25,1", ("train", "--data")),
    "dump": ("id,logit_0,logit_1,label", "r0,0.5,0.25,1", ("ingest-logits", "--logits")),
}


@pytest.mark.parametrize("fmt", sorted(CSV_READERS))
@pytest.mark.parametrize("rows_before", [0, 2000])
def test_non_utf8_csv_exits_3_naming_the_file(workdir, capsys, fmt, rows_before):
    # 2000 rows put the bad byte past the first read buffer, past the header
    header, row, command = CSV_READERS[fmt]
    text = header + "\n" + (row + "\n") * rows_before
    (workdir / "in.csv").write_bytes(text.encode() + row.replace("0.5", "\xff").encode("latin-1"))
    assert run_cli(*command, "in.csv", "--out", "x") == 3
    assert "in.csv: not UTF-8 text (invalid start byte)" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", sorted(CSV_READERS))
def test_a_leading_byte_order_mark_is_skipped(workdir, fmt):
    header, row, command = CSV_READERS[fmt]
    text = f"{header}\n{row}\n{row[:-1]}0\n"
    (workdir / "plain.csv").write_text(text, encoding="utf-8")
    (workdir / "bom.csv").write_text(text, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        assert run_cli(*command, f"{name}.csv", "--out", name) == 0
    outputs = sorted(p.name for p in (workdir / "plain").iterdir() if p.name != "manifest.json")
    assert outputs
    for name in outputs:
        assert (workdir / "bom" / name).read_bytes() == (workdir / "plain" / name).read_bytes()


@pytest.mark.parametrize("fmt", sorted(CSV_READERS))
def test_a_bad_row_after_a_byte_order_mark_is_named_by_its_line(workdir, capsys, fmt):
    header, row, command = CSV_READERS[fmt]
    text = f"{header}\n{row}\n{row.replace('0.25', 'x')}\n{row}\n"
    (workdir / "in.csv").write_text(text, encoding="utf-8-sig")
    assert run_cli(*command, "in.csv", "--out", "x") == 3
    err = capsys.readouterr().err
    assert "in.csv: line 3: could not convert string to float: 'x'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", sorted(CSV_READERS))
@pytest.mark.parametrize("change", ["extra", "missing"])
def test_row_with_a_wrong_column_count_exits_3_naming_its_line(workdir, capsys, fmt, change):
    header, row, command = CSV_READERS[fmt]
    # an extra integer after the label still parses if the columns are not counted
    bad = row + ",0" if change == "extra" else row.replace("0.25,", "")
    (workdir / "in.csv").write_text(f"{header}\n{row}\n{bad}\n{row}\n")
    assert run_cli(*command, "in.csv", "--out", "x") == 3
    columns = header.count(",") + 1
    got = columns + 1 if change == "extra" else columns - 1
    assert f"in.csv: line 3: expected {columns} columns, got {got}" in capsys.readouterr().err


def test_toy_experiment_single_trial(workdir, capsys):
    assert run_cli(
        "toy-experiment", "--trials", "1", "--samples", "2000",
        "--test-samples", "2000", "--seed", "11", "--out", "toy",
    ) == 0
    out = capsys.readouterr().out
    ce_line = next(line for line in out.splitlines() if line.split()[:1] == ["ce"])
    assert ce_line.split()[2] == "-"  # a singleton run reports no spread
    summary = json.loads((workdir / "toy" / "summary.json").read_text())
    assert summary["trials"] == 1
    csv_lines = (workdir / "toy" / "summary.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 3 + 1  # header, three variants, bayes
    boundary = (workdir / "toy" / "boundary_trial0.csv").read_text().splitlines()
    assert boundary[0] == "series,x0,x1"
    assert {line.split(",")[0] for line in boundary[1:]} == {"ce", "class-freq", "p2p", "bayes"}
    bars = (workdir / "toy" / "prior_bars_trial0.csv").read_text().splitlines()
    assert len(bars) == 3


def test_toy_experiment_worker_invariance(workdir, capsys, monkeypatch):
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 3)  # --workers 3 is not capped
    args = ["toy-experiment", "--trials", "6", "--samples", "2000",
            "--test-samples", "1000", "--seed", "9"]
    runs = {"w1": ["--workers", "1"], "w3": ["--workers", "3"], "default": []}
    stdout = {}
    for out, workers in runs.items():
        assert run_cli(*args, *workers, "--out", out) == 0
        stdout[out] = capsys.readouterr().out

    def outputs(out):
        return {
            p.name: p.read_bytes()
            for p in sorted((workdir / out).iterdir())
            if p.name != "manifest.json"
        }

    assert outputs("w1") == outputs("w3") == outputs("default")
    assert len(outputs("w1")) == 4
    assert stdout["w1"] == stdout["w3"] == stdout["default"]
    workers = {out: load_manifest(workdir / out / "manifest.json")["config"]["workers"]
               for out in runs}
    assert workers == {"w1": 1, "w3": 3, "default": toy_workers(6)}
    assert "workers" not in json.loads((workdir / "w1" / "summary.json").read_text())["config"]


@pytest.mark.parametrize("trials, expected", [(2, 2), (5, 3)])
def test_toy_workers_default_to_the_usable_cpus_at_most_one_per_trial(
    monkeypatch, trials, expected
):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert toy_workers(trials) == expected
    assert toy_workers(trials, 7) == expected  # --workers is capped alike
    assert toy_workers(trials, 1) == 1


def test_toy_experiment_caps_workers_at_the_usable_cpus(workdir, monkeypatch, forks):
    # 4 trials: a cap that did not hold would still fork no more than 3 children
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    assert run_cli("toy-experiment", "--trials", "4", "--samples", "200", "--test-samples",
                   "100", "--iterations", "5", "--workers", "500", "--out", "toy") == 0
    assert forks == ["_toy_part"]
    assert load_manifest(workdir / "toy" / "manifest.json")["config"]["workers"] == 2


def test_toy_experiment_runs_the_default_count_of_trials_at_once(monkeypatch, forks):
    """With 3 usable CPUs, 3 trials must all be in flight together: each one
    waits at a 3-party barrier, which breaks if they run fewer at a time."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    barrier = multiprocessing.Barrier(3, timeout=30)
    run_trial = cli.run_toy_trial

    def trial_at_the_barrier(cfg, trial):
        barrier.wait()
        return run_trial(cfg, trial)

    monkeypatch.setattr(cli, "run_toy_trial", trial_at_the_barrier)
    cfg = ToyConfig(trials=3, samples=200, test_samples=100, iterations=5)
    assert cli.toy_experiment(cfg)["trials"] == 3
    assert forks == ["_toy_part"] * 2


def test_toy_experiment_refuses_an_empty_tail_class_before_it_forks(workdir, capsys, forks):
    code = run_cli("toy-experiment", "--samples", "50", "--trials", "4", "--workers", "2",
                   "--out", "toy")
    assert (code, capsys.readouterr().err) == (
        2, "error: --samples 50 at --imbalance 100.0 leaves the tail class no sample\n")
    assert forks == []
    assert not (workdir / "toy").exists()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_toy_experiment_raises_the_lowest_failing_trial_for_any_worker_count(
    workdir, capsys, monkeypatch, forks, workers
):
    """Trials 1 and 2 fail in different parts; every worker count reports
    trial 1, as one process running the trials in order does."""
    run_trial = cli.run_toy_trial

    def failing_trial(cfg, trial):
        if trial in (1, 2):
            raise NumericError(f"trial {trial} diverged")
        return run_trial(cfg, trial)

    monkeypatch.setattr(cli, "run_toy_trial", failing_trial)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 3)
    code = run_cli(
        "toy-experiment", "--trials", "4", "--samples", "200", "--test-samples", "100",
        "--iterations", "5", "--workers", workers, "--out", "toy",
    )
    assert code == 4
    assert capsys.readouterr().err == "error: trial 1 diverged\n"
    assert forks == ["_toy_part"] * (int(workers) - 1)


def test_toy_experiment_keeps_the_trials_of_a_failed_fork_in_this_process(monkeypatch, forks):
    cfg = ToyConfig(trials=3, samples=200, test_samples=100, iterations=5)

    def summary(workers):
        result = cli.toy_experiment(cfg, workers)
        return json.dumps({k: v for k, v in result.items() if k != "_trial0"})

    expected = summary(1)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert summary(3) == expected
    assert forks == ["_toy_part"] * 2


def test_toy_experiment_shows_the_warnings_of_real_trials_once_for_any_worker_count(
    workdir, capsys, monkeypatch, forks
):
    """Every trial overflows in its first steps and fails: each worker count
    shows the same warnings, each once, then the error of trial 0."""

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)  # pytest records them instead
    shown = []
    for workers in ("1", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert run_cli("toy-experiment", "--trials", "3", "--lr", "1.7e308", "--samples",
                           "200", "--test-samples", "200", "--workers", workers,
                           "--out", f"toy{workers}") == 4
        shown.append(capsys.readouterr().err)
    assert shown[0] == shown[1]
    lines = shown[0].splitlines()
    warned = [line for line in lines if ": RuntimeWarning: " in line]
    assert warned and len(warned) == len(set(warned))
    assert lines[-1] == "error: non-finite loss at step 1; lower the learning rate"
    assert forks == ["_toy_part"]


WARNING_TRIALS = """
import os, sys, warnings
from tailcal import cli
from tailcal.errors import NumericError
os.sched_getaffinity = lambda pid: {0, 1}

def trial(cfg, trial):
    warnings.warn("overflow in a trial", RuntimeWarning)
    if trial >= 2:
        raise NumericError(f"trial {trial} diverged")

cli.run_toy_trial = trial
sys.exit(cli.main(["toy-experiment", "--trials", "4", "--workers", sys.argv[1], "--out", "toy"]))
"""


@pytest.mark.parametrize("script, shown", [
    (["trials.py"], 1),
    (["-W", "always::RuntimeWarning:__main__", "trials.py"], 3),
    (["-c", WARNING_TRIALS], 1),  # a file that is no module's
], ids=["default", "always-for-the-module", "no-module-file"])
def test_toy_experiment_stderr_is_that_of_one_process(tmp_path, script, shown):
    """Each trial warns from one place and trials 2 and 3, in two parts,
    fail: every worker count shows the warnings of trials 0 to 2 as the
    filters select them (once by default, each under ``always`` for the
    script's module) and trial 2's error."""
    (tmp_path / "trials.py").write_text(WARNING_TRIALS)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    stderr = set()
    for workers in ("1", "2", "3"):
        done = subprocess.run([sys.executable, *script, workers], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 4
        stderr.add(done.stderr)
    [err] = stderr
    assert err.count("RuntimeWarning: overflow in a trial") == shown
    assert err.endswith("error: trial 2 diverged\n")


def test_toy_experiment_kills_its_children_when_this_process_stops(monkeypatch, forks):
    """An exception that ends this process's own part early (here one that
    is not an Exception, like KeyboardInterrupt) kills and reaps every child."""
    parent = os.getpid()

    class Stop(BaseException):
        pass

    def stuck_trial(cfg, trial):
        if os.getpid() == parent:
            raise Stop
        time.sleep(60)

    monkeypatch.setattr(cli, "run_toy_trial", stuck_trial)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(Stop):
        cli.toy_experiment(ToyConfig(trials=3), 3)
    assert time.monotonic() - start < 30
    assert forks == ["_toy_part"] * 2


def test_shift_eval_uniform_matches_balanced_eval(small_run):
    assert run_cli(
        "shift-eval", "--model", "stage1/model.json",
        "--train-data", "data/train.csv",
        "--ratios", "5", "--trials", "2", "--test-samples", "1000",
        "--seed", "21", "--out", "shift",
    ) == 0
    lines = (small_run / "shift" / "shift_eval.csv").read_text().strip().splitlines()
    assert lines[0] == "direction,ratio,unadjusted_mean,adjusted_mean"
    rows = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
    assert ("uniform", "1.0") in rows
    assert len(rows) == 3  # uniform + forward@5 + backward@5


def test_shift_eval_rows_correct_a_logit_adjusted_model_with_p2p_la():
    # the uniform row against a p2p-la correction built by hand: the
    # train-side estimate reweighted by target/train-frequency ratios
    model = LinearSoftmaxModel(np.array([[-1.0, 0.1], [1.0, -0.1]]), np.array([0.5, -0.5]))
    freq = np.array([0.9, 0.1])
    provenance = ModelProvenance(2, LossSpec("logit-adjusted", freq, 0.5))
    estimate = prior.EffectivePrior(np.array([0.7, 0.3]), "train-side", 1000)
    rows = shift_eval_rows(
        model, provenance, np.array([900, 100]), estimate, (), (),
        test_samples=400, trials=2, master=RngStream(9), alpha=0.8,
    )
    target = np.array([0.5, 0.5])
    pmbar = estimate.probs * target / freq
    pmbar /= pmbar.sum()
    raw, la, ce = [], [], []
    for t in range(2):
        test = sample_dataset(toy_mixture(), [200, 200], RngStream(9).child(t))
        z = predict_logits(model, test.features)
        raw.append(top1_accuracy(np.argmax(z, axis=1), test.labels))
        for accs, est in ((la, pmbar), (ce, estimate.probs)):
            z_adj = z - 0.8 * np.log(est) + np.log(target)
            accs.append(top1_accuracy(np.argmax(z_adj, axis=1), test.labels))
    assert len(rows) == 1 and rows[0]["direction"] == "uniform"
    assert rows[0]["unadjusted_mean"] == np.mean(raw)
    assert rows[0]["adjusted_mean"] == np.mean(la) != np.mean(ce)


def test_manifest_replay_reproduces_outputs(workdir):
    args = ["gen-data", "--seed", "13", "--counts", "900,100",
            "--val-per-class", "50", "--test-per-class", "50"]
    assert run_cli(*args, "--out", "first") == 0
    manifest = load_manifest(workdir / "first" / "manifest.json")
    replay_argv = list(manifest["argv"])
    replay_argv[replay_argv.index("first")] = "second"
    assert main(replay_argv) == 0
    for name in ("train.csv", "val.csv", "test.csv", "counts.json"):
        assert (workdir / "first" / name).read_bytes() == (
            workdir / "second" / name
        ).read_bytes()


def test_manifest_records_inputs_and_outputs(small_run):
    manifest = load_manifest(small_run / "stage1" / "manifest.json")
    assert manifest["command"] == "train"
    assert "data/train.csv" in manifest["inputs"]
    assert len(manifest["inputs"]["data/train.csv"]) == 64
    assert any(p.endswith("model.json") for p in manifest["outputs"])
    assert manifest["config"]["seed"] == 77


def _subcommands() -> dict:
    """Each command's parser, by name."""
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions if a.dest == "command")


# One quick command line per command, and what its manifest's config holds
# beside its resolved option table: the values the command worked out itself.
MANIFEST_RUNS = {
    "gen-data": (["--counts", "20,10", "--val-per-class", "2", "--test-per-class", "2"], {}),
    "train": (["--data", "{train}", "--iterations", "2"], {}),
    "estimate-prior": (["--model", "{model}", "--data", "{train}", "--estimator",
                        "train-reweighted"], {"target_prior": [0.5, 0.5]}),
    "adjust": (["--logits", "{dump2}", "--method", "none"], {"spec": {"method": "none"}}),
    "eval": (["--logits", "{dump2}", "--groups", "50,5"], {"target_prior": [0.5, 0.5]}),
    "toy-experiment": (["--trials", "1", "--samples", "200", "--test-samples", "200",
                        "--iterations", "2"], {"workers": 1}),
    "shift-eval": (["--model", "{model}", "--train-data", "{train}", "--ratios", "2",
                    "--trials", "1", "--test-samples", "40"], {}),
    "ingest-logits": (["--logits", "{dump2}", "--grid", "0"], {"alpha": 0.0}),
    "sweep-alpha": (["--prior", "{prior}", "--logits", "{dump2}", "--method", "p2p-la",
                     "--grid", "0,2"], {}),
}


@pytest.mark.parametrize("command", MANIFEST_RUNS)
def test_a_manifest_config_is_the_resolved_option_table_and_what_the_command_worked_out(
    tiny, workdir, command
):
    files, _ = tiny
    given, derived = MANIFEST_RUNS[command]
    argv = [command, *(a.format(**files) for a in given), "--out", "run"]
    args = cli.build_parser().parse_args(argv)
    opts, _ = cli._resolve(args, args.options)
    resolved = json.loads(json.dumps(asdict(opts), default=np.ndarray.tolist))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    config = load_manifest(workdir / "run" / "manifest.json")["config"]
    assert set(config) == {f.name for f in fields(args.options)} | set(derived)
    assert config == resolved | derived


def test_each_seeded_command_lists_seed_once_in_its_help():
    commands = _subcommands()
    assert set(commands) == set(MANIFEST_RUNS)
    seeded = [name for name, parser in commands.items()
              if "seed" in {f.name for f in fields(parser.get_default("options"))}]
    assert seeded == ["gen-data", "train", "toy-experiment", "shift-eval", "ingest-logits"]
    for name, parser in commands.items():
        flags = [line.split()[0] for line in parser.format_help().splitlines()
                 if line.startswith("  --")]
        assert flags.count("--seed") == (name in seeded), name


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_manifest_inputs_are_the_named_files_as_read(small_run):
    (small_run / "cfg.json").write_text('{"counts": [90, 10], "val_per_class": 5, "test_per_class": 5}')
    prior.save_prior(prior.EffectivePrior(np.array([0.9, 0.1]), "train-side", 10), "p.json")
    (small_run / "chosen.json").write_text('{"alpha": 0.5}')
    runs = [  # (argv, the files it names)
        (["gen-data", "--config", "cfg.json", "--out", "g"], ["cfg.json"]),
        (["estimate-prior", "--model", "stage1/model.json", "--data", "data/train.csv",
          "--estimator", "train-reweighted", "--target-prior", "data/counts.json", "--out", "e"],
         ["stage1/model.json", "data/train.csv", "data/counts.json"]),
        (["adjust", "--model", "stage1/model.json", "--data", "data/test.csv", "--method",
          "p2p-ce", "--prior", "p.json", "--alpha-from-sweep", "chosen.json", "--out", "a"],
         ["stage1/model.json", "data/test.csv", "p.json", "chosen.json"]),
        # --out rewrites the very --logits file it reads
        (["adjust", "--logits", "a/adjusted_logits.csv", "--method", "p2p-ce",
          "--prior", "p.json", "--alpha", "1.0", "--out", "a"], ["a/adjusted_logits.csv", "p.json"]),
    ]
    for argv, named in runs:
        before = {path: _sha256(path) for path in named}
        assert run_cli(*argv) == 0
        out = argv[argv.index("--out") + 1]
        assert load_manifest(small_run / out / "manifest.json")["inputs"] == before, argv
    assert _sha256("a/adjusted_logits.csv") != before["a/adjusted_logits.csv"]


def test_named_but_unused_missing_file_exits_3_before_any_work(small_run, capsys):
    code = run_cli(
        "estimate-prior", "--model", "stage1/model.json", "--data", "data/train.csv",
        "--estimator", "train", "--train-data", "missing.csv", "--out", "unused",
    )
    assert code == 3
    assert "missing.csv" in capsys.readouterr().err
    assert not (small_run / "unused").exists()


def test_seeded_commands_record_the_seed_from_the_environment(small_run, monkeypatch):
    gen = RngStream(8).generator()
    save_logit_dump([str(i) for i in range(60)], gen.normal(size=(60, 2)), np.arange(60) % 2,
                    "dump.csv")
    monkeypatch.setenv("TAILCAL_SEED", "5")
    assert run_cli(
        "shift-eval", "--model", "stage1/model.json", "--train-data", "data/train.csv",
        "--ratios", "5", "--trials", "1", "--test-samples", "100", "--out", "shift",
    ) == 0
    assert run_cli("ingest-logits", "--logits", "dump.csv", "--out", "ingest") == 0
    for out in ("shift", "ingest"):
        assert load_manifest(small_run / out / "manifest.json")["config"]["seed"] == 5


def test_failed_run_in_a_reused_out_leaves_no_manifest(workdir, monkeypatch):
    argv = ["gen-data", "--counts", "90,10", "--val-per-class", "5", "--test-per-class", "5",
            "--out", "d"]
    assert run_cli(*argv) == 0
    assert sorted(p.name for p in (workdir / "d").iterdir()) == [
        "counts.json", "manifest.json", "test.csv", "test.csv.npy", "train.csv",
        "train.csv.npy", "val.csv", "val.csv.npy",
    ]

    def full_disk(counts, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(dataset, "save_counts", full_disk)
    assert run_cli(*argv) == 3
    assert (workdir / "d" / "test.csv").exists()
    assert not (workdir / "d" / "manifest.json").exists()


@pytest.mark.parametrize("command, body", [
    ("gen-data", {"classes": "abc"}),
    ("gen-data", {"imbalance": [100]}),
    ("gen-data", {"counts": [90, "x"]}),
    ("gen-data", {"means": [[0, 0], [1]]}),
    ("gen-data", {"seed": 1.5}),
    ("train", {"lr": "fast"}),
    ("train", {"iterations": True}),
    ("train", {"batch_size": "full"}),
    ("gen-data", {"counts": [90.7, 10.2]}),
])
def test_wrong_typed_config_value_exits_2_naming_the_key(small_run, capsys, command, body):
    (small_run / "bad.json").write_text(json.dumps(body))
    data = ["--data", "data/train.csv"] if command == "train" else []
    assert run_cli(command, "--config", "bad.json", *data, "--out", "x") == 2
    err = capsys.readouterr().err
    assert repr(next(iter(body))) in err
    assert "Traceback" not in err
    assert not (small_run / "x").exists()


TOO_BIG = 99999999999999999999  # above the int64 maximum, 2**63 - 1


@pytest.mark.parametrize("argv, message", [
    (["--counts", f"{TOO_BIG},1"],
     f"--counts must fit in a signed 64-bit integer, got [{TOO_BIG}, 1]"),
    (["--config", "big.json"],
     f"config big.json: key 'counts' must fit in a signed 64-bit integer, got [{TOO_BIG}, 1]"),
    (["--val-per-class", str(TOO_BIG)],
     f"--val-per-class must fit in a signed 64-bit integer, got {TOO_BIG}"),
    (["--classes", str(TOO_BIG)], f"--classes must fit in a signed 64-bit integer, got {TOO_BIG}"),
    # fits int64, but its float64 rounding, the head class count, is 2**63
    (["--max-count", str(2**63 - 1)], f"count {2**63} does not fit in a signed 64-bit integer"),
], ids=["counts", "config-counts", "val-per-class", "classes", "max-count"])
def test_gen_data_integer_beyond_int64_exits_2_naming_it(workdir, capsys, argv, message):
    (workdir / "big.json").write_text(json.dumps({"counts": [TOO_BIG, 1]}))
    assert run_cli("gen-data", *argv, "--out", "x") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "loss", "focal"),
    ("train", "arch", "cnn"),
    ("train", "stage", 3),
    ("train", "mode", "XX"),
    ("train", "activation", "sigmoid"),
    ("train", "schedule", "linear"),
    ("gen-data", "profile", "zipf"),
    ("gen-data", "shift_direction", "sideways"),
])
def test_config_value_outside_the_flag_choices_exits_2(small_run, capsys, command, key, value):
    (small_run / "bad.json").write_text(json.dumps({key: value}))
    data = ["--data", "data/train.csv"] if command == "train" else []
    assert run_cli(command, "--config", "bad.json", *data, "--out", "x") == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and repr(key) in err and repr(value) in err
    assert "Traceback" not in err
    assert not (small_run / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "data/train.csv", "--batch-size", "0"],
     "--batch-size must be >= 1, got 0"),
    (["train", "--data", "data/train.csv", "--config", "zero.json"],
     "config zero.json: key 'batch_size' must be >= 1, got 0"),
    (["toy-experiment", "--trials", "1", "--samples", "200", "--test-samples", "100",
      "--batch-size", "0"], "--batch-size must be >= 1, got 0"),
    (["shift-eval", "--model", "stage1/model.json", "--train-data", "data/train.csv",
      "--trials", "0"], "--trials"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_zero_batch_size_or_trials_exits_2(small_run, capsys, argv, message):
    (small_run / "zero.json").write_text('{"batch_size": 0}')
    try:
        code = run_cli(*argv, "--out", "x")
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (small_run / "x").exists()


def test_pipeline_files_match_in_process(small_run):
    """train -> estimate-prior -> adjust -> eval via files equals the
    in-process pipeline to 1e-12 on every reported number."""
    assert run_cli(
        "estimate-prior", "--model", "stage1/model.json",
        "--data", "data/train.csv", "--estimator", "train", "--out", "estp",
    ) == 0
    assert run_cli(
        "adjust", "--model", "stage1/model.json", "--data", "data/test.csv",
        "--method", "p2p-ce", "--prior", "estp/prior.json",
        "--target-prior", "uniform", "--alpha", "1.0", "--out", "adjp",
    ) == 0
    assert run_cli(
        "eval", "--logits", "adjp/adjusted_logits.csv",
        "--train-counts", "data/counts.json", "--out", "evp",
    ) == 0

    model, _ = load_model(small_run / "stage1" / "model.json")
    train_ds = load_dataset(small_run / "data" / "train.csv", num_classes=2)
    test_ds = load_dataset(small_run / "data" / "test.csv", num_classes=2)
    est = prior.effective_prior_train(
        softmax_rows(predict_logits(model, train_ds.features))
    )
    file_est = prior.load_prior(small_run / "estp" / "prior.json")
    np.testing.assert_allclose(file_est.probs, est.probs, atol=1e-12)

    spec = adjust.spec_from_estimate("p2p-ce", est, np.array([0.5, 0.5]), 1.0)
    in_proc_logits = adjust.adjust_logits(
        predict_logits(model, test_ds.features), spec
    )
    _, file_logits, file_labels = load_logit_dump(
        small_run / "adjp" / "adjusted_logits.csv"
    )
    np.testing.assert_allclose(file_logits, in_proc_logits, atol=1e-12)
    np.testing.assert_array_equal(file_labels, test_ds.labels)

    from tailcal.evaluation import build_report

    in_proc = build_report(
        np.argmax(in_proc_logits, axis=1),
        test_ds.labels,
        softmax_rows(in_proc_logits),
        np.array([0.5, 0.5]),
        train_counts=train_ds.counts,
    )
    file_report = json.loads((small_run / "evp" / "report.json").read_text())
    for key in ("top1", "balanced_accuracy", "prior_l1"):
        assert file_report[key] == pytest.approx(in_proc[key], abs=1e-12)
    np.testing.assert_allclose(
        file_report["achieved_prior"], in_proc["achieved_prior"], atol=1e-12
    )


def test_logit_dump_roundtrip(workdir):
    logits = np.array([[0.123456789012345678, -3.5], [2.0, 1e-9]])
    save_logit_dump(["a", "b"], logits, [0, 1], "dump.csv")
    ids, loaded, labels = load_logit_dump("dump.csv")
    assert ids == ["a", "b"]
    np.testing.assert_array_equal(loaded, logits)
    assert labels.tolist() == [0, 1]


def test_logit_dump_errors_name_the_line_after_blank_lines(workdir, capsys):
    rows = ["id,logit_0,logit_1,label", "a,0.1,0.2,0", "", "", "b,0.1,0.2,1", "",
            "c,0.1,0.2,0", "d,0.1,0.2,5"]
    (workdir / "label.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="line 8: label 5 out of range"):
        load_logit_dump("label.csv")
    rows[-1] = "d,0.1,inf,1"
    (workdir / "inf.csv").write_text("\n".join(rows) + "\n")
    assert run_cli("eval", "--logits", "inf.csv", "--out", "x") == 3
    assert "inf.csv: line 8: non-finite value" in capsys.readouterr().err


def test_a_look_alike_label_in_a_1000_class_dump_exits_3_naming_its_line(workdir, capsys):
    # numpy's integer parser may read "\u01fe" as class 462; int() rejects it
    save_logit_dump(["a", "b", "c"], np.zeros((3, 1000)), [0, 1, 2], "dump.csv")
    lines = (workdir / "dump.csv").read_text().splitlines()
    lines[2] = lines[2].rpartition(",")[0] + ",\u01fe"
    (workdir / "dump.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("eval", "--logits", "dump.csv", "--out", "x") == 3
    assert capsys.readouterr().err == (
        "error: dump.csv: line 3: invalid literal for int() with base 10: '\u01fe'\n"
    )
    assert not (workdir / "x").exists()


def test_master_seed_env_var_default(workdir, monkeypatch):
    args = ["gen-data", "--counts", "450,50", "--val-per-class", "20",
            "--test-per-class", "20"]
    monkeypatch.setenv("TAILCAL_SEED", "424242")
    assert run_cli(*args, "--out", "via_env") == 0
    monkeypatch.delenv("TAILCAL_SEED")
    assert run_cli(*args, "--seed", "424242", "--out", "via_flag") == 0
    assert (workdir / "via_env" / "train.csv").read_bytes() == (
        workdir / "via_flag" / "train.csv"
    ).read_bytes()


@pytest.mark.parametrize("value", ["abc", "", "1.5", str(2**63), str(-2**63 - 1)])
@pytest.mark.parametrize("command", ["gen-data", "shift-eval"])
def test_a_seed_from_the_environment_must_be_an_int64_integer(tiny, capsys, monkeypatch,
                                                              command, value):
    files, outs = tiny
    argv = {"gen-data": ["gen-data", "--counts", "20,10"],
            "shift-eval": ["shift-eval", "--model", str(files["model"]),
                           "--train-data", str(files["train"])]}[command]
    monkeypatch.setenv("TAILCAL_SEED", value)
    out = next(outs)
    assert run_cli(*argv, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: TAILCAL_SEED must fit in a signed 64-bit integer, got {value!r}\n"
    )
    assert not out.exists()


def test_config_file_with_flag_override(workdir):
    (workdir / "cfg.json").write_text(
        json.dumps({"counts": [450, 50], "val_per_class": 111, "test_per_class": 20})
    )
    assert run_cli(
        "gen-data", "--config", "cfg.json", "--seed", "1",
        "--val-per-class", "222", "--out", "cfgd",
    ) == 0
    manifest = load_manifest(workdir / "cfgd" / "manifest.json")
    assert manifest["config"]["val_per_class"] == 222  # flag beats config file
    assert manifest["config"]["counts"] == [450, 50]
    val = load_dataset(workdir / "cfgd" / "val.csv", num_classes=2)
    assert val.counts.tolist() == [222, 222]


@pytest.mark.parametrize("argv, family, key, value", [
    (["--schedule", "cosine"], LinearSoftmaxModel, "schedule", "cosine"),
    (["--arch", "mlp", "--hidden", "4", "--activation", "tanh"], MlpModel, "arch", "mlp"),
], ids=["cosine", "mlp"])
def test_train_options_through_main_read_back(small_run, argv, family, key, value):
    assert run_cli("train", "--data", "data/train.csv", "--out", "opt", "--seed", "77", *argv) == 0
    assert load_manifest(small_run / "opt" / "manifest.json")["config"][key] == value
    model, provenance = load_model(small_run / "opt" / "model.json")
    assert isinstance(model, family) and provenance.loss.kind == "plain-ce"
    if family is MlpModel:
        assert model.hidden_weights.shape == (4, 2) and model.activation == "tanh"
    save_model(model, small_run / "again.json", provenance)
    assert (small_run / "again.json").read_bytes() == (small_run / "opt" / "model.json").read_bytes()
    default, _ = load_model(small_run / "stage1" / "model.json")
    test = load_dataset(small_run / "data" / "test.csv", num_classes=2)
    assert not np.array_equal(
        predict_logits(model, test.features), predict_logits(default, test.features)
    )


MALFORMED_LOSSES = {
    "prior-length": {"loss_kind": "logit-adjusted", "prior": [0.2, 0.3, 0.5]},
    "null-prior": {"loss_kind": "logit-adjusted", "prior": None},
    "unknown-kind": {"loss_kind": "banana"},
    "negative-prior": {"loss_kind": "logit-adjusted", "prior": [1.5, -0.5]},
    "zero-prior-entry": {"loss_kind": "logit-adjusted", "prior": [1.0, 0.0]},
    "negative-alpha": {"alpha": -1},
}


@pytest.mark.parametrize("command", [
    ["estimate-prior", "--data", "d/train.csv", "--estimator", "train"],
    ["shift-eval", "--train-data", "d/train.csv", "--trials", "1", "--test-samples", "20",
     "--ratios", "5"],
], ids=["estimate-prior", "shift-eval"])
@pytest.mark.parametrize("case", sorted(MALFORMED_LOSSES))
def test_malformed_model_loss_exits_3_naming_the_file(workdir, capsys, command, case):
    assert run_cli("gen-data", "--counts", "20,10", "--val-per-class", "3",
                   "--test-per-class", "3", "--seed", "1", "--out", "d") == 0
    save_model(LinearSoftmaxModel(np.eye(2), np.zeros(2)), "bad.json")
    payload = json.loads((workdir / "bad.json").read_text())
    payload["provenance"].update(MALFORMED_LOSSES[case])
    (workdir / "bad.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, "--model", "bad.json", "--out", "x") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad.json: malformed model file: ")
    assert "Traceback" not in err


# per edit of a model file: the family it starts from, the edit, and the
# reason the message gives
MALFORMED_MODELS = {
    "linear-bias-count": ("linear", lambda p: p["params"].update(biases=[0.0] * 3),
                          "one bias per class required"),
    "unknown-family": ("linear", lambda p: p["arch"].update(family="tree"),
                       "unknown family 'tree'"),
    "mlp-activation": ("mlp", lambda p: p["arch"].update(activation="sigmoid"),
                       "unknown activation 'sigmoid'"),
    "mlp-hidden-bias-count": ("mlp", lambda p: p["params"].update(hidden_biases=[0.0]),
                              "one hidden bias per hidden unit required"),
    "mlp-head-width": ("mlp", lambda p: p["params"].update(head_weights=[[0.0], [0.0]]),
                       "head input width must equal hidden width"),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_a_malformed_model_file_exits_3_naming_the_file(workdir, tiny, capsys, case):
    files, _ = tiny
    family, edit, message = MALFORMED_MODELS[case]
    head = LinearSoftmaxModel(np.eye(2), np.zeros(2))
    save_model(head if family == "linear" else MlpModel(np.eye(2), np.zeros(2), "relu", head),
               "bad.json")
    payload = json.loads((workdir / "bad.json").read_text())
    edit(payload)
    (workdir / "bad.json").write_text(json.dumps(payload))
    assert run_cli("eval", "--model", "bad.json", "--data", files["train"], "--out", "x") == 3
    assert capsys.readouterr().err == f"error: bad.json: malformed model file: {message}\n"
    assert not (workdir / "x").exists()


def test_train_side_estimator_uses_provenance_shift(workdir):
    assert run_cli(
        "gen-data", "--out", "d", "--seed", "31",
        "--counts", "1960,40", "--val-per-class", "200", "--test-per-class", "200",
    ) == 0
    assert run_cli("train", "--data", "d/train.csv", "--out", "s1", "--seed", "31") == 0
    assert run_cli(
        "train", "--data", "d/train.csv", "--stage", "2", "--mode", "FT",
        "--init", "s1/model.json", "--out", "s2", "--seed", "31",
    ) == 0
    model2, prov = load_model(workdir / "s2" / "model.json")
    assert prov.stage == 2 and prov.loss.kind == "logit-adjusted"
    assert run_cli(
        "estimate-prior", "--model", "s2/model.json", "--data", "d/train.csv",
        "--estimator", "train", "--out", "e2",
    ) == 0
    est = prior.load_prior(workdir / "e2" / "prior.json")
    ds = load_dataset(workdir / "d" / "train.csv", num_classes=2)
    shifted = softmax_rows(
        predict_logits(model2, ds.features) + prov.loss.alpha * np.log(prov.loss.prior)
    )
    expected = prior.effective_prior_train(shifted)
    np.testing.assert_allclose(est.probs, expected.probs, atol=1e-12)


# ---------------------------------------------------------------------------
# every argument list ends in a documented exit code, never a traceback


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", str(root / "d"), "--seed", "3", "--counts", "60,20",
                     "--val-per-class", "5", "--test-per-class", "10"]) == 0
        assert main(["train", "--data", str(root / "d" / "train.csv"), "--out", str(root / "m"),
                     "--seed", "3", "--iterations", "10"]) == 0
    gen = RngStream(3).generator()
    for c in (2, 3):
        save_logit_dump([str(i) for i in range(30)], gen.normal(size=(30, c)),
                        np.arange(30) % c, root / f"dump{c}.csv")
    prior.save_prior(prior.EffectivePrior(np.array([0.7, 0.3]), "val-side", 10), root / "p.json")
    files = {"dump2": root / "dump2.csv", "dump3": root / "dump3.csv", "prior": root / "p.json",
             "model": root / "m" / "model.json", "train": root / "d" / "train.csv"}
    outs = (root / "out" / str(i) for i in itertools.count())
    return files, outs


# flag -> (a command line that takes it, well-formed values of the flag)
FLAG_CASES = {
    "--groups": (["eval", "--logits", "{dump3}"], ["100,20", "5,1"]),
    "--target-prior": (["eval", "--logits", "{dump3}"], ["uniform", "[0.2, 0.3, 0.5]"]),
    "--ratios": (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--trials", "1",
                  "--test-samples", "40"], ["5", "2,10"]),
    "--directions": (["shift-eval", "--model", "{model}", "--train-data", "{train}",
                      "--trials", "1", "--test-samples", "40", "--ratios", "2"],
                     ["forward", "forward,backward"]),
    "--grid": (["sweep-alpha", "--prior", "{prior}", "--logits", "{dump2}", "--method", "p2p-la"],
               ["0,1", "0.5"]),
    "--counts": (["gen-data", "--val-per-class", "2", "--test-per-class", "2"], ["30,10"]),
    "--workers": (["toy-experiment", "--trials", "2", "--samples", "200", "--test-samples", "100",
                   "--iterations", "5"], ["1", "2"]),
    "--split": (["ingest-logits", "--logits", "{dump2}"], ["0.2", "0.5"]),
    "--trials": (["shift-eval", "--model", "{model}", "--train-data", "{train}",
                  "--test-samples", "40", "--ratios", "2"], ["1", "2"]),
    "--batch-size": (["train", "--data", "{train}", "--iterations", "5"], ["16", "80"]),
    "--lr": (["train", "--data", "{train}", "--iterations", "5"], ["0.5", "5"]),
    "--alpha": (["adjust", "--logits", "{dump2}", "--method", "p2p-ce", "--prior", "{prior}"],
                ["0.5", "1"]),
}
MALFORMED = ["", ",", "x", "x,y", "5", "-1", "0", "1,2,3", "[0.5,", "[0.5,0.5]", "[]",
             "[1,-1]", "[0, 0]", "{}", "nan", "inf", "1e400", "sideways", "0.2,", "-"]
# free text only where no value can ask for a large allocation or many threads
FREE_TEXT = {"--groups", "--target-prior", "--ratios", "--directions", "--grid", "--split",
             "--alpha", "--lr"}


@settings(max_examples=200)
@given(flag=st.sampled_from(sorted(FLAG_CASES)), data=st.data())
def test_any_flag_value_exits_with_a_documented_code(tiny, flag, data):
    files, outs = tiny
    command, good = FLAG_CASES[flag]
    values = st.sampled_from(good) | st.sampled_from(MALFORMED)
    if flag in FREE_TEXT:
        values = values | st.text(alphabet="0123456789,.-[]einfx ", max_size=10)
    value = data.draw(values)
    argv = [a.format(**files) for a in command] + [flag, value, "--out", str(next(outs))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# command -> (its option table, the rest of a command line that reads --config)
CONFIG_CASES = {"gen-data": (cli.GenOptions, []), "train": (cli.TrainOptions, ["--data", "{train}"])}
# values no option takes: wrong types, bools, non-finite floats, integers
# beyond int64, and lists holding them; none is a valid large size
MALFORMED_VALUES = ["x", "", True, False, None, {}, [[0, 1], [2]], math.nan, math.inf, -math.inf,
                    2**63, -2**63 - 1, TOO_BIG, [math.nan], [TOO_BIG, 1], ["x"]]


@settings(max_examples=200)
@given(command=st.sampled_from(sorted(CONFIG_CASES)), data=st.data())
def test_any_malformed_config_value_exits_2_naming_the_key(tiny, command, data):
    files, outs = tiny
    options, rest = CONFIG_CASES[command]
    key = data.draw(st.sampled_from([o.name for o in fields(options) if o.metadata["key"]]))
    value = data.draw(st.sampled_from(MALFORMED_VALUES))
    run = next(outs)
    run.mkdir(parents=True)
    (run / "cfg.json").write_text(json.dumps({key: value}))
    argv = [command, "--config", str(run / "cfg.json"), *(a.format(**files) for a in rest),
            "--out", str(run / "x")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2, (argv, value, err.getvalue())
    assert err.getvalue().startswith(f"error: config {run / 'cfg.json'}: key {key!r} "), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not (run / "x").exists()


@pytest.mark.parametrize("command, key", [("gen-data", "learning_rate"), ("train", "learning_rate"),
                                          ("train", "data"), ("train", "init")])
def test_a_config_key_that_is_no_config_key_of_the_command_exits_2(tiny, capsys, command, key):
    files, outs = tiny
    options, rest = CONFIG_CASES[command]
    run = next(outs)
    run.mkdir(parents=True)
    (run / "cfg.json").write_text(json.dumps({"seed": 3, key: "absent.csv"}))
    # a --data that does not exist: the key is refused before any input is hashed
    argv = [command, "--config", str(run / "cfg.json"), *(a.format(train="absent.csv")
                                                          for a in rest), "--out", str(run / "x")]
    assert main(argv) == 2
    keys = ", ".join(o.name for o in fields(options) if o.metadata["key"])
    assert capsys.readouterr().err == (f"error: config {run / 'cfg.json'}: key {key!r} "
                                       f"is not one of {keys}\n")
    assert not (run / "x").exists()


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_a_config_file_that_is_not_json_exits_2_naming_it(tiny, capsys, command):
    files, outs = tiny
    run = next(outs)
    run.mkdir(parents=True)
    (run / "cfg.json").write_text("classes = 3\n")
    rest = [a.format(**files) for a in CONFIG_CASES[command][1]]
    assert main([command, "--config", str(run / "cfg.json"), *rest, "--out", str(run / "x")]) == 2
    assert capsys.readouterr().err == (f"error: cannot read config {run / 'cfg.json'}: "
                                       "Expecting value: line 1 column 1 (char 0)\n")
    assert not (run / "x").exists()


@pytest.mark.parametrize("classes, dims", [(3, 2), (10, 32)])
def test_default_means_of_more_than_two_classes_lie_on_a_circle_of_radius_2(classes, dims):
    means = cli._default_means(classes, dims)
    assert means.shape == (classes, dims)
    np.testing.assert_allclose(np.hypot(means[:, 0], means[:, 1]), 2.0, rtol=1e-15)
    assert not means[:, 2:].any()
    assert len({tuple(np.round(m, 12)) for m in means}) == classes


def test_a_run_without_out_writes_runs_stamp_digest(workdir):
    argv = ["gen-data", "--counts", "30,10", "--val-per-class", "2", "--test-per-class", "2",
            "--seed", "1"]
    assert main(argv) == 0
    (run,) = (workdir / "runs").iterdir()
    stamp, digest = run.name.rsplit("-", 1)
    assert digest == hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:8]
    time.strptime(stamp, "%Y%m%d-%H%M%S")
    assert load_manifest(run / "manifest.json")["argv"] == argv


def test_a_default_beside_a_config_file_is_named_by_its_flag(workdir):
    (workdir / "cfg.json").write_text(json.dumps({"classes": 3}))
    args = cli.build_parser().parse_args(["gen-data", "--config", "cfg.json", "--max-count", "50"])
    opts, names = cli._resolve(args, cli.GenOptions)
    assert (opts.classes, opts.dims, opts.max_count) == (3, 2, 50)
    assert names["classes"] == "config cfg.json: key 'classes'"
    assert names["dims"] == "--dims" and names["max_count"] == "--max-count"


# --- memory and size bounds -------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["--counts", f"{2**63 - 1},1"],
     f"--counts: the train split of {2**63} rows of 2 features is too big to allocate"),
    (["--test-per-class", str(2**62)],
     f"--test-per-class: the test split of {2**63} rows of 2 features is too big to allocate"),
    (["--config", "big.json"],
     f"config big.json: key 'test_per_class': the test split of {2**63} rows of 2 features "
     "is too big to allocate"),
    (["--dims", str(2**62)], f"--dims: a mixture of 2 classes in {2**62} dims is too big to allocate"),
    (["--classes", str(2**62)],
     f"--classes: a mixture of {2**62} classes in 2 dims is too big to allocate"),
], ids=["counts", "test-per-class", "config-test-per-class", "mixture-dims", "mixture-classes"])
def test_gen_data_split_numpy_cannot_allocate_exits_2_naming_it(workdir, capsys, argv, message):
    # numpy refuses these arrays before allocating; none is attempted
    (workdir / "big.json").write_text(json.dumps({"test_per_class": 2**62}))
    assert run_cli("gen-data", *argv, "--out", "x") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "x").exists()


def test_gen_data_memory_error_at_the_mixture_exits_2_naming_the_key(workdir, capsys, monkeypatch):
    def short_of_memory(classes, dims):
        raise MemoryError

    monkeypatch.setattr(cli, "_default_means", short_of_memory)
    (workdir / "cfg.json").write_text(json.dumps({"classes": 3}))
    assert run_cli("gen-data", "--config", "cfg.json", "--out", "x") == 2
    assert capsys.readouterr().err == (
        "error: config cfg.json: key 'classes': a mixture of 3 classes in 2 dims "
        "is too big to allocate\n"
    )


def test_gen_data_memory_error_at_sampling_exits_2_naming_the_flag(workdir, capsys, monkeypatch):
    sample = dataset.sample_dataset

    def short_of_memory(gmm, counts, rng):
        if counts.sum() == 6:  # the val split
            raise MemoryError
        return sample(gmm, counts, rng)

    monkeypatch.setattr(dataset, "sample_dataset", short_of_memory)
    code = run_cli("gen-data", "--counts", "20,10", "--val-per-class", "3", "--out", "x")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --val-per-class: the val split of 6 rows of 2 features is too big to allocate\n"
    )


@pytest.mark.parametrize("argv, body, message", [
    (["gen-data", "--dims", "0"], None, "--dims must be >= 1, got 0"),
    (["gen-data", "--classes", "1"], None, "--classes must be >= 2, got 1"),
    (["gen-data", "--config", "cfg.json"], {"classes": 1},
     "config cfg.json: key 'classes' must be >= 2, got 1"),
    (["gen-data", "--config", "cfg.json"], {"imbalance": math.nan},
     "config cfg.json: key 'imbalance' must be finite, got nan"),
    (["train", "--data", "{train}", "--config", "cfg.json"], {"lr": math.inf},
     "config cfg.json: key 'lr' must be finite, got inf"),
    (["train", "--data", "{train}", "--arch", "mlp", "--hidden", str(TOO_BIG)], None,
     f"--hidden must fit in a signed 64-bit integer, got {TOO_BIG}"),
    (["train", "--data", "{train}", "--arch", "mlp", "--hidden", "0"], None,
     "--hidden must be >= 1, got 0"),
    (["train", "--data", "{train}", "--arch", "mlp", "--config", "cfg.json"], {"hidden": -3},
     "config cfg.json: key 'hidden' must be >= 1, got -3"),
    (["toy-experiment", "--imbalance", "nan"], None, "--imbalance must be finite, got nan"),
    (["toy-experiment", "--samples", str(TOO_BIG)], None,
     f"--samples must fit in a signed 64-bit integer, got {TOO_BIG}"),
    (["toy-experiment", "--trials", "1", "--imbalance", "-1"], None,
     "--imbalance must be >= 1, got -1.0"),
    (["toy-experiment", "--trials", "1", "--imbalance", "-0.5"], None,
     "--imbalance must be >= 1, got -0.5"),
    (["toy-experiment", "--samples", str(2**63 - 1)], None,
     f"--samples: the train split of {2**63 - 1} rows of 2 features is too big to allocate"),
    (["toy-experiment", "--test-samples", str(2**63 - 1)], None,
     f"--test-samples: the test split of {2**63 - 1} rows of 2 features is too big to allocate"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--test-samples",
      str(2**63 - 1)], None,
     f"--test-samples: the test split of {2**63 - 1} rows of 2 features is too big to allocate"),
    (["train", "--data", "{train}", "--arch", "mlp", "--hidden", str(2**62)], None,
     f"--hidden: a hidden layer of {2**62} units on 80 rows of 2 features "
     "is too big to allocate"),
    (["train", "--data", "{train}", "--arch", "mlp", "--config", "cfg.json"], {"hidden": 2**60},
     f"config cfg.json: key 'hidden': a hidden layer of {2**60} units on 80 rows of 2 features "
     "is too big to allocate"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--seed", str(TOO_BIG)], None,
     f"--seed must fit in a signed 64-bit integer, got {TOO_BIG}"),
    (["ingest-logits", "--logits", "{dump2}", "--seed", str(-2**63 - 1)], None,
     f"--seed must fit in a signed 64-bit integer, got {-2**63 - 1}"),
    (["toy-experiment", "--seed", str(2**63)], None,
     f"--seed must fit in a signed 64-bit integer, got {2**63}"),
    (["gen-data", "--max-count", "0"], None, "--max-count must be >= 1, got 0"),
    (["gen-data", "--imbalance", "0.5"], None, "--imbalance must be >= 1, got 0.5"),
    (["gen-data", "--counts", "5,0"], None, "--counts must be >= 1, got [5, 0]"),
    (["gen-data", "--val-per-class", "0"], None, "--val-per-class must be >= 1, got 0"),
    (["gen-data", "--test-per-class", "0"], None, "--test-per-class must be >= 1, got 0"),
    (["gen-data", "--shift-ratio", "0.5"], None, "--shift-ratio must be >= 1, got 0.5"),
    (["gen-data", "--config", "cfg.json"], {"counts": [5, 0]},
     "config cfg.json: key 'counts' must be >= 1, got [5, 0]"),
    (["train", "--data", "{train}", "--alpha", "-1"], None, "--alpha must be >= 0, got -1.0"),
    (["train", "--data", "{train}", "--iterations", "-1"], None,
     "--iterations must be >= 0, got -1"),
    (["train", "--data", "{train}", "--batch-size", "0"], None,
     "--batch-size must be >= 1, got 0"),
    (["train", "--data", "{train}", "--hidden", "0"], None, "--hidden must be >= 1, got 0"),
    (["train", "--data", "{train}", "--config", "cfg.json"], {"iterations": -1},
     "config cfg.json: key 'iterations' must be >= 0, got -1"),
    (["toy-experiment", "--trials", "0"], None, "--trials must be >= 1, got 0"),
    (["toy-experiment", "--samples", "1"], None, "--samples must be >= 2, got 1"),
    (["toy-experiment", "--test-samples", "1"], None, "--test-samples must be >= 2, got 1"),
    (["toy-experiment", "--alpha", "-1"], None, "--alpha must be >= 0, got -1.0"),
    (["toy-experiment", "--iterations", "-1"], None, "--iterations must be >= 1, got -1"),
    (["toy-experiment", "--batch-size", "0"], None, "--batch-size must be >= 1, got 0"),
    (["toy-experiment", "--trials", "1", "--samples", "50", "--imbalance", "100"], None,
     "--samples 50 at --imbalance 100.0 leaves the tail class no sample"),
    (["gen-data", "--shift-direction", "uniform", "--shift-ratio", "2"], None,
     "--shift-ratio must be 1 with --shift-direction uniform, got 2.0"),
    (["gen-data", "--classes", "3", "--dims", "1"], None,
     "--dims must be >= 2 for the default means of 3 classes, got 1"),
    (["gen-data", "--config", "cfg.json"], {"classes": 3, "dims": 1},
     "config cfg.json: key 'dims' must be >= 2 for the default means of 3 classes, got 1"),
    (["gen-data", "--config", "cfg.json"], [1, 2], "config cfg.json must hold a JSON object"),
    # files that do not exist: the check runs before any input is hashed or read
    (["shift-eval", "--model", "absent.json", "--train-data", "absent.csv", "--directions",
      "forward,uniform"], None,
     "--ratios must be 1 with --directions uniform, got [5.0, 10.0, 50.0]"),
    (["train", "--data", "{train}", "--lr", "0"], None, "--lr must be > 0, got 0.0"),
    (["train", "--data", "{train}", "--lr", "-1"], None, "--lr must be > 0, got -1.0"),
    (["train", "--data", "{train}", "--config", "cfg.json"], {"lr": 0},
     "config cfg.json: key 'lr' must be > 0, got 0"),
    (["toy-experiment", "--lr", "0"], None, "--lr must be > 0, got 0.0"),
    (["train", "--data", "{train}", "--batch-size", "999999"], None,
     "--batch-size 999999 exceeds the 80 rows of --data {train}"),
    (["toy-experiment", "--samples", "100", "--batch-size", "500"], None,
     "--batch-size 500 exceeds --samples 100"),
    (["gen-data", "--counts", "5,6,7"], None, "--counts lists 3 counts, but --classes is 2"),
    (["gen-data", "--config", "cfg.json"], {"counts": [5, 6, 7]},
     "config cfg.json: key 'counts' lists 3 counts, but --classes is 2"),
    (["toy-experiment", "--workers", "abc"], None, "argument --workers: invalid int value: 'abc'"),
    (["toy-experiment", "--workers", "0"], None, "--workers must be >= 1, got 0"),
    (["ingest-logits", "--logits", "{dump2}", "--train-logits", "{dump2}", "--split", "1.5"],
     None, "--split must be < 1, got 1.5"),
    (["ingest-logits", "--logits", "{dump2}", "--train-logits", "{dump2}", "--split", "nan"],
     None, "--split must be finite, got nan"),
    (["ingest-logits", "--logits", "{dump2}", "--split", "0"], None, "--split must be > 0, got 0.0"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--ratios", "5,0.5"], None,
     "--ratios must be >= 1, got [5.0, 0.5]"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--ratios", "0.2"], None,
     "--ratios must be >= 1, got [0.2]"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--ratios", ","], None,
     "--ratios must not be empty, got []"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--directions",
      "forward,sideways"], None,
     "--directions must be one of forward, backward, uniform, got ['forward', 'sideways']"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--directions", ","], None,
     "--directions must not be empty, got []"),
    (["adjust", "--model", "{model}", "--data", "{train}", "--method", "p2p-ce", "--prior",
      "{prior}", "--alpha", "-1"], None, "--alpha must be >= 0, got -1.0"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--alpha", "-1"], None,
     "--alpha must be >= 0, got -1.0"),
    (["sweep-alpha", "--prior", "{prior}", "--logits", "{dump2}", "--grid=-1,0"], None,
     "--grid must be >= 0, got [-1.0, 0.0]"),
    (["ingest-logits", "--logits", "{dump2}", "--grid=-1"], None, "--grid must be >= 0, got [-1.0]"),
    (["sweep-alpha", "--prior", "{prior}", "--logits", "{dump2}", "--grid", ","], None,
     "--grid must not be empty, got []"),
    (["ingest-logits", "--logits", "{dump2}", "--grid", ","], None,
     "--grid must not be empty, got []"),
    (["eval", "--logits", "{dump2}", "--target-prior", "[0.5, -1]"], None,
     "argument --target-prior: not a probability list: '[0.5, -1]': "
     "negative probability entry: min=-1.0"),
    (["toy-experiment", "--iterations", "0"], None, "--iterations must be >= 1, got 0"),
    (["gen-data", "--config", "cfg.json"], {"means": [[0, 0]]},
     "config cfg.json: key 'means' has shape (1, 2), but --classes is 2 and --dims is 2"),
    (["gen-data", "--config", "cfg.json"], {"classes": 3, "means": [[0, 0], [1, 0]]},
     "config cfg.json: key 'means' has shape (2, 2), but config cfg.json: key 'classes' is 3 "
     "and --dims is 2"),
    (["gen-data", "--config", "cfg.json"], {"means": [[0, 0], [1, 0]], "dims": 3},
     "config cfg.json: key 'means' has shape (2, 2), but --classes is 2 and config cfg.json: "
     "key 'dims' is 3"),
    (["gen-data", "--config", "cfg.json"], {"means": [[0, 0, 0], [1, 0, 0]]},
     "config cfg.json: key 'means' has shape (2, 3), but --classes is 2 and --dims is 2"),
    (["gen-data", "--config", "cfg.json"], {"sigmas": [1, 1, 1]},
     "config cfg.json: key 'sigmas' has shape (3,), but --classes is 2"),
    (["gen-data", "--config", "cfg.json"], {"sigmas": [1, -1]},
     "config cfg.json: key 'sigmas' must be > 0, got [1, -1]"),
    (["gen-data", "--config", "cfg.json"], {"sigmas": [1, 0]},
     "config cfg.json: key 'sigmas' must be > 0, got [1, 0]"),
    (["eval", "--logits", "{dump2}", "--groups", "5,10"], None,
     "argument --groups: expected many_min,few_max, got '5,10': "
     "need many_min > few_max >= 1, got (5, 10)"),
    *[([*command, f"--alpha={value}"], None, message)
      for command in (["adjust", "--logits", "{dump2}", "--method", "p2p-ce", "--prior", "{prior}"],
                      ["shift-eval", "--model", "{model}", "--train-data", "{train}"])
      for value, message in (("nan", "--alpha must be finite, got nan"),
                             ("inf", "--alpha must be finite, got inf"),
                             ("-inf", "--alpha must be finite, got -inf"),
                             ("x", "argument --alpha: invalid float value: 'x'"))],
    *[(["shift-eval", "--model", "{model}", "--train-data", "{train}", "--test-samples", value],
       None, message)
      for value, message in (("0", "--test-samples must be >= 1, got 0"),
                             ("-5", "--test-samples must be >= 1, got -5"),
                             (str(TOO_BIG), "--test-samples must fit in a signed 64-bit integer, "
                                            f"got {TOO_BIG}"),
                             ("abc", "argument --test-samples: invalid int value: 'abc'"))],
], ids=["gen-dims-0", "gen-classes-1", "gen-config-classes-1", "gen-config-imbalance-nan",
        "train-config-lr-inf", "train-hidden", "train-hidden-0", "train-config-hidden-minus-3",
        "toy-imbalance-nan", "toy-samples",
        "toy-imbalance-minus-1", "toy-imbalance-minus-half", "toy-samples-too-big",
        "toy-test-samples-too-big", "shift-test-samples-too-big", "train-hidden-too-big",
        "train-config-hidden-too-big", "shift-seed", "ingest-seed", "toy-seed",
        "gen-max-count-0", "gen-imbalance-half", "gen-counts-zero", "gen-val-per-class-0",
        "gen-test-per-class-0", "gen-shift-ratio-half", "gen-config-counts-zero",
        "train-alpha-minus-1-ce", "train-iterations-minus-1", "train-batch-size-0",
        "train-hidden-0-linear", "train-config-iterations-minus-1", "toy-trials-0",
        "toy-samples-1", "toy-test-samples-1", "toy-alpha-minus-1", "toy-iterations-minus-1",
        "toy-batch-size-0", "toy-tail-class-empty", "gen-uniform-shift-ratio-2",
        "gen-dims-1-default-means", "gen-config-dims-1-default-means", "gen-config-list",
        "shift-uniform-default-ratios", "train-lr-0", "train-lr-minus-1", "train-config-lr-0",
        "toy-lr-0", "train-batch-size-above-rows", "toy-batch-size-above-samples",
        "gen-counts-length", "gen-config-counts-length", "toy-workers-abc", "toy-workers-0",
        "ingest-split-1.5", "ingest-split-nan", "ingest-split-0", "shift-ratio-half",
        "shift-ratio-0.2", "shift-ratios-empty", "shift-direction-sideways",
        "shift-directions-empty", "adjust-alpha-minus-1", "shift-alpha-minus-1",
        "sweep-alpha-grid-minus-1", "ingest-grid-minus-1", "sweep-alpha-empty-grid",
        "ingest-empty-grid", "eval-target-prior-negative", "toy-iterations-0",
        "gen-config-means-1-class", "gen-config-means-2-of-3-classes", "gen-config-means-2-dims",
        "gen-config-means-3-dims", "gen-config-sigmas-3", "gen-config-sigmas-minus-1",
        "gen-config-sigmas-0", "eval-groups-many-below-few",
        *[f"{command}-alpha-{value}" for command in ("adjust", "shift-eval")
          for value in ("nan", "inf", "-inf", "x")],
        *[f"shift-test-samples-{value}" for value in ("0", "minus-5", "beyond-int64", "abc")]])
def test_option_value_a_check_rejects_exits_2_naming_it(
    workdir, tiny, monkeypatch, capsys, request, argv, body, message
):
    files, _ = tiny
    (workdir / "cfg.json").write_text(json.dumps(body))
    called = _spy_on_input_readers(monkeypatch, hashes=True)
    argv = [a.format(**files) for a in argv]
    try:
        code, prog = run_cli(*argv, "--out", "x"), ""
    except SystemExit as exc:  # argparse: text that does not parse, below the usage lines
        code, prog = exc.code, f"tailcal {argv[0]}: "
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert lines[-1] == f"{prog}error: {message.format(**files)}" and (prog or len(lines) == 1)
    assert (called == []) != (request.node.callspec.id in AFTER_INPUT)
    assert not (workdir / "x").exists()


# rows refused only once an input is hashed or read: the sizes a command checks
# itself
AFTER_INPUT = {"train-hidden-too-big", "train-config-hidden-too-big", "shift-test-samples-too-big",
               "train-batch-size-above-rows"}


def _spy_on_input_readers(monkeypatch, hashes=False) -> list[str]:
    """Wrap every reader of a dataset, logit dump or model file, and the fork
    that folds a --train-logits dump, so that each call is listed; with
    ``hashes``, the hash of an input file as well."""
    called = []
    spied = ((dataset, "_read_csv"), (dataset, "_csv_blocks"), (model_module, "load_model"),
             (dataset, "_forked"))
    for module, name in spied + (((dataset, "_sha256"),) if hashes else ()):
        def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return called


@pytest.mark.parametrize("argv, body, message", [
    (["train", "--data", "{train}", "--stage", "2"], None, "--stage 2 needs --init"),
    (["gen-data", "--profile", "explicit"], None, "--profile explicit needs --counts"),
    (["gen-data", "--config", "cfg.json"], {"profile": "explicit"},
     "config cfg.json: key 'profile' explicit needs --counts"),
    (["train", "--data", "{train}", "--config", "cfg.json"], {"stage": 2},
     "config cfg.json: key 'stage' 2 needs --init"),
    (["estimate-prior", "--model", "{model}", "--data", "{train}", "--estimator", "averaged"],
     None, "--estimator averaged needs --train-data"),
    (["adjust", "--logits", "{dump2}", "--method", "class-frequency"], None,
     "--method class-frequency needs --counts"),
    (["adjust", "--model", "{model}", "--data", "{train}", "--method", "class-frequency"], None,
     "--method class-frequency needs --counts"),
    (["adjust", "--logits", "{dump2}", "--method", "p2p-ce"], None,
     "--method p2p-ce needs --prior"),
    (["adjust", "--model", "{model}", "--data", "{train}", "--method", "p2p-la"], None,
     "--method p2p-la needs --prior"),
    # the notice about the missing --target-prior is not printed either
    (["ingest-logits", "--logits", "{dump2}", "--train-logits", "{dump2}"], None,
     "--train-logits {dump2} needs --counts"),
    # files that do not exist: the check runs before any input is hashed
    (["adjust", "--logits", "{dump2}", "--method", "p2p-ce", "--alpha", "1",
      "--alpha-from-sweep", "absent_sweep.json", "--prior", "absent.json"], None,
     "give either --alpha or --alpha-from-sweep, not both"),
], ids=["train-stage-2", "gen-profile-explicit", "gen-config-profile-explicit",
        "train-config-stage-2", "estimate-averaged", "adjust-cf-logits",
        "adjust-cf-model", "adjust-p2p-ce", "adjust-p2p-la", "ingest-train-logits",
        "adjust-alpha-twice"])
def test_a_flag_a_command_needs_exits_2_before_any_input_is_parsed(
    workdir, tiny, monkeypatch, capsys, argv, body, message
):
    files, _ = tiny
    (workdir / "cfg.json").write_text(json.dumps(body))
    called = _spy_on_input_readers(monkeypatch, hashes=True)
    assert run_cli(*(a.format(**files) for a in argv), "--out", "x") == 2
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert called == []
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep-alpha", "--prior", "absent.json"],
     "sweep-alpha needs --logits, or --model with --data"),
    (["eval", "--model", "absent.json"], "eval needs --logits, or --model with --data"),
    (["adjust", "--data", "{train}", "--method", "none"],
     "adjust needs --logits, or --model with --data"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--test-samples", "1"],
     "--test-samples 1 under the uniform shift at ratio 1: shift produces a zero count "
     "(counts=[0, 0]); lower the ratio or enlarge the base total"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--test-samples", "3"],
     "--test-samples 3 under the forward shift at ratio 5: shift produces a zero count "
     "(counts=[2, 0]); lower the ratio or enlarge the base total"),
], ids=["sweep-alpha-scores", "eval-scores", "adjust-scores", "shift-test-samples-1",
        "shift-test-samples-3"])
def test_a_check_hook_refuses_exits_2_before_any_input_is_hashed(
    workdir, tiny, monkeypatch, capsys, argv, message
):
    files, _ = tiny
    called = _spy_on_input_readers(monkeypatch, hashes=True)
    assert run_cli(*(a.format(**files) for a in argv), "--out", "x") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert called == []
    assert not (workdir / "x").exists()


# files that a row below reads
UNFIT_FILES = {
    "p3.json": {"probs": [0.5, 0.3, 0.2], "estimator": "train-side", "samples": 9},
    "c3.json": {"counts": [5, 3, 2]},
    "c2.json": {"counts": [5, 3]},
    "c1.json": {"counts": [5]},
}


@pytest.mark.parametrize("argv, code, message", [
    (["adjust", "--logits", "{dump2}", "--method", "p2p-ce", "--prior", "p3.json"], 3,
     "--prior p3.json lists 3 classes, but --logits {dump2} has 2"),
    (["adjust", "--model", "{model}", "--data", "{train}", "--method", "p2p-ce", "--prior",
      "p3.json"], 3, "--prior p3.json lists 3 classes, but --model {model} has 2"),
    (["adjust", "--logits", "{dump2}", "--method", "class-frequency", "--counts", "c3.json"], 3,
     "--counts c3.json lists 3 classes, but --logits {dump2} has 2"),
    (["sweep-alpha", "--logits", "{dump2}", "--prior", "p3.json"], 3,
     "--prior p3.json lists 3 classes, but --logits {dump2} has 2"),
    (["eval", "--logits", "{dump2}", "--train-counts", "c3.json"], 3,
     "--train-counts c3.json lists 3 classes, but --logits {dump2} has 2"),
    (["ingest-logits", "--logits", "{dump2}", "--train-logits", "{dump3}", "--counts",
      "c2.json"], 3, "--train-logits {dump3} lists 3 classes, but --logits {dump2} has 2"),
    (["ingest-logits", "--logits", "{dump2}", "--train-logits", "{dump2}", "--counts",
      "c3.json"], 3, "--counts c3.json lists 3 classes, but --logits {dump2} has 2"),
    (["ingest-logits", "--logits", "{dump2}", "--split", "0.99"], 2,
     "--split 0.99 holds out all 30 rows of --logits, leaving none to adjust"),
    (["adjust", "--logits", "{dump2}", "--method", "class-frequency", "--counts", "c1.json"], 3,
     "c1.json: counts must list >= 2 classes"),
    (["train", "--data", "nolabel.csv"], 3, "nolabel.csv: line 1: expected header 'f0,...,label'"),
    (["eval", "--logits", "{dump2}", "--target-prior", "c3.json"], 3,
     "--target-prior c3.json lists 3 classes, but --logits {dump2} has 2"),
    (["estimate-prior", "--model", "{model}", "--data", "{train}", "--estimator",
      "train-reweighted", "--target-prior", "c3.json"], 3,
     "--target-prior c3.json lists 3 classes, but --model {model} has 2"),
    (["eval", "--logits", "{dump2}", "--target-prior", "[1, 2, 3]"], 2,
     "--target-prior lists 3 classes, the scores have 2"),
    (["eval", "--model", "{model}", "--data", "wide.csv"], 3,
     "--data wide.csv has 3 features, but --model {model} expects 2"),
    (["adjust", "--model", "{model}", "--data", "wide.csv", "--method", "none"], 3,
     "--data wide.csv has 3 features, but --model {model} expects 2"),
    (["sweep-alpha", "--model", "{model}", "--data", "wide.csv", "--prior", "{prior}"], 3,
     "--data wide.csv has 3 features, but --model {model} expects 2"),
    (["estimate-prior", "--model", "{model}", "--data", "wide.csv", "--estimator", "train"], 3,
     "--data wide.csv has 3 features, but --model {model} expects 2"),
    (["estimate-prior", "--model", "{model}", "--data", "{train}", "--train-data", "wide.csv",
      "--estimator", "averaged"], 3,
     "--train-data wide.csv has 3 features, but --model {model} expects 2"),
    (["shift-eval", "--model", "{model}", "--train-data", "wide.csv"], 3,
     "--train-data wide.csv has 3 features, but --model {model} expects 2"),
    (["eval", "--model", "text.json", "--data", "{train}"], 3,
     "text.json: not a model file: Expecting value: line 1 column 1 (char 0)"),
    (["eval", "--model", "latin1.json", "--data", "{train}"], 3,
     "latin1.json: not a model file: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (["eval", "--model", "c2.json", "--data", "{train}"], 3,
     "c2.json: unsupported schema None, expected 1"),
    (["eval", "--model", "list.json", "--data", "{train}"], 3,
     "list.json: unsupported schema None, expected 1"),
    (["adjust", "--logits", "{dump2}", "--method", "p2p-la", "--prior", "{prior}",
      "--target-prior", "[1, 0]"], 4,
     "--target-prior gives class 1 probability 0; the correction would add log 0 = -inf to "
     "its logits"),
    (["sweep-alpha", "--logits", "{dump2}", "--prior", "{prior}", "--method", "p2p-la",
      "--target-prior", "[0, 1]"], 4,
     "--target-prior gives class 0 probability 0; the correction would add log 0 = -inf to "
     "its logits"),
    (["ingest-logits", "--logits", "{dump2}", "--target-prior", "[1, 0]"], 4,
     "--target-prior gives class 1 probability 0; the correction would add log 0 = -inf to "
     "its logits"),
], ids=["adjust-prior-logits", "adjust-prior-model", "adjust-counts", "sweep-alpha-prior",
        "eval-train-counts", "ingest-train-logits", "ingest-counts", "ingest-split",
        "counts-one-class", "dataset-no-label", "eval-target-prior-counts",
        "estimate-target-prior-counts", "eval-target-prior-list", "eval-data-width",
        "adjust-data-width", "sweep-alpha-data-width", "estimate-data-width",
        "estimate-train-data-width", "shift-train-data-width", "model-not-json",
        "model-not-utf8", "model-no-schema", "model-json-list", "adjust-target-prior-zero",
        "sweep-alpha-target-prior-zero", "ingest-target-prior-zero"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's "divide by zero" among them
def test_an_input_that_does_not_fit_exits_naming_it(workdir, tiny, capsys, argv, code, message):
    files, _ = tiny
    for name, body in UNFIT_FILES.items():
        (workdir / name).write_text(json.dumps(body))
    (workdir / "nolabel.csv").write_text("f0,f1\n0.5,1.5\n")
    (workdir / "wide.csv").write_text("f0,f1,f2,label\n0.5,1.5,2.5,0\n0.5,1.5,2.5,1\n")
    (workdir / "text.json").write_text("model\n")
    (workdir / "latin1.json").write_bytes(b"\xff\n")
    (workdir / "list.json").write_text("[1]\n")
    # a refused run prints no notice of a defaulted --target-prior
    assert run_cli(*(a.format(**files) for a in argv), "--out", "x") == code
    assert capsys.readouterr().err == f"error: {message.format(**files)}\n"
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("argv", [
    ["estimate-prior", "--model", "{model}", "--data", "{train}", "--estimator", "train"],
    ["estimate-prior", "--model", "{model}", "--data", "{train}", "--estimator", "val"],
    ["adjust", "--logits", "{dump2}", "--method", "none"],
], ids=["estimate-train", "estimate-val", "adjust-none"])
def test_a_target_prior_the_command_does_not_use_is_hashed_but_not_read(
    workdir, tiny, capsys, argv
):
    files, _ = tiny
    (workdir / "c3.json").write_text(json.dumps(UNFIT_FILES["c3.json"]))  # the scores have 2
    assert run_cli(*(a.format(**files) for a in argv), "--target-prior", "c3.json",
                   "--out", "x") == 0
    assert capsys.readouterr().err == ""
    manifest = load_manifest(workdir / "x" / "manifest.json")
    assert "c3.json" in manifest["inputs"]
    assert manifest["config"]["target_prior"] is None


@pytest.mark.parametrize("argv", [
    ["eval", "--logits", "{dump2}"],
    ["sweep-alpha", "--logits", "{dump2}", "--prior", "{prior}", "--method", "p2p-la"],
], ids=["eval", "sweep-alpha"])
def test_eval_and_sweep_alpha_announce_a_defaulted_target_once_after_their_stdout(
    workdir, tiny, capsys, argv
):
    files, outs = tiny
    argv = [a.format(**files) for a in argv]
    assert main([*argv, "--target-prior", "uniform", "--out", str(next(outs))]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout and stderr == ""
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        assert main([*argv, "--out", str(next(outs))]) == 0
    assert both.getvalue() == stdout + "notice: no --target-prior given; defaulting to uniform\n"


def test_a_notice_follows_the_stdout_of_its_run_where_both_share_one_pipe(workdir, tiny):
    files, _ = tiny
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # so stdout is block-buffered, as into any pipe
    done = subprocess.run([sys.executable, "-m", "tailcal", "eval", "--logits", files["dump2"],
                           "--out", "x"], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["Many", "Medium", "Few", "All"]
    assert lines[-1] == "notice: no --target-prior given; defaulting to uniform"


def test_eval_target_prior_zero_where_the_scores_put_mass_exits_4(workdir, tiny, capsys):
    files, _ = tiny
    assert run_cli("eval", "--logits", files["dump2"], "--target-prior", "[1, 0]",
                   "--out", "x") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: KL undefined: achieved mass [")
    assert err.endswith("] on zero-target classes\n")
    assert not (workdir / "x").exists()


def test_adjust_method_none_takes_both_alpha_flags(workdir, tiny):
    files, _ = tiny
    (workdir / "sweep.json").write_text('{"alpha": 0.5}')
    assert run_cli("adjust", "--logits", files["dump2"], "--method", "none", "--alpha", "1",
                   "--alpha-from-sweep", "sweep.json", "--out", "x") == 0


@pytest.mark.parametrize("classes, dims", [(3, 2), (2, 3)])
def test_shift_eval_refuses_a_model_off_the_toy_mixture_before_reading_train_data(
    workdir, tiny, monkeypatch, capsys, classes, dims
):
    files, _ = tiny
    save_model(LinearSoftmaxModel(np.zeros((classes, dims)), np.zeros(classes)), "off.json")
    called = _spy_on_input_readers(monkeypatch)
    code = run_cli("shift-eval", "--model", "off.json", "--train-data", files["train"],
                   "--trials", "1", "--out", "x")
    assert (code, capsys.readouterr().err) == (2, (
        "error: --model off.json: shift-eval samples the two-class toy mixture in 2 features, "
        f"but the model has {classes} classes over {dims} features\n"))
    assert called == ["load_model"]
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("stage", ["init_mlp", "train"])
def test_memory_error_in_a_hidden_layer_exits_2_naming_hidden(tiny, capsys, monkeypatch, stage):
    def short_of_memory(*args):
        raise MemoryError

    files, outs = tiny
    monkeypatch.setattr(model_module, stage, short_of_memory)
    out = next(outs)
    assert run_cli("train", "--data", files["train"], "--arch", "mlp", "--hidden", "4",
                   "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: --hidden: a hidden layer of 4 units on 80 rows of 2 features "
        "is too big to allocate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["toy-experiment", "--trials", "1", "--samples", "200", "--test-samples", "300"],
     "--test-samples: the test split of 300 rows of 2 features is too big to allocate"),
    (["shift-eval", "--model", "{model}", "--train-data", "{train}", "--trials", "1",
      "--test-samples", "40", "--ratios", "2"],
     "--test-samples: the test split of 40 rows of 2 features is too big to allocate"),
], ids=["toy-experiment", "shift-eval"])
def test_memory_error_while_sampling_exits_2_naming_the_size(
    tiny, capsys, monkeypatch, argv, message
):
    def short_of_memory(gmm, counts, rng):
        raise MemoryError

    files, outs = tiny
    monkeypatch.setattr(dataset, "sample_dataset", short_of_memory)
    out = next(outs)
    assert run_cli(*(a.format(**files) for a in argv), "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_model_arch_that_disagrees_with_its_parameters_exits_3(tiny, capsys):
    files, outs = tiny
    out = next(outs)
    out.mkdir(parents=True)
    save_model(LinearSoftmaxModel(np.eye(2), np.zeros(2)), out / "bad.json")
    payload = json.loads((out / "bad.json").read_text())
    payload["arch"]["classes"] = 7  # over 2 x 2 weights
    (out / "bad.json").write_text(json.dumps(payload))
    code = run_cli("estimate-prior", "--model", out / "bad.json", "--data", files["train"],
                   "--estimator", "train", "--out", out / "x")
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        f"error: {out / 'bad.json'}: malformed model file: arch {{'family': 'linear', "
        "'classes': 7, 'dims': 2} disagrees with the parameters: {'family': 'linear', "
        "'classes': 2, 'dims': 2}\n"
    )


def test_dump_posterior_means_fold_the_blocks_of_the_whole_dump(workdir, monkeypatch):
    gen = RngStream(31).generator()
    logits = 4.0 * gen.normal(size=(700, 5))
    save_logit_dump([f"r{i}" for i in range(700)], logits, np.arange(700) % 5, "t.csv")
    lines = (workdir / "t.csv").read_text().splitlines(keepends=True)
    lines.insert(257, "\n")  # a blank line opening the second 256-line block
    (workdir / "t.csv").write_text("".join(lines))
    whole = prior.column_means([softmax_rows(load_logit_dump("t.csv")[1])])
    for block_lines in (256, 3, 1000):
        monkeypatch.setattr(dataset, "CSV_BLOCK_LINES", block_lines)
        means, n = cli._dump_posterior_means("t.csv")
        assert n == 700 and means.tobytes() == whole[0].tobytes()


def test_ingest_traced_peak_stays_near_the_eval_logits(workdir):
    # 20 classes x 5 000 eval rows and a train dump twice as big. The eval
    # logits, the copy of the adjusted rows and one block stay below 3.5x the
    # eval logit bytes (2.8x measured). Hashing each input whole and holding
    # the train dump whole beside its softmax reached 7.9x.
    gen = RngStream(32).generator()
    classes = 20
    for name, rows in (("eval", 5000), ("train", 10000)):
        labels = gen.integers(0, classes, size=rows)
        logits = gen.normal(size=(rows, classes))
        logits[np.arange(rows), labels] += 2.0
        save_logit_dump([f"img-{i:05d}" for i in range(rows)], logits, labels, f"{name}.csv")
    (workdir / "counts.json").write_text(json.dumps({"counts": [500] * classes}))
    tracemalloc.start()
    try:
        code = run_cli("ingest-logits", "--logits", "eval.csv", "--train-logits", "train.csv",
                       "--counts", "counts.json", "--seed", "5", "--out", "ing")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3.5 * 5000 * classes * 8


def _write_dump(path, rows: int, seed: int, classes: int = 3, bad_line: int | None = None):
    gen = RngStream(seed).generator()
    logits = gen.normal(size=(rows, classes))
    save_logit_dump([f"r{i}" for i in range(rows)], logits, np.arange(rows) % classes, path)
    if bad_line is not None:
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[bad_line - 1] = "r,x" + ",0.5" * (classes - 1) + ",0\n"
        Path(path).write_text("".join(lines))


def _ingest(out):
    return run_cli("ingest-logits", "--logits", "eval.csv", "--train-logits", "train.csv",
                   "--counts", "counts.json", "--seed", "9", "--out", out)


@pytest.mark.parametrize("bad", ["train", "both"])
def test_a_bad_dump_fails_alike_with_the_train_fold_forked_or_not(
    workdir, capsys, monkeypatch, forks, bad
):
    _write_dump("eval.csv", 300, 1, bad_line=5 if bad == "both" else None)
    _write_dump("train.csv", 900, 2, bad_line=700)
    (workdir / "counts.json").write_text('{"counts": [300, 300, 300]}')
    outcomes = []
    for slots in (1, 2):
        monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
        outcomes.append((_ingest(f"out{slots}"), capsys.readouterr().err))
        assert not (workdir / f"out{slots}").exists()
    assert forks == ["_dump_posterior_means"] * 2
    assert outcomes[0] == outcomes[1] == (3, (
        "error: eval.csv: line 5: could not convert string to float: 'x'\n" if bad == "both" else
        "error: train.csv: line 700: could not convert string to float: 'x'\n"))


def test_ingest_forked_leaves_the_outputs_of_one_process_and_no_child_or_file(
    workdir, monkeypatch, forks
):
    _write_dump("eval.csv", 301, 3, classes=4)
    _write_dump("train.csv", 900, 4, classes=4)
    (workdir / "counts.json").write_text('{"counts": [400, 250, 150, 100]}')
    monkeypatch.setattr(dataset, "CSV_SPLIT_CELLS", 1)
    outputs = {}
    for run, slots in (("one", 1), ("forked", 2), ("fork-fails", 2)):
        monkeypatch.setattr(dataset, "_fork_slots", lambda: slots)
        if run == "fork-fails":
            monkeypatch.setattr(os, "fork", _no_fork)
        assert _ingest(run) == 0
        files = sorted((workdir / run).iterdir())
        assert [p.name for p in files] == ["adjusted_logits.csv", "adjusted_logits.csv.npy",
                                           "ingest_report.json", "manifest.json", "prior.json"]
        outputs[run] = {p.name: p.read_bytes() for p in files if p.name != "manifest.json"}
    # the fold three times; the adjusted dump's write in two parts, twice
    assert sorted(forks) == ["_dump_posterior_means"] * 3 + ["_write_part"] * 2
    assert outputs["one"] == outputs["forked"] == outputs["fork-fails"]


def _no_fork():
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


def test_entry_freezes_the_objects_after_main_returns_and_exits_with_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "exit", lambda code: events.append(("exit", code)))
    cli.entry()
    assert events == ["main", "freeze", ("exit", 3)]


# Imports tailcal.cli in a fresh interpreter, then runs each command line of
# the JSON list argv[1] in a forked child, so that each starts from that
# import alone. Prints one JSON list: per command line, None for the import
# alone, its exit code and the modules it loaded of those that LAZY names.
LOADS = """
import contextlib, io, json, os, sys
import tailcal.cli

LAZY = ("multiprocessing", "concurrent", "logging", "queue", "hashlib", "numpy.polynomial",
        "tailcal")

def loaded():
    return sorted(name for name in sys.modules
                  if any(name == lazy or name.startswith(lazy + ".") for lazy in LAZY))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tailcal.cli.main(argv)
        except SystemExit as exc:  # --help, --version and argparse refusals
            code = exc.code
    return code, loaded()

results = []
for argv in json.loads(sys.argv[1]):
    if argv is None:
        results.append((None, loaded()))
        continue
    read, write = os.pipe()
    if os.fork() == 0:
        os.write(write, json.dumps(run(argv)).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        results.append(json.loads(pipe.read()))
    os.wait()
print(json.dumps(results))
"""


def _loads(*argvs) -> list[tuple]:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", LOADS, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    return [tuple(result) for result in json.loads(done.stdout)]


START = ["tailcal", "tailcal.cli", "tailcal.errors"]  # what importing tailcal.cli loads


def test_importing_the_cli_loads_none_of_the_lazily_imported_modules():
    """Neither the package's library modules nor hashlib, process pools or
    the quadrature that only the oracle's callers need; nor does a run that
    argparse ends."""
    assert _loads(None, ["--help"], ["--version"], ["gen-data", "--classes", "x"]) == [
        (None, START), (0, START), (0, START), (2, START)]


# command -> (a run of it, the library modules it loads beyond START)
RUN_LOADS = {
    "gen-data": (["--counts", "20,10", "--val-per-class", "2", "--test-per-class", "2"],
                 {"dataset", "numerics"}),
    "train": (["--data", "{train}", "--iterations", "2"], {"dataset", "numerics", "model"}),
    "estimate-prior": (["--model", "{model}", "--data", "{train}", "--estimator", "train"],
                       {"dataset", "numerics", "model", "adjust", "prior"}),
    "adjust": (["--logits", "{dump2}", "--method", "p2p-la", "--prior", "{prior}"],
               {"dataset", "numerics", "model", "adjust", "prior", "evaluation"}),
    "eval": (["--logits", "{dump3}"], {"dataset", "numerics", "model", "adjust", "evaluation"}),
    "toy-experiment": (["--trials", "1", "--samples", "200", "--test-samples", "100",
                        "--iterations", "5"],
                       {"dataset", "numerics", "model", "adjust", "prior", "evaluation",
                        "oracle"}),
    "shift-eval": (["--model", "{model}", "--train-data", "{train}", "--trials", "1",
                    "--test-samples", "40", "--ratios", "2"],
                   {"dataset", "numerics", "model", "adjust", "prior", "evaluation", "oracle"}),
    "ingest-logits": (["--logits", "{dump2}"],
                      {"dataset", "numerics", "model", "adjust", "prior", "evaluation"}),
    "sweep-alpha": (["--prior", "{prior}", "--logits", "{dump2}", "--method", "p2p-la"],
                    {"dataset", "numerics", "model", "adjust", "prior"}),
}


def test_each_command_loads_only_the_library_modules_it_runs(tiny):
    files, outs = tiny
    argvs = [[command, *(a.format(**files) for a in argv), "--out", str(next(outs))]
             for command, (argv, _) in RUN_LOADS.items()]
    assert not RUN_LOADS["gen-data"][1] & {"model", "prior", "adjust", "evaluation", "oracle"}
    expected = [(0, sorted(START + [f"tailcal.{m}" for m in modules] + ["hashlib"]))
                for _, modules in RUN_LOADS.values()]
    assert _loads(*argvs) == expected


# a malformed prior.json entry, and the reason the message gives
PRIOR_ENTRIES = {
    '"samples": 5.7': "samples must be an integer >= 1, got 5.7",
    '"samples": true': "samples must be an integer >= 1, got True",
    '"samples": "12"': "samples must be an integer >= 1, got '12'",
    '"samples": 0.5': "samples must be an integer >= 1, got 0.5",
    '"samples": 0': "samples must be an integer >= 1, got 0",
    '"estimator": "mode"': "unknown estimator tag 'mode'",
    '"probs": [1.1, -0.1]': "negative probability entry: min=-0.1",
    '"probs": [1.0, 0.0]': "effective prior entries must be strictly positive",
}


@pytest.mark.parametrize("entry", PRIOR_ENTRIES)
def test_a_malformed_prior_file_exits_3_naming_the_file(workdir, capsys, entry):
    _write_dump("d.csv", 20, 5, classes=2)
    payload = {"probs": [0.9, 0.1], "estimator": "train-side", "samples": 10}
    payload.update(json.loads("{%s}" % entry))
    (workdir / "bad.json").write_text(json.dumps(payload))
    code = run_cli("adjust", "--logits", "d.csv", "--method", "p2p-ce", "--prior", "bad.json",
                   "--target-prior", "uniform", "--out", "x")
    assert (code, capsys.readouterr().err) == (3, (
        f"error: bad.json: not an effective-prior file: {PRIOR_ENTRIES[entry]}\n"))
    assert not (workdir / "x").exists()


# each JSON alpha, and the value the message quotes
ALPHA_VALUES = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e400": "inf",
                "true": "True", '"0.5"': "'0.5'", "-1": "-1", "null": "None"}


@pytest.mark.parametrize("where", ["sweep", "prior"])
@pytest.mark.parametrize("alpha", ALPHA_VALUES)
def test_a_file_alpha_other_than_a_finite_number_of_at_least_0_exits_3_naming_the_file(
    workdir, capsys, where, alpha
):
    _write_dump("d.csv", 20, 5, classes=2)
    payload = '{"probs": [0.9, 0.1], "estimator": "train-side", "samples": 10%s}'
    (workdir / "good.json").write_text(payload % "")
    (workdir / "bad.json").write_text(payload % f', "alpha": {alpha}' if where == "prior"
                                      else f'{{"alpha": {alpha}}}')
    files = ["--prior", "bad.json"] if where == "prior" else [
        "--prior", "good.json", "--alpha-from-sweep", "bad.json"]
    code = run_cli("adjust", "--logits", "d.csv", "--method", "p2p-ce", *files,
                   "--target-prior", "uniform", "--out", "x")
    kind = "an effective-prior file" if where == "prior" else "a sweep result"
    assert (code, capsys.readouterr().err) == (3, (
        f"error: bad.json: not {kind}: alpha must be a finite number >= 0, "
        f"got {ALPHA_VALUES[alpha]}\n"))
    assert not (workdir / "x").exists()
