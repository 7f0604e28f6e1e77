"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

The last test runs the benchmark briefly on ``ingest`` in both modes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_of_nested_calls_with_one_that_raises():
    tracer = tracing.Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    leaf = tracer.wrap("numerics.leaf", lambda: None)

    def fail():
        raise ValueError("boom")

    bad = tracer.wrap("numerics.bad", fail)

    def body():
        leaf()  # 1 -> 3
        with pytest.raises(ValueError):
            bad()  # 4 -> 7, raises

    tracer.wrap("model.outer", body)()  # 0 -> 10
    assert tracer._stack == [] and all(s.end > s.start for s in tracer.spans)
    stats = tracing.aggregate(tracer.spans)
    assert stats["model.outer"]["self_s"] == 5.0
    assert stats["model.outer"]["total_s"] == 10.0
    assert stats["numerics.bad"] == {"calls": 1, "errors": 1, "self_s": 3.0, "total_s": 3.0, "counts": {}}
    metrics, absent = tracing.op_metrics(stats, list(stats), ["model", "numerics"], [])
    assert metrics["model.self_s"] == 5.0
    assert metrics["numerics.self_s"] == 5.0
    assert metrics["numerics.errors"] == 1 and metrics["model.errors"] == 0
    assert absent == []


def test_recursion_counts_total_time_once():
    tracer = tracing.Tracer(clock=fake_clock(0.0, 2.0, 5.0, 9.0))

    def rec(n):
        return rec_traced(n - 1) if n else 0

    rec_traced = tracer.wrap("prior.rec", rec)
    rec_traced(1)
    s = tracing.aggregate(tracer.spans)["prior.rec"]
    assert (s["calls"], s["total_s"], s["self_s"]) == (2, 9.0, 9.0)


def test_moved_function_follows_its_layer_and_missing_one_is_absent():
    stats = {"dataset.load_logit_dump": {"calls": 2, "errors": 0, "self_s": 1.0,
                                         "total_s": 2.0, "counts": {"rows": 10}}}
    functions = ["dataset.load_logit_dump", "model.batch_loss_and_grads"]
    wanted = ["cli.load_logit_dump.self_s", "cli.load_logit_dump.rows_per_s",
              "cli.gone.self_s", "model.step_ms", "model.batch_loss_and_grads.calls"]
    metrics, absent = tracing.op_metrics(stats, functions, ["dataset"], wanted)
    assert metrics["dataset.load_logit_dump.self_s"] == 1.0
    assert metrics["dataset.load_logit_dump.rows_per_s"] == 5.0
    assert metrics["model.step_ms"] == 0.0  # exists, never called
    assert metrics["model.batch_loss_and_grads.calls"] == 0
    assert "cli.load_logit_dump.self_s" not in metrics
    assert absent == ["cli.gone.self_s"]


def test_instrumentation_rebinds_imported_names_and_restores_them():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing, tailcal.cli as cli, tailcal.model as m\n"
        "original = cli.train\n"
        "inst = tracing.Instrumentation(tracing.Tracer()); inst.install()\n"
        "assert cli.train is not original and m.train is cli.train\n"
        "inst.uninstall(); assert cli.train is original and m.train is original\n"
        "assert 'cli.main' in inst.functions and not any(n.startswith('errors.') for n in inst.functions)\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def test_generators_are_deterministic_and_import_nothing_from_tailcal(tmp_path):
    code = (
        "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import workloads\n"
        "for d, seed in (('a', 3), ('b', 3), ('c', 4)):\n"
        "    workloads.ingest(seed, Path(sys.argv[2]) / d / 'inputs', {'classes': 5, 'eval_per_class': 4, 'max_count': 20})\n"
        "assert workloads.pipeline(3) == workloads.pipeline(3) and workloads.toy(3) == workloads.toy(3)\n"
        "assert not [m for m in sys.modules if m == 'tailcal' or m.startswith('tailcal.')]\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE), str(tmp_path)], check=True)
    names = ("eval_logits.csv", "train_logits.csv", "counts.json")
    read = lambda d: [(tmp_path / d / "inputs" / n).read_bytes() for n in names]  # noqa: E731
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_reference_tolerance_admits_reordering_drift_only():
    want = {"f:x": 0.25, "f:n": 17, "f:s": "train"}
    assert gates.compare_reference({"f:x": 0.25 * (1 + 1e-14), "f:n": 17, "f:s": "train", "f:new": 1}, want) == []
    assert gates.compare_reference({"f:x": 0.2501, "f:n": 17, "f:s": "train"}, want)
    assert gates.compare_reference({"f:x": 0.25, "f:n": 18, "f:s": "train"}, want)
    assert gates.compare_reference({"f:x": 0.25, "f:s": "train"}, want)


def test_declared_metrics_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(tracing.unit_of(n) == u for n, u in PER_LAYER.items())


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_emitted_metrics_are_exactly_the_declared_ones(trace, declared):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
