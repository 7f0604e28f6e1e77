"""The summary of tools/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "setup_s": "lower"}


def _pairs(parent_ops, change_ops, setup=0.2):
    return [({"ops_per_s": p, "setup_s": setup}, {"ops_per_s": c, "setup_s": setup})
            for p, c in zip(parent_ops, change_ops)]


def test_a_clear_gain_holds_with_every_pair_won():
    parent = [1.10, 1.12, 1.15, 1.16, 1.18, 1.20, 1.13, 1.14, 1.17, 1.19]
    row = bench_pairs.summarize(_pairs(parent, [p + 0.35 for p in parent]), BETTER)["ops_per_s"]
    assert row["wins"] == 10 and row["pairs"] == 10 and row["holds"]
    assert row["parent"] == pytest.approx((1.1325, 1.155, 1.1775))
    assert row["change"][1] == pytest.approx(1.505)


def test_nine_of_ten_wins_is_enough_and_eight_is_not():
    parent = [1.0] * 10
    nine = [1.5] * 9 + [0.9]
    assert bench_pairs.summarize(_pairs(parent, nine), BETTER)["ops_per_s"]["holds"]
    eight = [1.5] * 8 + [0.9, 0.9]
    row = bench_pairs.summarize(_pairs(parent, eight), BETTER)["ops_per_s"]
    assert row["wins"] == 8 and not row["holds"]


def test_ties_count_for_neither_side():
    row = bench_pairs.summarize(_pairs([1.0] * 10, [1.0] * 10), BETTER)
    assert row["ops_per_s"]["wins"] == 0 and not row["ops_per_s"]["holds"]
    assert row["setup_s"]["wins"] == 0 and not row["setup_s"]["holds"]


def test_every_pair_won_within_the_parents_spread_does_not_hold():
    parent = [1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4]  # quartiles 1.0 and 1.4
    row = bench_pairs.summarize(_pairs(parent, [p + 0.01 for p in parent]), BETTER)["ops_per_s"]
    assert row["wins"] == 10 and not row["holds"]


def test_lower_is_better_metrics_win_by_going_down():
    pairs = [({"ops_per_s": 1.0, "setup_s": 0.20 + i / 1000},
              {"ops_per_s": 1.0, "setup_s": 0.15}) for i in range(10)]
    row = bench_pairs.summarize(pairs, BETTER)["setup_s"]
    assert row["wins"] == 10 and row["holds"]


def test_a_run_without_a_result_loses_its_pair():
    pairs = _pairs([1.0] * 9, [1.5] * 9) + [({"ops_per_s": 1.0, "setup_s": 0.2}, None)]
    row = bench_pairs.summarize(pairs, BETTER)["ops_per_s"]
    assert row["wins"] == 9 and row["pairs"] == 10 and row["holds"]
    assert row["change"] == (1.5, 1.5, 1.5)


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_a_tree_holding_bytecode_is_refused_before_any_run(tmp_path, monkeypatch, capsys, cached):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "tailcal").mkdir(parents=True)
    cache = trees[cached] / "src" / "tailcal" / "__pycache__"
    cache.mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a run started"))
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", str(trees["parent"]),
                                     str(trees["change"]), "--workload", "toy"])
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main()
    assert stopped.value.code == 2
    assert f"{cache} holds bytecode" in capsys.readouterr().err
