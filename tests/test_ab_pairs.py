import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture()
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent_walls, change_walls):
    return [{"parent": {"wall_s": p, "ok_ratio": 1.0},
             "change": {"wall_s": c, "ok_ratio": 1.0}}
            for p, c in zip(parent_walls, change_walls)]


def test_summary_medians_quartiles_and_wins(tool):
    parent = [1.0, 1.2, 0.9, 1.1, 1.05]
    change = [0.7, 0.8, 0.95, 0.6, 0.75]
    s = tool.summarize(_pairs(parent, change),
                       {"wall_s": "lower", "ok_ratio": "higher",
                        "cpu_s": "lower"})
    wall = s["wall_s"]
    assert wall["pairs"] == 5
    assert wall["parent_median"] == 1.05 and wall["change_median"] == 0.75
    assert wall["parent_quartiles"] == pytest.approx(
        tuple(np.percentile(parent, [25, 75])))
    assert wall["change_quartiles"] == pytest.approx(
        tuple(np.percentile(change, [25, 75])))
    # pair 3 is the only one the change lost
    assert wall["change_better"] == 4
    # a tie is not a win, and a metric no run reports is left out
    assert s["ok_ratio"]["change_better"] == 0
    assert "cpu_s" not in s


def test_higher_is_better_counts_the_other_way(tool):
    pairs = [{"parent": {"profit_musd": p}, "change": {"profit_musd": c}}
             for p, c in [(1.0, 2.0), (3.0, 2.0), (2.0, 2.5)]]
    s = tool.summarize(pairs, {"profit_musd": "higher"})["profit_musd"]
    assert s["change_better"] == 2 and s["change_median"] == 2.0


def test_runs_alternate_and_a_failed_run_exits_one(tool, tmp_path, capsys):
    checkouts = {}
    for side in ("parent", "change"):
        checkouts[side] = tmp_path / side
        (checkouts[side] / "src" / "__pycache__").mkdir(parents=True)
        (checkouts[side] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    side_of = {path: side for side, path in checkouts.items()}
    calls = []

    def canned(checkout, workload, seed, seconds):
        side = side_of[checkout]
        calls.append((seed, side))
        correct = not (seed == 3 and side == "change")
        wall = 1.0 if side == "parent" else 0.5 + seed / 100
        return {"correct": correct,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    argv = ["--parent", str(checkouts["parent"]), "--change",
            str(checkouts["change"]), "--workload", "campaign_ht20",
            "--pairs", "3", "--seconds", "1"]
    assert tool.main(argv, run=canned) == 1
    assert calls == [(1, "parent"), (1, "change"), (2, "change"),
                     (2, "parent"), (3, "parent"), (3, "change")]
    assert not [cache for path in checkouts.values()
                for cache in path.rglob("__pycache__")]
    out = capsys.readouterr()
    assert "seed 3 change: not correct" in out.err
    assert "change better in 3/3" in out.out

    calls.clear()
    assert tool.main(argv[:-4] + ["--pairs", "2", "--seconds", "1"],
                     run=canned) == 0
