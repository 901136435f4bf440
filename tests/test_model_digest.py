import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "model_digest.py"


def _load_tool(monkeypatch):
    # the tool extends sys.path on import
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("model_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_workload(monkeypatch, tool, **outcome):
    # a workload that solves nothing and reports ``outcome`` from its checks
    wl = tool.workloads
    monkeypatch.setattr(wl, "setup", lambda name, seed, workdir: {})
    monkeypatch.setattr(wl, "run_rep", lambda name, inputs, outdir: 0)
    monkeypatch.setattr(wl, "check", lambda *args: wl.RepResult(
        attempted=1, fingerprints={"out": "x"}, **outcome))
    # the tool wraps both solve methods for good; undo that after the test
    monkeypatch.setattr(tool.lp.Model, "solve", tool.lp.Model.solve)
    monkeypatch.setattr(wl.milp.PlanProblem, "solve",
                        wl.milp.PlanProblem.solve)


def test_digest_exits_one_when_a_workload_fails(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool, failed=1, problems=["plan exit 1"])
    assert tool.main(["--workload", "plan_mm20"]) == 1
    captured = capsys.readouterr()
    assert "plan_mm20: plan exit 1" in captured.err
    assert '"out": "x"' in captured.out     # the JSON is still printed


def test_digest_exits_zero_when_every_check_holds(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    assert tool.main(["--workload", "plan_mm20"]) == 0
    assert capsys.readouterr().err == ""
