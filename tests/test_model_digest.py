import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

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


def _digests(monkeypatch, tool, capsys, rhs: float) -> dict:
    # the report of a workload that solves one tiny model
    lp = tool.lp

    def run_rep(name, inputs, outdir):
        m = lp.Model("tiny")
        x = m.add_var("x", ub=4.0, kind=lp.INTEGER)
        m.add_objective(x, 1.0)
        m.add_constr("cap", {x: 2.0}, "<=", rhs)
        m.solve()
        return 0
    monkeypatch.setattr(tool.workloads, "run_rep", run_rep)
    assert tool.main(["--workload", "plan_mm20"]) == 0
    return json.loads(capsys.readouterr().out)["workloads"]["plan_mm20"]


def test_digest_restores_what_it_wraps(monkeypatch, capsys):
    # a second run in the same process solves through the unwrapped calls,
    # not through the first run's wrappers and its deleted directory
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    plan_problem = tool.workloads.milp.PlanProblem
    unwrapped = (tool.lp.Model.solve, tool.lp.milp, plan_problem.solve)
    first = _digests(monkeypatch, tool, capsys, 5.0)
    assert (tool.lp.Model.solve, tool.lp.milp, plan_problem.solve) == unwrapped
    assert _digests(monkeypatch, tool, capsys, 5.0) == first


def test_highs_digest_hashes_what_highs_gets(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    a, b, c = (_digests(monkeypatch, tool, capsys, rhs)
               for rhs in (5.0, 5.0, 6.0))
    assert a == b and a["solves"] == 1
    assert c["highs_digest"] != a["highs_digest"]
    assert c["lp_digest"] != a["lp_digest"]
    # equal values in another dtype are another input for HiGHS
    ints = (np.array([1, 2]), 0.5)
    assert tool.highs_hash(ints, {}) == tool.highs_hash(
        (np.array([1, 2]), 0.5), {})
    assert tool.highs_hash(ints, {}) != tool.highs_hash(
        (np.array([1.0, 2.0]), 0.5), {})
    assert tool.highs_hash(ints, {}) != tool.highs_hash(
        (np.array([1, 2]), 0.25), {})


def test_objectives_list_each_plan_solve(monkeypatch, capsys):
    # one entry per PlanProblem.solve, in solve order; a bare model solve
    # (as the least-burn LP is) adds none
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    from micro import micro_instance
    milp, solved = tool.milp, []

    def run_rep(name, inputs, outdir):
        for seed in (1, 2):
            scenario, _, net, needs, init = micro_instance(seed)
            problem = milp.PlanProblem(scenario, net, needs, init,
                                       milp.SolveOptions(gap=0.0))
            solved.append(repr(problem.solve().objective))
            problem.model.solve()
        return 0
    monkeypatch.setattr(tool.workloads, "run_rep", run_rep)
    assert tool.main(["--workload", "plan_mm20"]) == 0
    report = json.loads(capsys.readouterr().out)["workloads"]["plan_mm20"]
    assert report["objectives"] == solved
    assert report["solves"] > len(solved) == 2


def test_audit_digest_hashes_each_plan_audit(monkeypatch, capsys):
    # each solved plan is audited on its values and on perturbed copies of
    # them: equal runs give equal digests, and another audit result
    # another digest
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    from micro import micro_instance
    milp, seen = tool.milp, []

    def run_rep(name, inputs, outdir):
        scenario, _, net, needs, init = micro_instance(1)
        milp.PlanProblem(scenario, net, needs, init,
                         milp.SolveOptions(gap=0.0)).solve()
        return 0
    monkeypatch.setattr(tool.workloads, "run_rep", run_rep)
    audit = milp.audit

    def logged(problem, values, *args, **kwargs):
        seen.append(dict(values))
        return audit(problem, values, *args, **kwargs)
    monkeypatch.setattr(milp, "audit", logged)

    def digest():
        assert tool.main(["--workload", "plan_mm20"]) == 0
        report = json.loads(capsys.readouterr().out)["workloads"]
        return report["plan_mm20"]["audit_digest"]
    first = digest()
    assert len(seen) == 1 + tool.PERTURBATIONS
    assert all(copy != seen[0] for copy in seen[1:])
    assert digest() == first
    monkeypatch.setattr(milp, "audit", lambda problem, values: [
        milp.Violation("wet_mass", "x", 1.0)])
    assert digest() != first
