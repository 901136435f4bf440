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
        x = m.add_vars(["x"], [0.0], [4.0], [lp.INTEGER])
        m.objective[x] = 1.0
        m.add_rows("cap", "<=", [rhs], (np.array([0]), np.array([x]), 2.0))
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


def test_digest_counts_model_sizes_and_highs_work(monkeypatch, capsys):
    # the tiny model twice: its columns per key tag and its rows and
    # nonzeros per family, summed over both solves, and the two HiGHS
    # calls with the iterations and nodes that the solves report
    tool = _load_tool(monkeypatch)
    _stub_workload(monkeypatch, tool)
    lp, results = tool.lp, []

    def run_rep(name, inputs, outdir):
        for _ in range(2):
            m = lp.Model("tiny")
            x = m.add_vars([("x", 1), "y"], [0.0] * 2, [4.0, 1.0],
                           [lp.INTEGER, lp.CONTINUOUS])
            y = x + 1
            m.objective[x] = 1.0
            m.add_rows("cap", "<=", [5.0], (np.array([0, 0]),
                                            np.array([x, y]),
                                            np.array([2.0, 0.0])))
            results.append(m.solve())
        return 0
    monkeypatch.setattr(tool.workloads, "run_rep", run_rep)
    assert tool.main(["--workload", "plan_mm20"]) == 0
    report = json.loads(capsys.readouterr().out)["workloads"]["plan_mm20"]
    assert report["model"] == {"columns": {"x": 2, "y": 2},
                               "rows": {"cap": 2}, "nonzeros": {"cap": 2}}
    assert report["highs"] == {
        "calls": 2, "iterations": sum(r.iterations for r in results),
        "nodes": sum(r.nodes for r in results)}
    assert all(r.nodes is not None for r in results)


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


def test_replay_repeats_its_counts_on_a_few_oracle_calls(monkeypatch,
                                                         capsys):
    # the HiGHS calls of three oracle instances, each replayed under the
    # ten random seeds: a second run prints the same calls, iterations and
    # tie counts, and HiGHS's options and ``lp.milp`` are restored
    tool = _load_tool(monkeypatch)
    wl, lp = tool.workloads, tool.lp
    monkeypatch.setitem(wl.WORKLOADS, "oracle_micro50",
                        dict(wl.WORKLOADS["oracle_micro50"], instances=3))
    options, highs_milp = dict(lp.HIGHS_OPTIONS), lp.milp
    reports = []
    for _ in range(2):
        assert tool.main(["--replay", "--workload", "oracle_micro50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["random_seeds"] == list(range(10))
        reports.append(out["workloads"]["oracle_micro50"])
    assert lp.HIGHS_OPTIONS == options and lp.milp is highs_milp
    first, second = reports
    assert first["milps"] == 3 <= first["calls"]
    assert {k: first[k] for k in ("calls", "milps", "iterations", "ties")} \
        == {k: second[k] for k in ("calls", "milps", "iterations", "ties")}
    seconds = first["highs_s"]
    assert 0.0 < seconds["min"] <= seconds["median"] <= seconds["max"]


def test_replay_counts_the_milps_whose_decisions_move(monkeypatch):
    # a stand-in for HiGHS whose answer depends on the random seed: only
    # the MILP whose integer columns move counts as a tie, not one whose
    # continuous column moves, nor one whose zero changes its sign, nor an
    # LP; the iterations are summed per seed
    tool = _load_tool(monkeypatch)
    lp = tool.lp

    def fake(*args, case):
        seed = lp.HIGHS_OPTIONS["random_seed"]
        x = {"tie": [seed % 2, 1 - seed % 2, 0.5],
             "continuous": [1.0, 0.0, seed / 10],
             "signed zero": [-0.0 if seed % 2 else 0.0, 1.0, 0.0],
             "lp": [seed, 0.0, 0.0]}[case]
        return lp.HighsResult(0, "Optimal", x=np.array(x, dtype=float),
                              simplex_iteration_count=seed)
    monkeypatch.setattr(lp, "milp", fake)
    calls = [((None,) * 8 + (np.array(kinds),), {"case": case})
             for case, kinds in (("tie", [1, 1, 0]),
                                 ("continuous", [1, 1, 0]),
                                 ("signed zero", [1, 1, 0]),
                                 ("lp", [0, 0, 0]))]
    report = tool.replay(calls)
    assert "random_seed" not in lp.HIGHS_OPTIONS
    assert (report["calls"], report["milps"], report["ties"]) == (4, 3, 1)
    assert report["iterations"] == {"median": 18.0, "min": 0, "max": 36}
