"""The benchmark's tracer (``benchmarks/spans.py``, read, not changed) still
sees every layer it times: a short campaign traced as the benchmark traces
it gives sound span arithmetic, a readable census, and one build and one
audit per step. An entry point moved where the tracer does not rebind it
fails here rather than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from oosplan import demand, horizon, lp, milp, network, trajectory
from oosplan.demand import DemandStream, ServiceNeed
from oosplan.scenario import CustomerSat

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _restore_after(monkeypatch):
    """Register for restoring everything ``Tracer.install`` rebinds: the
    traced functions in every oosplan module, and the wrapped methods."""
    traced = {id(f) for f in (network.expand, demand.window_needs,
                              milp.audit, milp.extract_schedule,
                              horizon.step, lp.milp)}
    for name, module in list(sys.modules.items()):
        if name == "oosplan" or name.startswith("oosplan."):
            for attr, value in list(vars(module).items()):
                if id(value) in traced:
                    monkeypatch.setattr(module, attr, value)
    for owner, attr in ((milp.PlanProblem, "__init__"),
                        (milp.PlanProblem, "solve"), (lp.Model, "solve"),
                        (trajectory.PluginRegistry, "get")):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))


def test_tracer_sees_every_build_and_audit(multimodal, monkeypatch):
    _restore_after(monkeypatch)
    tracer = _tracer_module().Tracer()
    tracer.install()
    spec = multimodal.services["refueling"]
    need = ServiceNeed(id="satA/refueling/0", satellite="satA",
                       service_type=spec.id, tau=12.0,
                       duration=spec.duration, revenue=spec.revenue,
                       delay_penalty_per_day=spec.delay_penalty_per_day,
                       commodity_demand=dict(spec.commodity_demand),
                       required_tool=spec.required_tool)
    horizon.run(multimodal, [CustomerSat("satA", -160.0)],
                DemandStream(needs=(need,)), horizon_days=30)

    assert tracer.check() == []
    assert tracer.census_unreadable == 0
    names = [s[0] for s in tracer.spans]
    steps = [n for n, name in enumerate(names) if name == "horizon.step"]
    assert len(steps) == 3
    for step in steps:
        inside = [s[0] for s in tracer.spans if s[3] == step]
        assert inside.count("milp.build") == 1
        assert inside.count("milp.audit") == 1
    assert tracer.counts["lp.solves"] >= 3
