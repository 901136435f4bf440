"""Outside-in layer tracing for the benchmark.

Spans are recorded by rebinding the program's public entry points inside the
benchmark process, so nothing under ``src/`` changes. Every module of the
``oosplan`` package that holds a reference to a traced function gets the
wrapper, so a call is traced whichever namespace it goes through.

A span is ``[name, start, end, parent, run_id]``; spans stay in memory and are
written out with the run's record. A layer's self time is its span's duration
minus the time its child spans cover, so the self times of all layers add up
to the wall time of the root span.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: span name -> (layer metric that takes its self time)
SELF_METRIC = {
    "run": "cli.self_s",
    "horizon.step": "horizon.self_s",
    "network.expand": "network.expand_s",
    "demand.window_needs": "demand.window_s",
    "milp.build": "milp.build_s",
    "milp.solve": "milp.post_s",
    "lp.solve": "lp.assemble_s",
    "lp.highs": "lp.highs_s",
    "milp.audit": "milp.audit_s",
    "milp.extract": "milp.extract_s",
    "trace.census": "trace.census_s",
}
# trajectory spans are named "trajectory.<mode kind>" and share one metric
TRAJECTORY_METRIC = "trajectory.busy_s"

COL_FAMILIES = ("Y", "X", "W", "U", "Z", "L", "G", "H", "B", "S0")
ROW_FAMILIES = ("bal_cust", "bal_park", "supply", "bal_veh", "veh_supply",
                "cap_hold", "cap_arc", "cap_payload", "wet_mass", "mass_ub",
                "prop_avail", "sk_avail", "sos2_sum", "sos2_mass", "sos2_seg",
                "sos2_adj", "assign_once", "dispatch", "one_service",
                "presence", "tool", "arrival")

COUNTERS = ("trajectory.calls", "trajectory.feasible", "network.arcs_built",
            "network.arcs_in_model", "network.arcs_flown",
            "demand.needs_windowed", "lp.solves", "lp.nodes",
            "milp.audit_violations", "milp.events", "horizon.steps")
CENSUS = (("milp.cols", "milp.int_cols", "milp.rows", "milp.nnz")
          + tuple(f"milp.cols.{f}" for f in COL_FAMILIES)
          + tuple(f"milp.int_cols.{f}" for f in COL_FAMILIES)
          + tuple(f"milp.rows.{f}" for f in ROW_FAMILIES)
          + tuple(f"milp.nnz.{f}" for f in ROW_FAMILIES))


def _family(name: str) -> str:
    return name.split("[", 1)[0]


class Tracer:
    """Span recorder plus the counters read at the same call boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.census = dict.fromkeys(CENSUS, 0)
        self.census_unreadable = 0
        self.gap_max = 0.0
        self.step_objectives: list = []
        self.needs_served = 0
        self.needs_lost = 0

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` runs once
        the span has closed, so its cost lands in the caller's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, perf_counter(), None, parent, tracer.run_id]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def root(self, run_id: str, fn, *args, **kwargs):
        """Run one repetition of a workload under a root span."""
        self.run_id = run_id
        return self.wrap("run", fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind the traced entry points in every oosplan namespace."""
        from oosplan import demand, horizon, lp, milp, network, trajectory

        def rebind(target, replacement):
            for modname, mod in list(sys.modules.items()):
                if modname != "oosplan" and not modname.startswith("oosplan."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is target:
                        setattr(mod, attr, replacement)

        rebind(network.expand, self.wrap(
            "network.expand", network.expand, self._after_expand))
        rebind(demand.window_needs, self.wrap(
            "demand.window_needs", demand.window_needs, self._after_window))
        rebind(milp.audit, self.wrap("milp.audit", milp.audit,
                                     self._after_audit))
        rebind(milp.extract_schedule, self.wrap(
            "milp.extract", milp.extract_schedule, self._after_extract))
        rebind(horizon.step, self.wrap("horizon.step", horizon.step,
                                       self._after_step))
        rebind(lp.milp, self.wrap("lp.highs", lp.milp, self._after_highs))

        cls = milp.PlanProblem
        init = self.wrap("milp.build", cls.__init__)
        census = self.wrap("trace.census", self._census)

        def build_and_count(problem, *args, **kwargs):
            init(problem, *args, **kwargs)
            census(problem)
        cls.__init__ = functools.wraps(cls.__init__)(build_and_count)
        cls.solve = self.wrap("milp.solve", cls.solve)
        lp.Model.solve = self.wrap("lp.solve", lp.Model.solve,
                                   self._after_model_solve)

        get = trajectory.PluginRegistry.get

        def traced_get(registry, kind):
            return self._wrap_plugin(f"trajectory.{kind}", get(registry, kind))
        trajectory.PluginRegistry.get = traced_get

    def _wrap_plugin(self, name, plugin):
        traced = self.wrap(name, plugin)

        @functools.wraps(plugin)
        def counted(*args, **kwargs):
            self.counts["trajectory.calls"] += 1
            result = traced(*args, **kwargs)
            self.counts["trajectory.feasible"] += 1
            return result
        return counted

    # -- counters read at the boundaries ------------------------------------

    def _after_expand(self, net, args, kwargs):
        self.counts["network.arcs_built"] += len(net.arcs)

    def _after_window(self, needs, args, kwargs):
        self.counts["demand.needs_windowed"] += len(needs)

    def _after_audit(self, violations, args, kwargs):
        self.counts["milp.audit_violations"] += len(violations)

    def _after_extract(self, schedule, args, kwargs):
        self.counts["milp.events"] += len(schedule.events)
        self.counts["network.arcs_flown"] += sum(
            1 for e in schedule.events if e.kind in ("flight", "launch"))

    def _after_step(self, result, args, kwargs):
        state = args[3] if len(args) > 3 else kwargs["state"]
        self.counts["horizon.steps"] += 1
        self.step_objectives.append(result.objective)
        self.needs_served = len(state.served)
        self.needs_lost = len(state.lost)

    def _after_highs(self, res, args, kwargs):
        self.counts["lp.nodes"] += int(getattr(res, "mip_node_count", 0) or 0)
        gap = getattr(res, "mip_gap", None)
        if gap is not None and gap == gap:
            self.gap_max = max(self.gap_max, float(gap))

    def _after_model_solve(self, result, args, kwargs):
        self.counts["lp.solves"] += 1

    def _census(self, problem):
        """Model size per family, read from the names of the built model.

        Families are the name prefix before ``[``. Names outside the known
        families are counted as unreadable, and then the per-family counts
        are reported missing rather than wrong.
        """
        from oosplan.lp import CONTINUOUS
        self.counts["network.arcs_in_model"] += len(problem.arcs)
        model = problem.model
        c = self.census
        c["milp.cols"] += model.n_vars
        for name, kind in zip(model.var_names, model.var_kind):
            fam = _family(name)
            integer = kind != CONTINUOUS
            c["milp.int_cols"] += integer
            if fam in COL_FAMILIES:
                c[f"milp.cols.{fam}"] += 1
                c[f"milp.int_cols.{fam}"] += integer
            else:
                self.census_unreadable += 1
        for con in model.constraints:
            fam = _family(con.name)
            nnz = sum(1 for v in con.coeffs.values() if v != 0.0)
            c["milp.rows"] += 1
            c["milp.nnz"] += nnz
            if fam in ROW_FAMILIES:
                c[f"milp.rows.{fam}"] += 1
                c[f"milp.nnz.{fam}"] += nnz
            else:
                self.census_unreadable += 1

    # -- arithmetic ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def check(self) -> list[str]:
        """Problems with the span arithmetic; empty when it is sound."""
        problems = []
        spans = self.spans
        for i, s in enumerate(spans):
            if s[2] is None or s[2] < s[1]:
                problems.append(f"span {i} {s[0]} not closed in order")
            elif s[3] is not None:
                p = spans[s[3]]
                if not (p[1] <= s[1] and s[2] <= p[2]):
                    problems.append(f"span {i} {s[0]} outside parent {p[0]}")
        if problems:
            return problems
        selfs = self.self_times()
        for i, v in enumerate(selfs):
            if v < -1e-9:
                problems.append(f"span {i} {spans[i][0]} self time {v}")
        wall = sum(s[2] - s[1] for s in spans if s[3] is None)
        layers = sum(self.layer_self_times().values())
        if abs(layers - wall) > 1e-9 * max(1.0, wall) + 1e-9:
            problems.append(f"layer self times {layers} != wall {wall}")
        return problems

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(list(SELF_METRIC.values()) + [TRAJECTORY_METRIC],
                            0.0)
        for s, v in zip(self.spans, self.self_times()):
            if s[0].startswith("trajectory."):
                out[TRAJECTORY_METRIC] += v
            else:
                out[SELF_METRIC[s[0]]] += v
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters of the traced reps."""
        m = self.layer_self_times()
        m["horizon.step_s"] = sum(s[2] - s[1] for s in self.spans
                                  if s[0] == "horizon.step")
        counts = self.counts
        for key in COUNTERS:
            if key != "trajectory.feasible":
                m[key] = counts[key]
        m["trajectory.feasible_ratio"] = (
            counts["trajectory.feasible"] / counts["trajectory.calls"]
            if counts["trajectory.calls"] else 1.0)
        m["network.arc_use_ratio"] = (
            counts["network.arcs_flown"] / counts["network.arcs_built"]
            if counts["network.arcs_built"] else 0.0)
        m["lp.gap_max"] = self.gap_max
        m["horizon.needs_served"] = self.needs_served
        m["horizon.needs_lost"] = self.needs_lost
        for key, value in self.census.items():
            per_family = key.count(".") == 2
            m[key] = None if per_family and self.census_unreadable else value
        return m

    def record(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "run_id": s[4]} for s in self.spans]
