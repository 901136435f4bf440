"""The rows and bounds that ``milp.audit`` does not re-check, re-checked from
the problem's raw inputs (the scenario, the network, the initial state):

- ``veh_supply``: at most one launch per launcher per Earth step;
- ``supply``: at most ``EARTH_SUPPLY`` of each commodity per Earth step;
- ``sk_avail``: a vehicle's station-keeping stock covers its next holdover;
- ``bounds``: every column within the bounds that its vehicle, arc or
  family gives it.

The checks run on the 50 micro solutions of the oracle suite, on two solved
multimodal windows and on every step of the one-year five-satellite
multimodal campaign; each one fires on one perturbed value.
"""

from __future__ import annotations

import pytest
from micro import micro_instance
from test_horizon import launch  # noqa: F401  (a fixture)
from test_milp import two_needs  # noqa: F401  (a fixture)

from oosplan import horizon
from oosplan.cli import EXIT_OK, main
from oosplan.milp import EARTH_SUPPLY, PlanProblem, SolveOptions, vn

TOL = 1e-6
# families whose columns are binary
UNIT = {"Y", "W", "H", "B"}


def unaudited(problem: PlanProblem, values: dict[tuple, float]) -> list:
    """``(check, key, residual)`` for every violation of the four checks."""
    scn, grid, net = problem.scenario, problem.grid, problem.net
    out = []

    def val(*key):
        return values.get(key, 0.0)

    def flag(check, key, residual):
        if residual > TOL:
            out.append((check, key, residual))

    launches: dict[tuple[int, int], list] = {}
    for a in net.arcs:
        if a.is_launch:
            launches.setdefault((a.i, a.t), []).append(a)
    for (i, t), arcs in launches.items():
        for vid in {a.vehicle for a in arcs}:
            flag("veh_supply", (vid, i, t),
                 sum(val("W", *a.key) for a in arcs if a.vehicle == vid) - 1)
        for k in scn.commodities:
            flag("supply", (i, t, k),
                 sum(val("U", *a.key, k) for a in arcs) - EARTH_SUPPLY)

    for vid, v in problem.init.active_vehicles(scn).items():
        k = v.station_keeping_commodity
        if not (v.station_keeping_rate > 0 and v.capacities.get(k, 0) > 0):
            continue
        for node in net.nodes.orbital:
            for t in grid.steps:
                burn = v.station_keeping_rate * grid.delta_forward(t) \
                    * val("Y", vid, node.index, t)
                flag("sk_avail", (vid, node.index, t),
                     burn - val("X", vid, node.index, t, k))

    arcs = {a.key: a for a in net.arcs}
    for key, value in values.items():
        tag = key[0]
        lo, hi = 0.0, 1.0
        if tag == "Y" and scn.vehicles[key[1]].vehicle_class == "depot":
            lo = 1.0                    # a depot stays at its slot
        elif tag in ("X", "U"):
            hi = scn.vehicles[key[1]].capacities[key[-1]]
        elif tag == "Z":
            hi = arcs[key[1:]].model.mass_upper_bound
        elif tag == "L":
            # a curve arc's burn, at most its curve's at its heaviest point
            hi = arcs[key[1:]].model.breakpoints[-1][1]
        elif tag not in UNIT:
            raise AssertionError(f"no bounds for column {key}")
        flag("bounds", key, max(lo - value, value - hi))
    return out


def test_micro_solutions_hold_every_unaudited_row():
    for seed in range(50):
        scenario, _, net, needs, init = micro_instance(seed)
        problem = PlanProblem(scenario, net, needs, init,
                              SolveOptions(gap=0.0))
        solution = problem.solve()
        assert solution.values
        assert unaudited(problem, solution.values) == [], seed


def test_launch_windows_hold_every_unaudited_row(two_needs, launch):
    *_, problem, solution, _ = launch
    for problem, solution in (two_needs, (problem, solution)):
        assert any(a.is_launch for a in problem.arcs)
        assert unaudited(problem, solution.values) == []


def test_every_campaign_step_holds_every_unaudited_row(tmp_path, monkeypatch):
    # the one-year five-satellite multimodal campaign; each step's audit
    # also runs the checks
    found = []
    audit = horizon.audit

    def checked(problem, values, *args, **kwargs):
        found.append(unaudited(problem, values))
        return audit(problem, values, *args, **kwargs)
    monkeypatch.setattr(horizon, "audit", checked)
    catalog = tmp_path / "sats.csv"
    catalog.write_text("name,longitude_deg\n" + "".join(
        f"gx{i},{lon}\n" for i, lon in
        enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))))
    assert main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog), "--seed", "42",
                 "--horizon-days", "360",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(found) == 36
    assert found == [[]] * 36


def _perturbed(problem, check):
    """A column, a value for it that breaks ``check``, and the key the
    check flags."""
    launch = next(a for a in problem.arcs if a.is_launch)
    depot = problem.init.vehicle_nodes["depot"]
    i = problem.node_by_name[depot].index
    t = problem.grid.steps[0]
    if check == "veh_supply":
        return vn("W", *launch.key), 2.0, (launch.vehicle, launch.i, launch.t)
    if check == "supply":
        return (vn("U", *launch.key, "spares"), EARTH_SUPPLY + 1.0,
                (launch.i, launch.t, "spares"))
    if check == "sk_avail":
        k = problem.scenario.vehicles["depot"].station_keeping_commodity
        return vn("X", "depot", i, t, k), 0.0, ("depot", i, t)
    col = vn("Y", "depot", i, t)
    return col, 0.0, col


@pytest.mark.parametrize("check",
                         ["veh_supply", "supply", "sk_avail", "bounds"])
def test_each_check_fires_on_a_perturbed_value(two_needs, check):
    problem, solution = two_needs
    values = dict(solution.values)
    col, value, key = _perturbed(problem, check)
    assert col in problem.model and values[col] != value
    values[col] = value
    fired = {(c, k) for c, k, _ in unaudited(problem, values)}
    assert (check, key) in fired
