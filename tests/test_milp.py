import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from enum_oracle import oracle_best
from lp_text import parse_lp
from micro import micro_instance, micro_scenario

from oosplan.demand import ServiceNeed, build_window
from oosplan.lp import CONTINUOUS, Model, SolveResult
from oosplan.milp import (CommittedService, InitialState, ModelError,
                          PendingArrival, PlanProblem, SolveOptions, audit,
                          commit, extract_schedule, start_after, vn)
from oosplan.network import NetworkError, build_nodes, build_time_grid, expand
from oosplan.scenario import CustomerSat
from oosplan.trajectory import (PluginRegistry, TrajectoryError,
                                TrajectoryModel, ht_model, linearize,
                                lt_model)


def make_need(scn, service, sat, tau, grid):
    spec = scn.services[service]
    need = ServiceNeed(
        id=f"{sat}/{service}/0", satellite=sat, service_type=service, tau=tau,
        duration=spec.duration, revenue=spec.revenue,
        delay_penalty_per_day=spec.delay_penalty_per_day,
        commodity_demand=dict(spec.commodity_demand),
        required_tool=spec.required_tool)
    return build_window(need, grid, spec.window)


def full_loads(scn, vid):
    return dict(scn.vehicles[vid].capacities)


@pytest.fixture(scope="module")
def solved(multimodal):
    scn = multimodal
    sats = [CustomerSat("satA", -160.0)]
    nodes = build_nodes(scn, sats)
    grid = build_time_grid(scn.network.period, scn.network.offsets, 90)
    net = expand(nodes, grid, scn)
    need = make_need(scn, "refueling", "satA", 15.0, grid)
    init = InitialState(
        vehicle_nodes={"depot": "parking_0", "mm_versatile": "parking_0"},
        commodities={"depot": full_loads(scn, "depot"),
                     "mm_versatile": full_loads(scn, "mm_versatile")})
    problem = PlanProblem(scn, net, [need], init, SolveOptions(gap=0.0))
    solution = problem.solve()
    return problem, solution, need


def test_solves_to_optimality(solved):
    problem, solution, _ = solved
    assert solution.status == "optimal"
    assert solution.objective > 0


def test_components_sum_to_objective(solved):
    _, solution, _ = solved
    comp = solution.components
    assert comp["profit"] == pytest.approx(solution.objective, rel=1e-9)
    assert comp["revenues"] == pytest.approx(15e6)


def test_audit_clean(solved):
    problem, solution, _ = solved
    assert audit(problem, solution.values) == []


def test_audit_flags_exactly_perturbed_rows(solved):
    problem, solution, _ = solved
    values = dict(solution.values)
    grid = problem.grid
    t = grid.steps[3]
    name = vn("X", "depot", problem.presence["depot"][0], t, "spares")
    values[name] += 1.0
    violations = audit(problem, values)
    # the perturbed holdover breaks the node balance entering and leaving t,
    # and (since the depot starts full) the holdover capacity row at t
    t_next = t + grid.delta_forward(t)
    node = problem.presence["depot"][0]
    expected = {("mass_balance_parking", f"{node}|{t}|spares"),
                ("mass_balance_parking", f"{node}|{t_next}|spares"),
                ("capacity_holdover", f"depot|{node}|{t}|spares")}
    assert {(v.family, v.key) for v in violations} == expected


def test_depot_presence_is_fixed(solved):
    # a depot stays at its slot: its presence column is bound to one on
    # every grid step
    problem, _, _ = solved
    model = problem.model
    depots = [vid for vid, v in problem.active.items()
              if v.vehicle_class == "depot"]
    assert depots
    col = {key: j for j, key in enumerate(model.keys)}
    for vid in depots:
        for t in problem.grid.steps:
            j = col[vn("Y", vid, problem.presence[vid][0], t)]
            assert model.var_lb[j] == model.var_ub[j] == 1.0


def test_model_names_are_family_tagged(solved):
    # display names are formatted from the column keys; rows carry only
    # their family
    problem, _, _ = solved
    model = problem.model
    families = {"Y", "X", "W", "U", "Z", "L", "H", "B"}
    assert model.var_names
    assert all(nm.split("[", 1)[0] in families and nm.endswith("]")
               for nm in model.var_names)
    rows = {"bal_cust", "bal_park", "supply", "bal_veh", "veh_supply",
            "cap_hold", "cap_arc", "cap_payload", "wet_mass", "mass_ub",
            "prop_avail", "sk_avail", "sos2_seg", "assign_once", "dispatch",
            "one_service", "presence", "tool", "arrival"}
    assert {con.name for con in model.constraints} <= rows
    # a curve arc has one burn column L, and one sos2_seg row per chord of
    # its curve, the origin's included
    curves = [a for a in problem.arcs if not a.is_launch
              and a.model.burn_fraction is None]
    assert curves
    assert [k[1:] for k in model.keys if k[0] == "L"] \
        == [a.key for a in curves]
    assert sum(con.name == "sos2_seg" for con in model.constraints) == sum(
        len(a.model.breakpoints) for a in curves)
    a = problem.arcs[0]
    col = {key: j for j, key in enumerate(model.keys)}
    assert model.var_names[col[vn("W", *a.key)]] \
        == "W[" + "|".join(map(str, a.key)) + "]"


def test_schedule_events(solved):
    problem, solution, need = solved
    schedule = extract_schedule(problem, solution)
    assert schedule.outcomes[need.id] is not None
    vid, tau = schedule.outcomes[need.id]
    assert vid == "mm_versatile"
    assert tau in need.window
    kinds = [e.kind for e in schedule.events if e.vehicle == "mm_versatile"]
    assert "flight" in kinds and "service_start" in kinds
    starts = [e for e in schedule.events if e.kind == "service_start"]
    assert starts[0].detail["revenue"] == 15e6
    # the serving flight arrives exactly when the service starts
    arrivals = [e.detail["arrive_day"] for e in schedule.events
                if e.kind == "flight" and e.detail["to"] == "satA"]
    assert tau in arrivals


def test_unserved_without_capable_vehicle(multimodal):
    scn = multimodal
    sats = [CustomerSat("satA", -160.0)]
    nodes = build_nodes(scn, sats)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, scn)
    need = make_need(scn, "refueling", "satA", 15.0, grid)
    # the deployed servicer lacks the required tool
    init = InitialState(
        vehicle_nodes={"mm_specialized_2": "parking_0"},
        commodities={"mm_specialized_2": full_loads(scn, "mm_specialized_2")})
    problem = PlanProblem(scn, net, [need], init)
    solution = problem.solve()
    assert solution.feasible
    assert extract_schedule(problem, solution).outcomes[need.id] is None


def test_service_in_place_at_start(multimodal):
    # a servicer that starts the window parked at the customer, with no
    # service holding it there, serves there only once it lands, as on every
    # other step: it flies off on day 0 and starts the refueling on arrival
    scn = multimodal
    sats = [CustomerSat("satA", -160.0)]
    nodes = build_nodes(scn, sats, include_earth=False)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, scn)
    need = make_need(scn, "refueling", "satA", 0.0, grid)
    assert need.window[0] == 0
    init = InitialState(
        vehicle_nodes={"mm_versatile": "satA"},
        commodities={"mm_versatile": full_loads(scn, "mm_versatile")})
    problem = PlanProblem(scn, net, [need], init, SolveOptions(gap=0.0))
    solution = problem.solve()
    assert solution.feasible
    schedule = extract_schedule(problem, solution)
    vid, tau = schedule.outcomes[need.id]
    assert vid == "mm_versatile" and tau > 0
    flights = [e for e in schedule.events if e.kind == "flight"]
    assert (flights[0].day, flights[0].detail["from"]) == (0, "satA")
    assert tau in [e.detail["arrive_day"] for e in flights
                   if e.detail["to"] == "satA"]
    assert audit(problem, solution.values) == []


def test_committed_service_pins_vehicle(multimodal):
    scn = multimodal
    sats = [CustomerSat("satA", -160.0)]
    nodes = build_nodes(scn, sats, include_earth=False)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, scn)
    init = InitialState(
        vehicle_nodes={"mm_versatile": "satA"},
        commodities={"mm_versatile": full_loads(scn, "mm_versatile")},
        committed=(CommittedService(vehicle="mm_versatile", node="satA",
                                    start_day=0.0, end_day=20.0,
                                    need_id="prior"),))
    problem = PlanProblem(scn, net, [], init, SolveOptions(gap=0.0))
    solution = problem.solve()
    assert solution.feasible
    sat_idx = problem.node_by_name["satA"].index
    for t in (0, 2, 4, 10, 12, 14):
        assert solution.values[vn("Y", "mm_versatile", sat_idx, t)] \
            == pytest.approx(1.0)
    assert solution.values[vn("Y", "mm_versatile", sat_idx, 20)] \
        == pytest.approx(0.0)
    assert audit(problem, solution.values) == []


def test_one_service_at_a_time_counts_a_committed_service(multimodal):
    # mm_versatile runs a committed service at satA on days 0-60, so
    # mm_specialized_1 may not fly in and start the refueling of day 5
    # beside it: the refueling's window closes before day 60. The build
    # admits no such start, and of a refueling whose window straddles day
    # 60 only the starts whose service runs wholly after it
    scn = multimodal
    nodes = build_nodes(scn, [CustomerSat("satA", -160.0)],
                        include_earth=False)
    grid = build_time_grid(10, (2, 4), 90)
    net = expand(nodes, grid, scn)
    need = make_need(scn, "refueling", "satA", 5.0, grid)
    assert need.window[-1] < 60
    later = replace(make_need(scn, "refueling", "satA", 45.0, grid),
                    id="satA/refueling/1")
    assert later.window[0] < 60 <= later.window[-1]
    vids = ("mm_versatile", "mm_specialized_1")
    init = InitialState(
        vehicle_nodes={"mm_versatile": "satA",
                       "mm_specialized_1": "parking_0"},
        commodities={vid: full_loads(scn, vid) for vid in vids},
        committed=(CommittedService(vehicle="mm_versatile", node="satA",
                                    start_day=0.0, end_day=60.0,
                                    need_id="prior"),))
    problem = PlanProblem(scn, net, [need, later], init,
                          SolveOptions(gap=0.0))
    keys = problem.model.keys
    assert not [k for k in keys if k[0] in ("H", "B") and k[2] == need.id]
    after = [tau for tau in later.window if all(
        t >= 60 for t in grid.steps if later.covers(tau, t))]
    assert 0 < len(after) < len(later.window)
    assert [k for k in keys if k[0] == "H" and k[2] == later.id] == [
        vn("H", vid, later.id, tau) for vid in vids for tau in after]
    solution = problem.solve()
    assert solution.feasible
    assert extract_schedule(problem, solution).outcomes[need.id] is None
    assert audit(problem, solution.values) == []
    # the audit counts the committed service too
    i = problem.node_by_name["satA"].index
    values = {vn("B", "mm_specialized_1", need.id, t): 1.0 for t in (10, 12)}
    assert {v.key for v in audit(problem, values)
            if v.family == "one_service_at_a_time"} == {f"{i}|10", f"{i}|12"}


def test_a_committed_service_stays_while_it_pins_its_servicer(multimodal):
    # mm_versatile flies only 6-day high-thrust arcs, which leave x4 steps
    # alone: its service at satA ends on day 20, but it is held there until
    # day 24, so the window that starts on day 20 still holds the service
    v = multimodal.vehicles["mm_versatile"]
    v = replace(v, propulsion=(replace(v.mode("high_thrust"),
                                       flight_durations=(6,)),))
    scn = replace(multimodal, vehicles=dict(multimodal.vehicles,
                                            mm_versatile=v))
    nodes = build_nodes(scn, [CustomerSat("satA", -160.0)],
                        include_earth=False)
    service = CommittedService(vehicle="mm_versatile", node="satA",
                               start_day=0.0, end_day=20.0, need_id="prior")

    def solve(start, day):
        grid = build_time_grid(10, (2, 4), 90, start=day)
        problem = PlanProblem(scn, expand(nodes, grid, scn), [], start,
                              SolveOptions(gap=0.0))
        assert {a.t % 10 for a in problem.arcs} == {4}
        solution = problem.solve()
        assert solution.feasible
        assert audit(problem, solution.values) == []
        return problem, solution, extract_schedule(problem, solution)

    problem, solution, schedule = solve(InitialState(
        vehicle_nodes={"mm_versatile": "satA"},
        commodities={"mm_versatile": full_loads(scn, "mm_versatile")},
        committed=(service,)), 0)
    _, start = commit(problem, solution, schedule, 20)
    assert start.committed == (service,)
    assert start.vehicle_nodes == {"mm_versatile": "satA"}
    *_, schedule = solve(start, 20)
    flight = next(e for e in schedule.events if e.kind == "flight")
    assert (flight.day, flight.detail["from"]) == (24, "satA")


def pinned_instance_with_arrival(scn) -> PlanProblem:
    """The instance of ``test_committed_service_pins_vehicle``, plus a
    second servicer in flight to another customer with a need."""
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    nodes = build_nodes(scn, sats, include_earth=False)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, scn)
    init = InitialState(
        vehicle_nodes={"mm_versatile": "satA"},
        commodities={"mm_versatile": full_loads(scn, "mm_versatile")},
        pending_arrivals=(PendingArrival(
            "mm_specialized_1", "satB", 12,
            full_loads(scn, "mm_specialized_1")),),
        committed=(CommittedService(vehicle="mm_versatile", node="satA",
                                    start_day=0.0, end_day=20.0,
                                    need_id="prior"),))
    need = make_need(scn, "refueling", "satB", 10.0, grid)
    return PlanProblem(scn, net, [need], init, SolveOptions(gap=0.0))


_WRITE_LP = """
import sys
from oosplan.scenario import default_scenario_path, load_scenario
from test_milp import pinned_instance_with_arrival
scn = load_scenario(default_scenario_path("multimodal"))
pinned_instance_with_arrival(scn).model.write_lp(sys.argv[1])
"""


def test_model_text_independent_of_hash_seed(multimodal, tmp_path):
    # _prepare works over sets, so their iteration order must not reach
    # the model: two hash seeds, in two processes, write the same LP text
    problem = pinned_instance_with_arrival(multimodal)
    assert problem.pinned and len(problem.arriving) == 2
    assert any(a.j == problem.node_by_name["satB"].index
               for a in problem.arcs)
    root = Path(__file__).resolve().parent
    texts = []
    for seed in ("1", "2"):
        path = tmp_path / f"seed{seed}.lp"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root.parent / "src"), str(root)]))
        subprocess.run([sys.executable, "-c", _WRITE_LP, str(path)],
                       env=env, check=True, timeout=300)
        # lines, not one string: pytest diffs long strings very slowly
        texts.append(path.read_text().splitlines())
    assert texts[0] == texts[1]


def test_start_after_rejects_a_vehicle_neither_parked_nor_in_flight(solved):
    # the servicer, parked at the commit step, is taken off its state there
    # and off every flight leaving it
    problem, solution, _ = solved
    commit = problem.scenario.network.period
    vid = "mm_versatile"
    node = start_after(problem, solution, commit, []).vehicle_nodes[vid]
    s = (vid, problem.node_by_name[node].index, commit)
    col = {key: j for j, key in enumerate(problem.model.keys)}
    x = list(solution.x)
    x[col[vn("Y", *s)]] = 0.0
    for a in problem.dep_arcs.get(s, ()):
        x[col[vn("W", *a.key)]] = 0.0
    with pytest.raises(ModelError, match=f"vehicle {vid} is neither parked "
                                         f"nor in flight"):
        start_after(problem, replace(solution, x=x), commit, [])


def test_only_milp_reads_the_column_layout():
    # the build's column indices are private to ``milp``: no other module
    # reads a ``PlanProblem`` private attribute
    src = Path(__file__).resolve().parents[1] / "src" / "oosplan"
    layout = re.compile(r"\bproblem\._|\._(arc_cols|dep|arr|y|x|h|b|s0)\b")
    readers = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
               if path.name != "milp.py"
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if layout.search(line)]
    assert readers == []


def test_only_milp_decides_a_commit_and_cli_keeps_the_scenario():
    # the commit rule, and the world record it hands over, live in ``milp``
    # alone; the CLI runs the scenario it loaded, never a dict round trip
    src = Path(__file__).resolve().parents[1] / "src" / "oosplan"
    rule = re.compile(r"\b(CommittedService|PendingArrival|start_after)\("
                      r"|_committed_event_set")
    round_trip = re.compile(r"\bscenario_from_dict\b|\b(scn|scenario)"
                            r"\.to_dict\(")
    found = [f"{name}:{n}" for name, pattern in [("horizon.py", rule),
                                                 ("cli.py", round_trip)]
             for n, line in enumerate(
                 (src / name).read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_commit_keeps_the_service_start_a_committed_flight_flies_to(solved):
    # the servicer leaves on day 10 and lands on its service start on day
    # 20: a 20-day commit keeps the flight and, after every event before the
    # boundary, the start it flies to
    problem, solution, need = solved
    schedule = extract_schedule(problem, solution)
    boundary = 20
    flight, start = [e for e in schedule.events
                     if e.vehicle == "mm_versatile"][:2]
    assert flight.kind == "flight" and flight.day < boundary
    assert start.kind == "service_start"
    assert start.day == flight.detail["arrive_day"] >= boundary
    events, next_start = commit(problem, solution, schedule, boundary)
    assert events == [e for e in schedule.events if e.day < boundary] + [start]
    # the next window starts with the servicer busy, its service on the
    # campaign days the plan gave it
    assert next_start.committed == (CommittedService(
        vehicle="mm_versatile", node="satA", need_id=need.id,
        start_day=20, end_day=50),)
    assert (start.day, start.detail["end_day"]) == (20, 50)
    assert "mm_versatile" in next_start.vehicle_nodes


def test_servicer_left_at_a_customer_leaves_at_once(multimodal):
    # with no need and no commitment at the customer, its start step and an
    # in-flight arrival step are the only steps it can leave from
    scn = multimodal
    nodes = build_nodes(scn, [CustomerSat("satA", -160.0)],
                        include_earth=False)
    net = expand(nodes, build_time_grid(10, (2, 4), 60), scn)
    loads = full_loads(scn, "mm_versatile")
    for init, day in [
            (InitialState(vehicle_nodes={"mm_versatile": "satA"},
                          commodities={"mm_versatile": loads}), 0),
            (InitialState(pending_arrivals=(PendingArrival(
                "mm_versatile", "satA", 12, loads),)), 12)]:
        problem = PlanProblem(scn, net, [], init, SolveOptions(gap=0.0))
        solution = problem.solve()
        assert solution.feasible
        assert audit(problem, solution.values) == []
        flights = [e for e in extract_schedule(problem, solution).events
                   if e.kind == "flight"]
        assert (flights[0].day, flights[0].detail["from"]) == (day, "satA")


def test_initial_overload_rejected(multimodal):
    with pytest.raises(ModelError, match="exceeds capacity"):
        InitialState(vehicle_nodes={"mm_versatile": "parking_0"},
                     commodities={"mm_versatile": {"bipropellant": 99999.0}}
                     ).validate(multimodal)


def test_initial_load_round_off_over_capacity_accepted(multimodal):
    # a full depot tank as a campaign hand-over summed it: 6.5e-14
    # relative over its 20,000 kg capacity
    InitialState(vehicle_nodes={"depot": "parking_0"},
                 commodities={"depot": {"bipropellant": 20000.000000001302}}
                 ).validate(multimodal)


def test_extract_requires_feasible(solved):
    problem, _, _ = solved
    from oosplan.milp import Solution
    bad = Solution(status="infeasible", objective=None, values={})
    with pytest.raises(ModelError):
        extract_schedule(problem, bad)


def test_lp_export_cross_check(solved, tmp_path):
    # the exported LP file, parsed back independently, solves to the same value
    problem, solution, _ = solved
    path = tmp_path / "plan.lp"
    problem.model.write_lp(path)
    again = parse_lp(path)
    res = again.solve(gap=0.0)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(solution.objective, rel=1e-6)


def _segment_arcs(problem) -> set:
    """Arc keys carrying a burn column; no column is a segment binary."""
    assert not any(k[0] == "G" for k in problem.model.keys)
    return {k[1:7] for k in problem.model.keys if k[0] == "L"}


def _solve_against_oracle(scenario, net, needs, init):
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    solution = problem.solve()
    assert solution.status == "optimal"
    assert audit(problem, solution.values) == []
    assert solution.objective == pytest.approx(
        oracle_best(scenario, net, needs, init), rel=1e-6, abs=1e-3)
    return problem


def _curve_high_thrust(query, n_breakpoints):
    # a convex curve below the rocket-equation line, with no burn fraction
    f = ht_model(query).burn_fraction
    bps = linearize(lambda m: f * m * m / query.mass_max, query.mass_min,
                    query.mass_max, 5)
    return TrajectoryModel(breakpoints=bps, mass_upper_bound=query.mass_max,
                           kind="high_thrust")


def _concave_high_thrust(query, n_breakpoints):
    # a concave curve, 0.5·f·m·(2 − m/m_max) for the rocket-equation
    # fraction f: from the origin on, each chord is flatter than the last
    f = ht_model(query).burn_fraction
    bps = linearize(lambda m: 0.5 * f * m * (2.0 - m / query.mass_max),
                    query.mass_min, query.mass_max, 5)
    return TrajectoryModel(breakpoints=bps, mass_upper_bound=query.mass_max,
                           kind="high_thrust")


def _line_low_thrust(query, n_breakpoints):
    # the chord through the origin and the heaviest point of the curve
    curve = lt_model(query, n_breakpoints)
    hi = curve.breakpoints[-1][0]
    f = curve.breakpoints[-1][1] / hi
    return TrajectoryModel(
        breakpoints=((query.mass_min, f * query.mass_min), (hi, f * hi)),
        mass_upper_bound=curve.mass_upper_bound, kind="low_thrust",
        burn_fraction=f)


def _swapped_instance(seed):
    # a micro instance whose high-thrust arcs are curves and whose
    # low-thrust arcs are lines
    registry = PluginRegistry()
    registry.register("high_thrust", _curve_high_thrust)
    registry.register("low_thrust", _line_low_thrust)
    scenario, _, net, needs, init = micro_instance(seed)
    net = expand(net.nodes, net.grid, scenario, registry=registry)
    return scenario, net, needs, init


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_embedding_follows_model_shape_not_mode(seed):
    scenario, net, needs, init = _swapped_instance(seed)
    assert {a.model.burn_fraction is None for a in net.arcs} == {True, False}
    problem = _solve_against_oracle(scenario, net, needs, init)
    curve = {a.key for a in problem.arcs if a.model.burn_fraction is None}
    assert curve == {a.key for a in problem.arcs if a.r == "high_thrust"}
    assert problem.arcs
    assert _segment_arcs(problem) == curve


def test_a_concave_curve_is_refused_where_it_enters():
    # the model would price its burn as the largest chord line, above the
    # curve; a plan on it used to fail the audit instead
    registry = PluginRegistry.default()
    registry.register("high_thrust", _concave_high_thrust)
    scenario, _, net, _, _ = micro_instance(0)
    with pytest.raises(NetworkError, match=r"^the high_thrust plugin returned "
                       r"a burn curve that is not convex from the origin "
                       r"for TrajectoryQuery\(phase_angle="):
        expand(net.nodes, net.grid, scenario, registry=registry)


@pytest.mark.parametrize("drop, refused", [(1e-12, False), (1e-6, True)])
def test_convexity_is_checked_to_a_relative_tolerance(drop, refused):
    # a line through the origin, bent at its first breakpoint to a slope
    # ``drop`` (relative) below the first
    def bent(query, n_breakpoints):
        f = ht_model(query).burn_fraction
        lo, hi = query.mass_min, query.mass_max
        bent_at = f * lo + f * (1.0 - drop) * (hi - lo)
        return TrajectoryModel(breakpoints=((lo, f * lo), (hi, bent_at)),
                               mass_upper_bound=hi, kind="high_thrust")
    registry = PluginRegistry.default()
    registry.register("high_thrust", bent)
    scenario, _, net, _, _ = micro_instance(0)
    if refused:
        with pytest.raises(NetworkError, match="not convex"):
            expand(net.nodes, net.grid, scenario, registry=registry)
    else:
        net = expand(net.nodes, net.grid, scenario, registry=registry)
        assert any(a.r == "high_thrust" for a in net.arcs)


def test_oracle_suite_plans_pass_the_audit():
    # the burn column's upper bound caps the propellant that a burn above
    # the curve dumps: without it, seed 26 dumps 60 kg of xenon on its
    # low-thrust flight to lighten its high-thrust flight back, a plan of
    # the oracle's profit that the least-burn LP cannot repair
    for seed in range(50):
        scenario, _, net, needs, init = micro_instance(seed)
        problem = PlanProblem(scenario, net, needs, init,
                              SolveOptions(gap=0.0))
        assert audit(problem, problem.solve().values) == [], seed


def test_embedding_seeds_hold_both_shapes():
    # the seeds above put both shapes in their models between them, so the
    # per-arc checks there see curves and lines (seed 3 keeps one line arc)
    shapes = set()
    for seed in range(4):
        problem = PlanProblem(*_swapped_instance(seed))
        shapes |= {a.model.burn_fraction is None for a in problem.arcs}
    assert shapes == {True, False}


def _job(grid, sat, tau, revenue):
    return build_window(ServiceNeed(
        id=f"{sat}/job/0", satellite=sat, service_type="job", tau=tau,
        duration=4, revenue=revenue, delay_penalty_per_day=1e5,
        commodity_demand={"monopropellant": 50.0}, required_tool="T1"),
        grid, 20.0)


def test_zero_burn_arcs_get_no_segment_binaries():
    rng = np.random.default_rng(7)
    scenario = micro_scenario(rng)
    # sat0 sits at the parking longitude, so flights between them need no
    # phase change; the need at sat1 keeps curve arcs to it in the model
    sats = [CustomerSat("sat0", scenario.network.parking_longitudes[0]),
            CustomerSat("sat1", -160.0)]
    nodes = build_nodes(scenario, sats, include_earth=False)
    grid = build_time_grid(scenario.network.period, scenario.network.offsets,
                           30)
    net = expand(nodes, grid, scenario)
    needs = [_job(grid, "sat0", 6.0, 10e6), _job(grid, "sat1", 4.0, 8e6)]
    loads = dict(scenario.vehicles["servicer"].capacities)
    init = InitialState(vehicle_nodes={"servicer": "parking_0"},
                        commodities={"servicer": loads})
    problem = _solve_against_oracle(scenario, net, needs, init)
    lon = {n.index: n.longitude for n in nodes.nodes}
    low = {a.key for a in problem.arcs if a.r == "low_thrust"}
    zero = {a.key for a in problem.arcs
            if a.key in low and lon[a.i] == lon[a.j]}
    curve = low - zero
    assert zero and curve
    assert _segment_arcs(problem) == curve


def _over_burns(x, problem) -> bool:
    values = dict(zip(problem.model.keys, x))
    return any(v.family == "curve_burn" for v in audit(problem, values))


def test_second_stage_restores_adjacency():
    # nothing holds a curve arc's burn down onto its curve, so HiGHS may
    # leave it above the chord of the two adjacent breakpoints that bracket
    # Z; solve() must put it back exactly
    raw_over_burns = 0
    for seed in range(10):
        scenario, _, net, needs, init = micro_instance(seed)
        problem = _solve_against_oracle(scenario, net, needs, init)
        raw = problem.model.solve(gap=0.0)
        raw_over_burns += _over_burns(raw.x, problem)
    assert raw_over_burns >= 1


def test_second_stage_uses_the_same_backend(monkeypatch):
    scenario, _, net, needs, init = micro_instance(8)
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    model = problem.model
    built = (list(model.var_lb), list(model.var_ub), list(model.var_kind),
             dict(model.objective), len(model.constraints))
    solved = []
    through = Model.solve

    def logged(m, *args, **kwargs):
        res = through(m, *args, **kwargs)
        solved.append((m, res))
        return res
    monkeypatch.setattr(Model, "solve", logged)
    solution = problem.solve()
    # the first stage over-burned, and the min-burn LP was solved the same
    # way
    assert len(solved) == 2
    assert _over_burns(solved[0][1].x, problem)
    assert solved[1][0] is not model
    assert audit(problem, solution.values) == []
    assert solution.objective == pytest.approx(
        oracle_best(scenario, net, needs, init), rel=1e-6, abs=1e-3)
    assert solution.components["profit"] == solution.objective
    # the model is left as built
    assert built == (model.var_lb, model.var_ub, model.var_kind,
                     model.objective, len(model.constraints))


@pytest.mark.parametrize("seed", [157, 404])
def test_least_burn_tie_ends_on_neighbouring_weights(monkeypatch, seed):
    # near-straight curves, on which the least-burn LP over weights tied
    # and left one arc on breakpoints that were not neighbours: with the
    # burn as one column the first stage already ends on the chord of the
    # two that bracket Z, with no second stage, and the plan is optimal
    solved = []
    through = Model.solve

    def logged(m, *args, **kwargs):
        res = through(m, *args, **kwargs)
        solved.append(list(res.x))
        return res
    monkeypatch.setattr(Model, "solve", logged)
    scenario, _, net, needs, init = micro_instance(seed)
    problem = _solve_against_oracle(scenario, net, needs, init)
    assert len(solved) == 1
    assert not _over_burns(solved[0], problem)
    assert _segment_arcs(problem)


def test_an_over_burn_is_not_moved_onto_neighbours(monkeypatch):
    # only the least-burn LP lowers a first-stage over-burn: where it
    # returns no solution, solve() keeps the plan as HiGHS gave it, and
    # audit flags the burn above the curve
    scenario, _, net, needs, init = micro_instance(8)
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    x = problem.model.solve(gap=0.0).x
    assert _over_burns(x, problem)
    through = Model.solve

    def no_lp(m, *args, **kwargs):
        if m is problem.model:
            return through(m, *args, **kwargs)
        return SolveResult(status="infeasible", objective=None, iterations=0)
    monkeypatch.setattr(Model, "solve", no_lp)
    solution = problem.solve()
    assert solution.x == pytest.approx(x, abs=1e-6)
    assert {v.family for v in audit(problem, solution.values)} \
        == {"curve_burn"}


def test_customer_states_only_where_a_row_lets_them_be_nonzero():
    scenario = micro_scenario(np.random.default_rng(7))
    sats = [CustomerSat("sat0", -160.0), CustomerSat("sat1", 100.0)]
    nodes = build_nodes(scenario, sats, include_earth=False)
    grid = build_time_grid(scenario.network.period, scenario.network.offsets,
                           30)
    net = expand(nodes, grid, scenario)
    need = _job(grid, "sat0", 6.0, 10e6)
    assert need.window == (10, 12, 14, 20, 22, 24)
    loads = dict(scenario.vehicles["servicer"].capacities)
    init = InitialState(vehicle_nodes={"servicer": "parking_0"},
                        commodities={"servicer": loads})
    problem = _solve_against_oracle(scenario, net, [need], init)
    keys = problem.model.keys
    sat0, sat1 = (problem.node_by_name[s.name].index for s in sats)
    # no need and no commitment rests on sat1: no state and no arc there
    assert not [k for k in keys if k[0] in ("Y", "X") and k[2] == sat1]
    assert not [a for a in problem.arcs if sat1 in (a.i, a.j)]
    assert any(sat1 in (a.i, a.j) for a in net.arcs)
    # sat0 holds the window steps, the service steps (each start covers
    # four days) and the step after each; flights land only on the window
    # and leave only from a state
    steps = {k[3] for k in keys if k[0] == "Y" and k[2] == sat0}
    assert steps == {10, 12, 14, 20, 22, 24, 30}
    assert {a.arrival for a in problem.arcs if a.j == sat0} \
        <= set(need.window)
    assert {a.t for a in problem.arcs if a.i == sat0} <= steps


def test_flights_leave_a_customer_only_where_a_service_ends():
    scenario = micro_scenario(np.random.default_rng(7))
    sats = [CustomerSat("sat0", -160.0), CustomerSat("sat1", -150.0)]
    nodes = build_nodes(scenario, sats, include_earth=False)
    grid = build_time_grid(scenario.network.period, scenario.network.offsets,
                           30)
    net = expand(nodes, grid, scenario)
    needs = [_job(grid, "sat0", 6.0, 10e6),
             replace(_job(grid, "sat1", 2.0, 8e6), duration=10)]
    loads = dict(scenario.vehicles["servicer"].capacities)
    init = InitialState(vehicle_nodes={"servicer": "parking_0"},
                        commodities={"servicer": loads})
    problem = _solve_against_oracle(scenario, net, needs, init)
    customer = {n.index for n in nodes.customer}
    # ends[i, tau]: the steps that release a servicer starting a service at
    # node i on tau (None where the service runs past the horizon)
    ends: dict[tuple[int, int], set] = {}
    for need in needs:
        i = problem.node_by_name[need.satellite].index
        for tau in need.window:
            ends.setdefault((i, tau), set()).add(
                grid.next_step_at_or_after(tau + need.duration))
    release = {(i, e) for (i, _), es in ends.items() for e in es}
    leaving = {(a.i, a.t) for a in problem.arcs}
    for a in problem.arcs:
        assert a.i not in customer or (a.i, a.t) in release
        assert a.j not in customer or any(
            e is None or (a.j, e) in leaving for e in ends[a.j, a.arrival])
    assert {a.i for a in problem.arcs} & customer
    assert {a.j for a in problem.arcs} & customer
    # both rules drop arcs that the network offers: departures on a window
    # step that releases nothing, and landings from parking on a window step
    kept = {a.key for a in problem.arcs}
    assert [a for a in net.arcs if (a.i, a.t) in set(ends) - release]
    assert [a for a in net.arcs if a.i not in customer
            and (a.j, a.arrival) in ends and a.key not in kept]


def test_a_dropped_landing_strands_the_flight_that_led_to_it():
    # sat B can be left only towards sat A, and a service at A ends on a
    # step with no flight out, so the landing at A goes first and the
    # landing at B (whose only way out led there) on the next pass
    def high_thrust(query, n_breakpoints):
        if math.isclose(math.degrees(query.phase_angle), 20.0):
            raise TrajectoryError("B to parking")
        return ht_model(query)

    def low_thrust(query, n_breakpoints):
        raise TrajectoryError("no low-thrust arcs")
    registry = PluginRegistry()
    registry.register("high_thrust", high_thrust)
    registry.register("low_thrust", low_thrust)
    scenario = micro_scenario(np.random.default_rng(7))
    sats = [CustomerSat("A", -160.0), CustomerSat("B", -150.0)]
    nodes = build_nodes(scenario, sats, include_earth=False)
    grid = build_time_grid(10, (2, 4), 30)
    net = expand(nodes, grid, scenario, registry=registry)
    parking, a, b = (n.index for n in nodes.nodes)
    assert not [f for f in net.arcs if (f.i, f.j) == (b, parking)]

    def job(sat, tau, duration):
        return ServiceNeed(
            id=f"{sat}/job/0", satellite=sat, service_type="job", tau=tau,
            window=(tau,), duration=duration, revenue=10e6,
            commodity_demand={"monopropellant": 10.0}, required_tool="T1")
    needs = [job("B", 2, 8), job("A", 12, 12)]
    loads = dict(scenario.vehicles["servicer"].capacities)
    init = InitialState(vehicle_nodes={"servicer": "parking_0"},
                        commodities={"servicer": loads})
    problem = _solve_against_oracle(scenario, net, needs, init)
    # the network offers B -> A from the end of B's service (day 10) into
    # A's window, and flights into B's window; the model keeps neither
    assert [f for f in net.arcs
            if (f.i, f.j, f.t, f.arrival) == (b, a, 10, 12)]
    assert [f for f in net.arcs if (f.j, f.arrival) == (b, 2)]
    assert not [f for f in problem.arcs if {f.i, f.j} & {a, b}]


def test_absent_column_reads_as_zero(solved):
    # a state that _prepare left out has no column, so a row over it alone
    # is empty: skipped if it holds at zero, an error otherwise
    problem, _, _ = solved
    rows = problem.model.n_rows
    absent = ("mm_versatile", -1, 0)
    assert absent not in problem._y and vn("Y", *absent) not in problem.model
    problem._add("presence", {}, "==", 0.0)
    assert problem.model.n_rows == len(problem.model.constraints) == rows
    with pytest.raises(ModelError, match="cannot hold"):
        problem._add("presence", {}, "==", 1.0)


def _solve_off_integral(monkeypatch, offset: float):
    # Model.solve with every integer column of its result moved by offset
    through = Model.solve

    def moved(m, *args, **kwargs):
        res = through(m, *args, **kwargs)
        res.x = [v if kind == CONTINUOUS else v + offset
                 for v, kind in zip(res.x, m.var_kind)]
        return res
    monkeypatch.setattr(Model, "solve", moved)


def test_integer_columns_come_back_integral(monkeypatch):
    # a solver returns integer columns within its integrality tolerance;
    # solve() hands back exact integers and their profit
    registry = PluginRegistry.default()
    registry.register("low_thrust", _line_low_thrust)
    scenario, _, net, needs, init = micro_instance(0)
    net = expand(net.nodes, net.grid, scenario, registry=registry)
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    _solve_off_integral(monkeypatch, 1e-9)
    assert not _segment_arcs(problem)
    solution = problem.solve()
    integer = [solution.values[k] for k, kind in
               zip(problem.model.keys, problem.model.var_kind)
               if kind != CONTINUOUS]
    assert all(v == round(v) for v in integer)
    assert 1.0 in integer
    assert solution.objective == solution.components["profit"]
    assert audit(problem, solution.values) == []
    assert solution.objective == pytest.approx(
        oracle_best(scenario, net, needs, init), rel=1e-6, abs=1e-3)


def test_integer_column_off_by_more_than_the_tolerance_is_an_error(
        monkeypatch):
    # a solver returns integer columns 1e-3 off, beyond INT_TOL
    registry = PluginRegistry.default()
    registry.register("low_thrust", _line_low_thrust)
    scenario, _, net, needs, init = micro_instance(0)
    net = expand(net.nodes, net.grid, scenario, registry=registry)
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    _solve_off_integral(monkeypatch, 1e-3)
    first = next(name for name, kind in zip(problem.model.var_names,
                                            problem.model.var_kind)
                 if kind != CONTINUOUS)
    with pytest.raises(ModelError,
                       match=rf"non-integral value .* for {re.escape(first)}"):
        problem.solve()


# -- every audit family fires ---------------------------------------------------

@pytest.fixture(scope="module")
def two_needs(multimodal):
    # an inspection and a refueling at satA, both served by one servicer, in
    # a window with launch, line and curve arcs
    scn = multimodal
    grid = build_time_grid(scn.network.period, scn.network.offsets, 90)
    net = expand(build_nodes(scn, [CustomerSat("satA", -160.0)],
                             include_earth=True), grid, scn)
    needs = [make_need(scn, s, "satA", 15.0, grid)
             for s in ("refueling", "inspection")]
    init = InitialState(
        vehicle_nodes={"depot": "parking_0", "mm_versatile": "parking_0"},
        commodities={vid: full_loads(scn, vid)
                     for vid in ("depot", "mm_versatile")})
    problem = PlanProblem(scn, net, needs, init, SolveOptions(gap=0.0))
    solution = problem.solve()
    assert audit(problem, solution.values) == []
    return problem, solution


def _breaks(problem, values, family):
    """A column of the solved window, a value for it that breaks one row of
    audit ``family``, and the key of that row."""
    sv, ref, ins = "mm_versatile", "satA/refueling/0", "satA/inspection/0"
    park, sat = problem.presence["depot"][0], problem.node_by_name["satA"].index
    t = problem.grid.steps[3]
    # the servicer serves the refueling on this step, and the inspection
    # could be served on it too
    serve = next(t for t in problem.grid.steps
                 if values.get(vn("B", sv, ref, t)) == 1.0
                 and vn("B", sv, ins, t) in problem.model)

    def flight(flown, curve=None, to=None):
        return next(a for a in problem.arcs if not a.is_launch
                    and (values[vn("W", *a.key)] > 0.5) == flown
                    and (curve is None
                         or (a.model.burn_fraction is None) == curve)
                    and (to is None or a.j == to)
                    and math.isfinite(a.mass_upper_bound))

    flown, idle, curve = flight(True), flight(False), flight(False, True)
    prop = problem._mode_of(flown).propellant_commodity
    landing = flight(True, to=sat)
    launch = next(a for a in problem.arcs if a.is_launch)
    payload = problem.launchers[launch.vehicle].payload_capacity
    x_sv = vn("X", sv, sat, serve, "monopropellant")
    x_depot = vn("X", "depot", park, t, "spares")
    return {
        "mass_balance_customer": (x_sv, values[x_sv] + 1.0,
                                  (sv, sat, serve, "monopropellant")),
        "mass_balance_parking": (x_depot, values[x_depot] + 1.0,
                                 (park, t, "spares")),
        "vehicle_balance": (vn("Y", "depot", park, t), 0.0,
                            ("depot", park, t)),
        "capacity_holdover": (x_depot, 20001.0, ("depot", park, t, "spares")),
        "capacity_arc": (vn("U", *idle.key, prop), 1.0, (*idle.key, prop)),
        "negative_inflow": (vn("U", *flown.key, prop), 0.0,
                            (*flown.key, prop)),
        "capacity_payload": (vn("U", *launch.key, "spares"), payload + 1.0,
                             launch.key),
        "wet_mass": (vn("Z", *flown.key), values[vn("Z", *flown.key)] + 1.0,
                     flown.key),
        "mass_upper_bound": (vn("Z", *idle.key), 1.0, idle.key),
        "curve_burn": (vn("L", *curve.key), 1.0, curve.key),
        "assign_once": (vn("H", sv, ref, problem.needs[0].window[0]), 1.0,
                        (ref,)),
        "dispatch_coupling": (vn("B", sv, ref, serve), 0.0, (sv, ref, serve)),
        "one_service_at_a_time": (vn("B", sv, ins, serve), 1.0, (sat, serve)),
        "presence_dispatch": (vn("Y", sv, sat, serve), 0.0, (sv, sat, serve)),
        "tool_on_board": (vn("X", sv, sat, serve, "T1"), 0.0,
                          (sv, sat, serve, "T1")),
        "arrival_at_start": (vn("W", *landing.key), 0.0,
                             (sv, sat, landing.arrival)),
    }[family]


AUDIT_FAMILIES = (
    "mass_balance_customer", "mass_balance_parking", "vehicle_balance",
    "capacity_holdover", "capacity_arc", "negative_inflow",
    "capacity_payload", "wet_mass", "mass_upper_bound", "curve_burn",
    "assign_once", "dispatch_coupling", "one_service_at_a_time",
    "presence_dispatch", "tool_on_board", "arrival_at_start")


@pytest.mark.parametrize("family", AUDIT_FAMILIES)
def test_audit_family_fires_on_the_row_of_a_perturbed_value(two_needs,
                                                            family):
    problem, solution = two_needs
    values = dict(solution.values)
    col, value, key = _breaks(problem, values, family)
    assert col in problem.model and values[col] != value
    values[col] = value
    fired = {(v.family, v.key) for v in audit(problem, values)}
    assert (family, "|".join(map(str, key))) in fired


@pytest.mark.parametrize("shift", [1.0, -1.0])
def test_audit_flags_a_burn_off_the_curve(two_needs, shift):
    # one flown curve arc burns a kilogram above or below its curve
    problem, solution = two_needs
    values = dict(solution.values)
    a = next(a for a in problem.arcs if not a.is_launch
             and a.model.burn_fraction is None
             and values[vn("W", *a.key)] > 0.5)
    assert values[vn("L", *a.key)] > 1.0
    values[vn("L", *a.key)] += shift
    fired = {v.key: v.residual for v in audit(problem, values)
             if v.family == "curve_burn"}
    assert fired == {"|".join(map(str, a.key)): pytest.approx(shift)}


def _census_families():
    """The column and row families that the benchmark's census counts."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.COL_FAMILIES), set(spans.ROW_FAMILIES)


def test_every_model_family_is_in_the_benchmark_census(solved):
    # a tag that the census does not list makes every per-family metric of
    # a traced benchmark run unreadable
    cols, rows = _census_families()
    scenario, _, net, needs, init = micro_instance(0)
    micro = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    assert _segment_arcs(micro)
    for problem in (solved[0], micro):
        model = problem.model
        assert {k[0] for k in model.keys} <= cols
        assert {con.name for con in model.constraints} <= rows


def test_highs_reports_its_simplex_iterations():
    scenario, _, net, needs, init = micro_instance(0)
    problem = PlanProblem(scenario, net, needs, init, SolveOptions(gap=0.0))
    res = problem.model.solve(gap=0.0)
    assert type(res.iterations) is int and res.iterations > 0
    solution = problem.solve()
    assert solution.iterations == res.iterations
