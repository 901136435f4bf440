import json
from dataclasses import replace

import pytest

from oosplan.demand import (DemandStream, ServiceNeed, generate_stream,
                            window_needs)
from oosplan.horizon import (COST_BUCKETS, Ledger, RhConfig, WorldState,
                             initial_state, run, step, visible_needs,
                             window_problem)
from oosplan.milp import (InitialState, PendingArrival, PlanProblem,
                          SolveOptions, commit, extract_schedule, vn)
from oosplan.network import build_nodes, build_time_grid, expand
from oosplan.scenario import CustomerSat
from oosplan.trajectory import (PluginRegistry, TrajectoryError,
                                TrajectoryModel, lt_model)


def test_ledger_value_identity():
    led = Ledger(initial_investment=10e6)
    led.book(5.0, "revenues", 20e6)
    led.book(12.0, "launch", 3e6)
    led.book(12.0, "pdm", 1e6)
    led.book(31.0, "revenues", 8e6)
    led.book(40.0, "servicer_ops", 0.5e6)
    assert led.value() == pytest.approx(20e6 + 8e6 - 10e6 - 3e6 - 1e6 - 0.5e6)
    for row in led.rows([10, 20, 30, 40, 50]):
        assert row.value == pytest.approx(
            row.revenues - led.initial_investment - row.launch - row.pdm
            - row.delay - row.depot_ops - row.servicer_ops)


def test_ledger_row_bucketing():
    led = Ledger(initial_investment=0.0)
    led.book(0.0, "revenues", 1.0)
    led.book(10.0, "revenues", 2.0)   # exactly on a boundary: next row
    led.book(25.0, "revenues", 4.0)   # beyond the last boundary: final row
    rows = led.rows([10, 20])
    assert rows[0].revenues == pytest.approx(1.0)
    assert rows[1].revenues == pytest.approx(7.0)


def test_ledger_zero_bookings_dropped():
    led = Ledger()
    led.book(1.0, "launch", 0.0)
    assert led.bookings == []


def test_export_csv_round_trips_floats(tmp_path):
    led = Ledger(initial_investment=0.1)
    led.book(1.0, "revenues", 0.2)
    path = tmp_path / "ledger.csv"
    led.export_csv(path, [10])
    header, row = path.read_text().splitlines()
    assert header.split(",")[0] == "day"
    fields = row.split(",")
    assert float(fields[1]) == 0.2
    assert float(fields[-1]) == 0.2 - 0.1


def test_initial_state_investment(multimodal):
    state, investment = initial_state(multimodal)
    deployed = {d.vehicle for d in multimodal.deployments}
    assert set(state.start.vehicle_nodes) == deployed
    expected = 0.0
    for vid in deployed:
        v = multimodal.vehicles[vid]
        assert state.start.commodities[vid] == v.capacities
        expected += v.manufacturing_cost
        expected += sum(multimodal.commodities[k].purchase_cost * qty
                        for k, qty in v.capacities.items())
    assert investment == pytest.approx(expected)
    assert state.day == 0 and not state.start.pending_arrivals \
        and not state.start.committed


def _need(nid, tau, service):
    return ServiceNeed(id=nid, satellite="a", service_type=service, tau=tau,
                       duration=10, revenue=1.0)


def test_visible_needs_reveal_rules(multimodal):
    det = multimodal.services["refueling"]
    rnd = multimodal.services["repositioning"]
    assert det.occurrence.kind == "deterministic"
    assert rnd.occurrence.kind == "random"
    needs = (_need("d0", 50.0, "refueling"),
             _need("r0", 50.0, "repositioning"),
             _need("r1", 80.0, "repositioning"),
             _need("d1", 200.0, "refueling"))
    stream = DemandStream(needs=needs)
    state = WorldState(day=60)
    seen = {n.id for n in visible_needs(stream, multimodal, state, 90)}
    # deterministic needs are announced a window ahead; random ones only once
    # they have occurred
    assert seen == {"d0", "r0"}
    state.served.add("d0")
    state.lost.add("r0")
    seen = {n.id for n in visible_needs(stream, multimodal, state, 90)}
    assert seen == set()


def test_campaign_no_satellites_burns_ops(multimodal):
    stream = DemandStream(needs=())
    result = run(multimodal, [], stream, horizon_days=120,
                 config=RhConfig(gap=0.0))
    led = result.ledger
    assert led.total("revenues") == 0.0
    assert led.total("servicer_ops") > 0.0
    values = [r.value for r in led.rows(result.boundaries)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.value == values[-1]


def _make(nid, sat, spec, tau):
    return ServiceNeed(id=nid, satellite=sat, service_type=spec.id,
                       tau=tau, duration=spec.duration, revenue=spec.revenue,
                       delay_penalty_per_day=spec.delay_penalty_per_day,
                       commodity_demand=dict(spec.commodity_demand),
                       required_tool=spec.required_tool)


def _synthetic_stream(multimodal):
    # service intervals are measured in thousands of days per satellite, so a
    # 120-day window needs a hand-built stream to exercise actual servicing
    ref = multimodal.services["refueling"]
    rep = multimodal.services["repositioning"]
    needs = (_make("satA/refueling/0", "satA", ref, 12.0),
             _make("satB/repositioning/0", "satB", rep, 40.0))
    return DemandStream(needs=needs)


def _synthetic_campaign(multimodal):
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    stream = _synthetic_stream(multimodal)
    return stream, run(multimodal, sats, stream, horizon_days=120,
                       config=RhConfig(gap=0.0))


@pytest.fixture(scope="module")
def campaign(multimodal):
    # one run of the synthetic campaign, shared by the tests that read it
    return _synthetic_campaign(multimodal)


def test_short_campaign_end_to_end(multimodal, campaign):
    stream, result = campaign
    assert result.state.day == 120
    assert result.state.served   # at least one need actually serviced
    assert not (result.state.served & result.state.lost)
    for nid in result.state.served | result.state.lost:
        assert any(n.id == nid for n in stream.needs)
    led = result.ledger
    assert led.total("revenues") > 0.0
    assert led.value() == pytest.approx(
        led.total("revenues") - led.initial_investment
        - sum(led.total(b) for b in COST_BUCKETS))
    # commit boundaries tile the horizon in whole commit intervals
    assert result.boundaries[-1] == 120
    diffs = {b - a for a, b in zip([0] + result.boundaries,
                                   result.boundaries)}
    assert diffs == {multimodal.network.period}


def test_campaign_repeat_is_identical(multimodal, campaign):
    # the shared run against one fresh, independent run
    runs = [campaign[1], _synthetic_campaign(multimodal)[1]]
    assert runs[0].ledger.bookings == runs[1].ledger.bookings
    assert runs[0].state.served == runs[1].state.served


def test_campaign_with_a_user_defined_trajectory_plugin(multimodal,
                                                        monkeypatch):
    # a low-thrust plugin of the user's: the chord through the origin and
    # the heaviest point of the shipped curve, so every low-thrust arc is
    # a line
    queries = []

    def line(query, n_breakpoints):
        queries.append(query)
        curve = lt_model(query, n_breakpoints)
        (m0, _), (m1, p1) = curve.breakpoints[0], curve.breakpoints[-1]
        f = p1 / m1
        return TrajectoryModel(breakpoints=((m0, f * m0), (m1, f * m1)),
                               mass_upper_bound=curve.mass_upper_bound,
                               kind="low_thrust", burn_fraction=f)
    registry = PluginRegistry.default()
    registry.register("low_thrust", line)
    low_thrust_arcs = []
    solve = PlanProblem.solve

    def recorded(problem):
        low_thrust_arcs.extend(a for a in problem.arcs if a.r == "low_thrust")
        return solve(problem)
    monkeypatch.setattr(PlanProblem, "solve", recorded)
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    result = run(multimodal, sats, _synthetic_stream(multimodal),
                 horizon_days=60, config=RhConfig(gap=0.0), registry=registry)
    assert queries and low_thrust_arcs
    assert all(a.model.burn_fraction is not None for a in low_thrust_arcs)
    assert result.boundaries[-1] == 60
    led = result.ledger
    assert led.value() == pytest.approx(
        led.total("revenues") - led.initial_investment
        - sum(led.total(b) for b in COST_BUCKETS))


def test_export_events_on_campaign_clock(campaign, tmp_path):
    stream, result = campaign
    path = tmp_path / "events.json"
    result.export_events(path)
    events = json.loads(path.read_text())
    duration = {n.id: n.duration for n in stream.needs}
    assert {"flight", "service_start"} <= {e["kind"] for e in events}
    for e in events:
        detail = e["detail"]
        if e["kind"] == "flight":
            assert detail["arrive_day"] - e["day"] == detail["q_days"]
        elif e["kind"] == "launch":
            assert detail["arrive_day"] > e["day"]
        elif e["kind"] == "service_start":
            assert detail["end_day"] - e["day"] == duration[detail["need"]]


def test_a_need_that_waits_across_windows_keeps_its_delay(multimodal):
    # a need on day 3 that is served on day 12, in the window that starts
    # on day 10: its delay runs from day 4, its step on the campaign grid,
    # not from that window's first day
    rep = multimodal.services["repositioning"]
    stream = DemandStream(needs=(_make("satA/repositioning/0", "satA", rep,
                                       3.0),))
    result = run(multimodal, [CustomerSat("satA", -160.0)], stream,
                 horizon_days=30, config=RhConfig(gap=0.0))
    starts = [e for s in result.steps for e in s.committed_events
              if e.kind == "service_start"]
    assert [(e.day, e.detail["delay_days"]) for e in starts] == [(12, 8)]
    assert starts[0].cash["delay"] == pytest.approx(
        8 * rep.delay_penalty_per_day)
    assert result.ledger.total("delay") == pytest.approx(
        8 * rep.delay_penalty_per_day)


def _no_flight(query, n_breakpoints):
    raise TrajectoryError("no flight in this mode")


def test_a_start_committed_past_the_boundary_delivers_its_cargo(multimodal):
    # the refueling at satA on day 12 starts as a flight lands that is in
    # the air at boundary 10: the next window gets the load that the plan
    # holds after the landing, less the 200 kg of monopropellant delivered,
    # and the servicer keeps that load while it serves. Only low-thrust
    # flights are built, so that the one from day 2 is the only way there
    # (a two-day high-thrust flight from day 10, which the boundary does not
    # commit, earns the same)
    registry = PluginRegistry.default()
    registry.register("high_thrust", _no_flight)
    ref = multimodal.services["refueling"]
    assert ref.commodity_demand == {"monopropellant": 200.0}
    stream = DemandStream(needs=(_make("satA/refueling/0", "satA", ref,
                                       12.0),))
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    start = initial_state(multimodal)[0].start
    grid = build_time_grid(multimodal.network.period,
                           multimodal.network.offsets, 90)
    problem = window_problem(multimodal, sats, stream.needs, start, grid,
                             SolveOptions(gap=0.0), 20, registry)
    solution = problem.solve()
    events, start = commit(problem, solution,
                           extract_schedule(problem, solution), 10)
    assert [(e.day, e.kind) for e in events if e.vehicle == "mm_versatile"] \
        == [(2, "flight"), (12, "service_start")]
    landed = solution.values[vn("X", "mm_versatile",
                                problem.node_by_name["satA"].index, 12,
                                "monopropellant")]
    [p] = start.pending_arrivals
    assert (p.vehicle, p.node, p.t) == ("mm_versatile", "satA", 12)
    assert p.commodities["monopropellant"] == pytest.approx(landed)
    [flight] = [e for e in events
                if e.kind == "flight" and e.detail["arrive_day"] == 12]
    assert landed == pytest.approx(
        flight.detail["cargo"]["monopropellant"] - 200.0)
    result = run(multimodal, sats, stream, horizon_days=20,
                 config=RhConfig(gap=0.0), registry=registry)
    assert result.state.start.vehicle_nodes["mm_versatile"] == "satA"
    assert result.state.start.commodities["mm_versatile"][
        "monopropellant"] == pytest.approx(landed)


def test_run_rejects_bad_commit(multimodal):
    stream = DemandStream(needs=())
    for window, commit in [(90, 7),     # not a multiple of the period
                           (90, 0),     # zero is a value, not "unset"
                           (60, 90)]:   # longer than the planning window
        with pytest.raises(ValueError, match="commit interval"):
            run(multimodal, [], stream, horizon_days=120,
                config=RhConfig(window_days=window, commit_days=commit))


def _expected_loads(problem, values, boundary):
    """What the next window should start from, read by ``vn`` key from the
    solved values: each parked vehicle's load on the boundary day, and the
    pending arrivals in the order the campaign hands them over. A flight in
    the air lands with its load less its burn and less the demand of the
    service that it lands to start."""
    names = {n.index: n.name for n in problem.net.nodes.nodes}

    def val(tag, *parts):
        return values.get(vn(tag, *parts), 0.0)

    def delivered(a, k):
        amount = val("U", *a.key, k) - sum(
            need.commodity_demand.get(k, 0.0)
            for need in problem.needs if need.satellite == names[a.j]
            and val("H", a.vehicle, need.id, a.arrival) > 0.5)
        mode = problem.scenario.vehicles[a.vehicle].mode(a.r)
        if k == mode.propellant_commodity:
            if a.model.burn_fraction is not None:
                amount -= a.model.burn_fraction * val("Z", *a.key)
            else:
                amount -= val("L", *a.key)
        return max(amount, 0.0)

    parked = {}
    for vid in problem.active:
        for i in problem.presence[vid]:
            leaving = [a for a in problem.dep_arcs.get((vid, i, boundary), ())
                       if val("W", *a.key) > 0.5]
            if leaving or val("Y", vid, i, boundary) > 0.5:
                parked[vid] = {k: val("X", vid, i, boundary, k) + sum(
                    val("U", *a.key, k) for a in leaving)
                    for k in problem.carriable[vid]}
    pending = [p for p in problem.init.pending_arrivals if p.t > boundary]
    for a in problem.arcs:
        if not (a.t < boundary < a.arrival and val("W", *a.key) > 0.5):
            continue
        if a.is_launch:
            cargo = {k: val("U", *a.key, k)
                     for k in problem.carriable[a.vehicle]
                     if val("U", *a.key, k) > 1e-9}
            if not cargo:
                continue
        else:
            cargo = {k: delivered(a, k) for k in problem.carriable[a.vehicle]}
        pending.append(PendingArrival(a.vehicle, names[a.j], a.arrival,
                                      cargo))
    return parked, pending


def _drive_checking_handover(monkeypatch, scenario, sats, stream,
                             horizon_days, config):
    """Step a campaign to the horizon, checking the world record that each
    boundary hands to the next window: where each vehicle is, and what it
    carries. Returns how many vehicles were handed over in flight, and how
    many planned to leave at exactly the boundary. Every time is a
    campaign day."""
    solved = []
    solve = PlanProblem.solve

    def recorded(problem):
        solution = solve(problem)
        solved.append((problem, solution))
        return solution
    monkeypatch.setattr(PlanProblem, "solve", recorded)
    state, investment = initial_state(scenario)
    ledger = Ledger(initial_investment=investment)
    in_flight = at_boundary = 0
    while state.day < horizon_days:
        vehicles = set(state.start.active_vehicles(scenario))
        result = step(scenario, sats, stream, state, ledger, config)
        start, boundary = state.start, state.day
        steps = build_time_grid(scenario.network.period,
                                scenario.network.offsets, config.window_days,
                                start=boundary).steps
        problem, solution = solved[-1]
        assert boundary == problem.grid.steps[0] + scenario.network.period
        parked, pending = _expected_loads(problem, solution.values, boundary)
        assert start.commodities.keys() == start.vehicle_nodes.keys()
        for vid, loads in start.commodities.items():
            assert loads == pytest.approx(parked[vid], rel=1e-12, abs=0.0)
        assert len(start.pending_arrivals) == len(pending)
        for got, want in zip(start.pending_arrivals, pending):
            assert (got.vehicle, got.node, got.t) == \
                (want.vehicle, want.node, want.t)
            assert got.commodities == pytest.approx(want.commodities,
                                                    rel=1e-12, abs=0.0)
        # each vehicle is parked or in one pending arrival, never both
        for vid in vehicles:
            assert (vid in start.vehicle_nodes) + sum(
                p.vehicle == vid for p in start.pending_arrivals) == 1
        assert all(p.t > boundary and p.t in steps
                   for p in start.pending_arrivals)
        assert all(c.end_day > boundary for c in start.committed)
        assert not (state.served & state.lost)
        for e in result.schedule.events:
            if e.kind != "flight":
                continue
            if e.day < boundary < e.detail["arrive_day"]:
                assert [(p.node, p.t) for p in start.pending_arrivals
                        if p.vehicle == e.vehicle] == [
                    (e.detail["to"], e.detail["arrive_day"])]
                in_flight += 1
            elif e.day == boundary:
                # not committed yet: still parked where it would leave from
                assert start.vehicle_nodes[e.vehicle] == e.detail["from"]
                at_boundary += 1
    return in_flight, at_boundary


def test_handover_of_flights_across_the_boundary(multimodal, monkeypatch):
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    in_flight, _ = _drive_checking_handover(
        monkeypatch, multimodal, sats, _synthetic_stream(multimodal), 120,
        RhConfig(gap=0.0))
    assert in_flight > 0


def test_handover_of_departures_at_the_boundary(multimodal, monkeypatch):
    # the one-year five-satellite campaign of the acceptance run
    sats = [CustomerSat(f"gx{i}", lon) for i, lon in
            enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))]
    stream = generate_stream(sats, multimodal, horizon=360.0, seed=42)
    _, at_boundary = _drive_checking_handover(monkeypatch, multimodal, sats,
                                              stream, 360, RhConfig())
    assert at_boundary > 0


# -- a launch, end to end ------------------------------------------------------

def _launch_case(multimodal, launch_duration=2):
    """A 90-day window whose plan launches spares on day 0: neither the depot
    nor the servicer carries any, and a repair at satA on day 35 needs 50.
    The repair is made deterministic, so that a campaign step on day 0
    already sees it."""
    spec = multimodal.services["repair"]
    scn = replace(
        multimodal,
        services=dict(multimodal.services, repair=replace(
            spec, occurrence=replace(spec.occurrence, kind="deterministic"))),
        network=replace(multimodal.network, launch_duration=launch_duration))
    sats = [CustomerSat("satA", -160.0)]
    stream = DemandStream(needs=(_make("satA/repair/0", "satA", spec, 35.0),))
    start = InitialState(
        vehicle_nodes={"depot": "parking_0", "mm_versatile": "parking_0"},
        commodities={vid: dict(scn.vehicles[vid].capacities, spares=0.0)
                     for vid in ("depot", "mm_versatile")})
    grid = build_time_grid(scn.network.period, scn.network.offsets, 90)
    net = expand(build_nodes(scn, sats, include_earth=True), grid, scn)
    problem = PlanProblem(scn, net, window_needs(stream.needs, scn, grid),
                          start, SolveOptions(gap=0.0))
    solution = problem.solve()
    return scn, sats, stream, problem, solution, \
        extract_schedule(problem, solution)


@pytest.fixture(scope="module")
def launch(multimodal):
    return _launch_case(multimodal)


def test_plan_launches_the_spares_a_repair_needs(launch):
    _, _, _, _, solution, schedule = launch
    assert solution.status == "optimal"
    [e] = [e for e in schedule.events if e.kind == "launch"]
    assert (e.day, e.vehicle, e.detail) == (
        0, "falcon9", {"to": "parking_0", "arrive_day": 2,
                       "cargo": {"spares": 50.0}})
    assert solution.components["launch"] == 565000.0
    assert solution.components["pdm"] == 50000.0


def test_events_carry_the_cash_the_plan_prices(launch):
    _, _, _, _, solution, schedule = launch
    booked = dict.fromkeys(("revenues", "launch", "pdm", "delay"), 0.0)
    for e in schedule.events:
        assert e.cash.keys() <= booked.keys()
        for bucket, amount in e.cash.items():
            booked[bucket] += amount
    assert booked == {b: solution.components[b] for b in booked}
    assert booked["revenues"] > 0.0
    # the cash stays out of the exported events
    assert all("cash" not in e.to_dict() for e in schedule.events)


def test_step_books_the_launch_the_plan_priced(launch):
    scn, sats, stream, problem, solution, _ = launch
    ledger = Ledger()
    state = WorldState(start=problem.init)
    step(scn, sats, stream, state, ledger, RhConfig(gap=0.0))
    assert [(b.day, b.bucket, b.amount) for b in ledger.bookings
            if b.bucket in ("launch", "pdm")] == [
        (0, "launch", solution.components["launch"]),
        (0, "pdm", solution.components["pdm"])]


def test_commit_hands_over_cargo_launched_into_the_next_window(multimodal):
    # the launch lands on day 12, after a commit up to day 10
    *_, problem, solution, schedule = _launch_case(multimodal,
                                                   launch_duration=12)
    events, start = commit(problem, solution, schedule, 10)
    assert [e.kind for e in events] == ["launch"]
    assert start.pending_arrivals == (PendingArrival(
        vehicle="falcon9", node="parking_0", t=12,
        commodities={"spares": 50.0}),)


def test_an_empty_launch_the_plan_prices_is_an_event(multimodal):
    # a launcher with a dry mass and a manufacturing cost prices every
    # launch it makes, with cargo or without
    falcon9 = replace(multimodal.vehicles["falcon9"], dry_mass=1000.0,
                      manufacturing_cost=2e6)
    scn = replace(multimodal,
                  vehicles=dict(multimodal.vehicles, falcon9=falcon9))
    *_, problem, solution, _ = _launch_case(scn)
    # a plan within the gap may keep an idle launch arc's W at 1
    a, cols = next((a, cols) for a, cols in zip(problem.arcs,
                                                 problem._arc_cols)
                   if a.is_launch and solution.x[cols.w] < 0.5)
    solution.x[cols.w] = 1.0
    schedule = extract_schedule(problem, solution)
    [e] = [e for e in schedule.events
           if e.kind == "launch" and not e.detail["cargo"]]
    assert (e.day, e.vehicle) == (a.t, "falcon9")
    assert e.cash == {"launch": 1.13e7, "pdm": 2e6}
    priced = problem.cost_components(solution.x)
    for bucket in ("launch", "pdm"):
        assert sum(e.cash.get(bucket, 0.0) for e in schedule.events
                   if e.kind == "launch") == pytest.approx(priced[bucket])


# -- launch slots on the campaign clock -------------------------------------

W1_SATS = [CustomerSat(f"gx{i}", lon) for i, lon in
           enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))]


def test_launch_slots_keep_the_launcher_cadence(multimodal, monkeypatch):
    # the first four windows of the acceptance campaign: each offers a
    # launch only on the campaign days that are multiples of the cadence,
    # from its own start on
    problems = []
    solve = PlanProblem.solve

    def recorded(problem):
        problems.append(problem)
        return solve(problem)
    monkeypatch.setattr(PlanProblem, "solve", recorded)
    stream = generate_stream(W1_SATS, multimodal, horizon=360.0, seed=42)
    run(multimodal, W1_SATS, stream, horizon_days=40)
    assert multimodal.economics.launcher_cadence == 30
    assert [sorted({a.t for a in p.net.arcs if a.is_launch})
            for p in problems] == [[0, 30, 60], [30, 60, 90], [30, 60, 90],
                                   [30, 60, 90]]


def test_committed_launches_are_a_cadence_apart(multimodal):
    # three repairs that need spares nobody carries, each seen only once it
    # occurs: two in parallel, then one after the servicers are back; with
    # a window every 10 days, launches could be 10 days apart
    scn = multimodal
    spec = scn.services["repair"]
    stream = DemandStream(needs=tuple(
        _make(f"{sat}/repair/{k}", sat, spec, tau) for k, (sat, tau) in
        enumerate((("satA", 15.0), ("satB", 25.0), ("satA", 85.0)))))
    vids = ("depot", "mm_versatile", "mm_specialized_3")
    state = WorldState(start=InitialState(
        vehicle_nodes=dict.fromkeys(vids, "parking_0"),
        commodities={vid: dict(scn.vehicles[vid].capacities, spares=0.0)
                     for vid in vids}))
    sats = [CustomerSat("satA", -160.0), CustomerSat("satB", -150.0)]
    launches = []
    while state.day < 110:
        result = step(scn, sats, stream, state, Ledger(), RhConfig(gap=0.0))
        launches += [e.day for e in result.committed_events
                     if e.kind == "launch"]
    assert state.served == {n.id for n in stream.needs}
    cadence = scn.economics.launcher_cadence
    assert len(launches) >= 2
    assert all(day % cadence == 0 for day in launches)
    assert all(b - a >= cadence for a, b in zip(launches, launches[1:]))


# -- one window path over the customers it touches ---------------------------

def _model_arrays(problem):
    m = problem.model
    return (m._entry_row, m._entry_col, m._entry_val, m._family, m._sense,
            m._rhs, m.var_lb, m.var_ub, m.var_kind, m.objective)


@pytest.mark.parametrize("parked", ["parking_0", "gx4"])
def test_idle_customers_change_no_window_model(multimodal, parked):
    # the acceptance campaign's first window, its servicer parked at the
    # depot or at a customer: satellites that nothing touches get no node,
    # and expanding them in, as a plan over the whole catalog would, adds
    # no column and no row either
    init = initial_state(multimodal)[0].start
    start = replace(init, vehicle_nodes=dict(init.vehicle_nodes,
                                             mm_versatile=parked))
    needs = list(generate_stream(W1_SATS, multimodal, horizon=360.0,
                                 seed=42).needs)
    grid = build_time_grid(multimodal.network.period,
                           multimodal.network.offsets, 90)
    idle = [CustomerSat("idle0", -175.0), CustomerSat("idle1", 100.0)]
    padded = idle[:1] + W1_SATS + idle[1:]
    problems = [window_problem(multimodal, sats, needs, start, grid,
                               SolveOptions(), 20)
                for sats in (W1_SATS, padded)]
    assert not {"idle0", "idle1"} & {n.name for n in problems[1].nodes.nodes}
    net = expand(build_nodes(multimodal, padded), grid, multimodal,
                 vehicles=start.active_vehicles(multimodal))
    whole = PlanProblem(multimodal, net, window_needs(needs, multimodal, grid),
                        start, SolveOptions())
    assert len(whole.nodes.customer) == len(padded)
    assert _model_arrays(problems[0]) == _model_arrays(problems[1]) \
        == _model_arrays(whole)
