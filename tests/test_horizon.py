import json
from dataclasses import replace

import pytest

from oosplan.demand import (DemandStream, ServiceNeed, generate_stream,
                            window_needs)
from oosplan.horizon import (COST_BUCKETS, Ledger, RhConfig, WorldState,
                             initial_state, run, step, visible_needs)
from oosplan.milp import (InitialState, PendingArrival, PlanProblem,
                          SolveOptions, commit, extract_schedule, vn)
from oosplan.network import build_nodes, build_time_grid, expand
from oosplan.scenario import CustomerSat


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
    stream = DemandStream(needs=needs, seed=0, horizon=300.0)
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
    stream = DemandStream(needs=(), seed=0, horizon=120.0)
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
    return DemandStream(needs=needs, seed=0, horizon=120.0)


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


def test_run_rejects_bad_commit(multimodal):
    stream = DemandStream(needs=(), seed=0, horizon=120.0)
    for window, commit in [(90, 7),     # not a multiple of the period
                           (90, 0),     # zero is a value, not "unset"
                           (60, 90)]:   # longer than the planning window
        with pytest.raises(ValueError, match="commit interval"):
            run(multimodal, [], stream, horizon_days=120,
                config=RhConfig(window_days=window, commit_days=commit))


def _expected_loads(problem, values, commit):
    """What the next window should start from, read by ``vn`` key from the
    solved values: each parked vehicle's load at the boundary, and the
    pending arrivals in the order the campaign hands them over."""
    names = {n.index: n.name for n in problem.net.nodes.nodes}

    def val(tag, *parts):
        return values.get(vn(tag, *parts), 0.0)

    def delivered(a, k):
        amount = val("U", *a.key, k)
        mode = problem.scenario.vehicles[a.vehicle].mode(a.r)
        if k == mode.propellant_commodity:
            if a.model.burn_fraction is not None:
                amount -= a.model.burn_fraction * val("Z", *a.key)
            else:
                for n, (_, f) in enumerate(problem.curve_points[a.key]):
                    amount -= f * val("L", *a.key, n)
        return max(amount, 0.0)

    parked = {}
    for vid in problem.active:
        for i in problem.presence[vid]:
            leaving = [a for a in problem.dep_arcs.get((vid, i, commit), ())
                       if val("W", *a.key) > 0.5]
            if leaving or val("Y", vid, i, commit) > 0.5:
                parked[vid] = {k: val("X", vid, i, commit, k) + sum(
                    val("U", *a.key, k) for a in leaving)
                    for k in problem.carriable[vid]}
    pending = [replace(p, t=p.t - commit)
               for p in problem.init.pending_arrivals if p.t > commit]
    for a in problem.arcs:
        if not (a.t < commit < a.arrival and val("W", *a.key) > 0.5):
            continue
        if a.is_launch:
            cargo = {k: val("U", *a.key, k)
                     for k in problem.carriable[a.vehicle]
                     if val("U", *a.key, k) > 1e-9}
            if not cargo:
                continue
        else:
            cargo = {k: delivered(a, k) for k in problem.carriable[a.vehicle]}
        pending.append(PendingArrival(a.vehicle, names[a.j],
                                      a.arrival - commit, cargo))
    return parked, pending


def _drive_checking_handover(monkeypatch, scenario, sats, stream,
                             horizon_days, config):
    """Step a campaign to the horizon, checking the world record that each
    boundary hands to the next window: where each vehicle is, and what it
    carries. Returns how many vehicles were handed over in flight, and how
    many planned to leave at exactly the boundary."""
    commit = scenario.network.period
    steps = build_time_grid(commit, scenario.network.offsets,
                            config.window_days).steps
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
        start = state.start
        problem, solution = solved[-1]
        parked, pending = _expected_loads(problem, solution.values, commit)
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
        assert all(p.t > 0 and p.t in steps for p in start.pending_arrivals)
        assert all(c.end_day > 0 for c in start.committed)
        assert not (state.served & state.lost)
        for e in result.schedule.events:
            if e.kind != "flight":
                continue
            if e.day < commit < e.detail["arrive_day"]:
                assert [(p.node, p.t) for p in start.pending_arrivals
                        if p.vehicle == e.vehicle] == [
                    (e.detail["to"], e.detail["arrive_day"] - commit)]
                in_flight += 1
            elif e.day == commit:
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
    stream = DemandStream(needs=(_make("satA/repair/0", "satA", spec, 35.0),),
                          seed=0, horizon=90.0)
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
    # the launch lands on day 12, after a 10-day commit ends
    *_, problem, solution, schedule = _launch_case(multimodal,
                                                   launch_duration=12)
    events, start = commit(problem, solution, schedule, 10)
    assert [e.kind for e in events] == ["launch"]
    assert start.pending_arrivals == (PendingArrival(
        vehicle="falcon9", node="parking_0", t=2,
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
