"""``milp.audit`` against the loop audit it replaced (``audit_reference``):
the same violations, families, keys and order, on solved values and on
seeded perturbations of them."""

import numpy as np
import pytest
from audit_reference import audit as reference
from micro import micro_instance

from oosplan import horizon
from oosplan.demand import ServiceNeed, build_window, generate_stream
from oosplan.milp import InitialState, PlanProblem, SolveOptions, audit
from oosplan.network import build_nodes, build_time_grid, expand
from oosplan.scenario import CustomerSat

# a perturbation moves a value by one of these, or sets it to 0
SHIFTS = (1.0, -1.0, 0.5, -0.5, 100.0, None)
W1_SATS = [CustomerSat(f"gx{i}", lon) for i, lon in
           enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))]


def _need(scn, service, sat, tau, grid):
    spec = scn.services[service]
    return build_window(ServiceNeed(
        id=f"{sat}/{service}/0", satellite=sat, service_type=service, tau=tau,
        duration=spec.duration, revenue=spec.revenue,
        delay_penalty_per_day=spec.delay_penalty_per_day,
        commodity_demand=dict(spec.commodity_demand),
        required_tool=spec.required_tool), grid, spec.window)


def _two_needs(scn):
    # an inspection and a refueling at one customer, in a window with
    # launch, line and curve arcs
    grid = build_time_grid(scn.network.period, scn.network.offsets, 90)
    net = expand(build_nodes(scn, [CustomerSat("satA", -160.0)]), grid, scn)
    needs = [_need(scn, s, "satA", 15.0, grid)
             for s in ("refueling", "inspection")]
    init = InitialState(
        vehicle_nodes={"depot": "parking_0", "mm_versatile": "parking_0"},
        commodities={vid: dict(scn.vehicles[vid].capacities)
                     for vid in ("depot", "mm_versatile")})
    problem = PlanProblem(scn, net, needs, init, SolveOptions(gap=0.0))
    return problem, problem.solve().values


def _w1_windows(scn, monkeypatch, steps=3):
    # the first windows of the acceptance campaign, as the campaign audits
    # them
    seen = []

    def kept(problem, values, *args, **kwargs):
        seen.append((problem, dict(values)))
        return audit(problem, values, *args, **kwargs)
    monkeypatch.setattr(horizon, "audit", kept)
    stream = generate_stream(W1_SATS, scn, horizon=360.0, seed=42)
    horizon.run(scn, W1_SATS, stream, horizon_days=10 * steps)
    assert len(seen) == steps
    return seen


def _same(problem, values):
    got, expected = audit(problem, values), reference(problem, values)
    assert [(v.family, v.key) for v in got] \
        == [(v.family, v.key) for v in expected]
    for g, e in zip(got, expected):
        assert g.residual == pytest.approx(e.residual, rel=1e-9, abs=0.0)
    return got


def _perturbations(values, seed, count):
    """``count`` copies of ``values``, each with one or two of its values
    moved by a shift of ``SHIFTS``, drawn from ``seed``: a column family
    first, so that the few columns of a rare family get drawn too, then a
    column of it."""
    rng = np.random.default_rng(seed)
    families: dict[str, list] = {}
    for key in values:
        families.setdefault(key[0], []).append(key)
    tags = sorted(families)
    for _ in range(count):
        out = dict(values)
        for _ in range(int(rng.integers(1, 3))):
            keys = families[tags[int(rng.integers(len(tags)))]]
            key = keys[int(rng.integers(len(keys)))]
            shift = SHIFTS[int(rng.integers(len(SHIFTS)))]
            out[key] = 0.0 if shift is None else out[key] + shift
        yield out


def _check(problem, values, seed, count):
    assert _same(problem, values) == []
    return {v.family for perturbed in _perturbations(values, seed, count)
            for v in _same(problem, perturbed)}


def test_two_needs_window_matches_the_loop_audit(multimodal):
    problem, values = _two_needs(multimodal)
    fired = _check(problem, values, 0, 50)
    # the perturbations reach most families
    assert len(fired) >= 10


def test_micro_instances_match_the_loop_audit():
    fired = set()
    for seed in range(10):
        scenario, _, net, needs, init = micro_instance(seed)
        problem = PlanProblem(scenario, net, needs, init,
                              SolveOptions(gap=0.0))
        fired |= _check(problem, problem.solve().values, seed, 30)
    assert {"mass_balance_customer", "mass_balance_parking",
            "vehicle_balance", "curve_burn", "dispatch_coupling",
            "arrival_at_start"} <= fired


def test_first_campaign_windows_match_the_loop_audit(multimodal,
                                                     monkeypatch):
    fired = set()
    for n, (problem, values) in enumerate(_w1_windows(multimodal,
                                                      monkeypatch)):
        fired |= _check(problem, values, 100 + n, 40)
    # no need is served in these windows
    assert {"mass_balance_parking", "vehicle_balance", "capacity_holdover",
            "capacity_arc", "negative_inflow"} <= fired


def test_keys_outside_the_enumeration_are_ignored(multimodal):
    # the loop audit reads only the keys it enumerates: an unknown tag, an
    # unknown vehicle, step or arc, or a key of the wrong length changes
    # nothing; a known key the model lacks is read as it is
    problem, values = _two_needs(multimodal)
    extra = dict(values)
    extra.update({("Q", 1): 5.0, ("Y", "nobody", 1, 0): 1.0,
                  ("X", "depot", 1, 10 ** 6, "spares"): 1.0,
                  ("W", "x", 1, 2, 3, "r", 0): 1.0, ("Y", "depot"): 1.0,
                  "plain": 2.0, 7: 1.0})
    assert _same(problem, extra) == []
    sat = problem.node_by_name["satA"].index
    t = next(t for t in problem.grid.steps
             if ("Y", "mm_versatile", sat, t) not in problem.model)
    extra[("Y", "mm_versatile", sat, t)] = 1.0
    assert {v.family for v in _same(problem, extra)} == {
        "vehicle_balance", "presence_dispatch"}
