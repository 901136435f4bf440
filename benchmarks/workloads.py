"""The benchmark's four workloads: input generation, one repetition, checks.

Every workload is a closed loop: one caller runs one operation after another
in a single process. Inputs come from ``--seed``. Seed 0 gives the reference
inputs, the ROADMAP workloads. Any other seed rotates the whole belt: every
longitude in the inputs (customer satellites, parking slots, deployments)
moves east by the same whole number of degrees, drawn from the seed. Phase
angles between slots, and so the problem, stay the same, and the program
has to rebuild everything from new input files.

Why not perturb the problem itself: MILP solve times jump with small changes
of the inputs. Over six demand seeds the five-satellite campaign took 5.6 to
21.3 s, and moving each satellite by at most half a degree still moved its
run time by up to 17% between seeds (10.6 to 12.5 s over five seeds), more
than the bounds the benchmark must hold. The demand seeds stay fixed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oosplan import cli, milp, network
from oosplan.demand import ServiceNeed, build_window
from oosplan.milp import InitialState
from oosplan.network import build_nodes, build_time_grid
from oosplan.scenario import (CustomerSat, default_scenario_path,
                              load_scenario, normalize_longitude,
                              scenario_from_dict)

ORACLE_REL, ORACLE_ABS = 1e-6, 1e-3     # the tier-1 oracle tolerance
LEDGER_REL = 1e-9
COST_BUCKETS = ("launch", "pdm", "delay", "depot_ops", "servicer_ops")

FIVE_SATS = [(f"gx{i}", lon) for i, lon in
             enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))]
TWENTY_SATS = [(f"s{i}", -175.0 + 9.0 * i) for i in range(20)]

#: why each workload is in the set is written up in README.md
WORKLOADS = {
    "campaign_mm5": dict(kind="campaign", scenario="multimodal",
                         sats=FIVE_SATS, demand_seed=42, days=360),
    "plan_mm20": dict(kind="plan", scenario="multimodal", sats=TWENTY_SATS,
                      demand_seed=0, days=90, gap=0.01),
    "oracle_micro50": dict(kind="oracle", instances=50, days=30),
    "campaign_ht20": dict(kind="campaign", scenario="high_thrust",
                          sats=TWENTY_SATS, demand_seed=42, days=360),
}


@dataclass
class RepResult:
    """Outcome of one repetition: operations attempted and failed, the
    profit it produced and the fingerprints of its outputs."""
    attempted: int = 0
    failed: int = 0
    profit_musd: float = 0.0
    fingerprints: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def rotation(seed: int) -> int:
    """Degrees east, in [-179, 180], by which ``seed`` rotates the belt."""
    if not seed:
        return 0
    degrees = int(np.random.default_rng(seed).integers(1, 360))
    return degrees - 360 if degrees > 180 else degrees


def rotate(lon: float, degrees: int) -> float:
    # whole degrees keep the differences of whole-degree longitudes exact
    return normalize_longitude(lon + degrees) if degrees else lon


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SolveLog:
    """Status of every PlanProblem.solve call, so that no operation is
    counted as done on the strength of ``Solution.feasible`` alone."""

    def __init__(self):
        self.calls: list[tuple[str, bool]] = []

    def install(self):
        solve = milp.PlanProblem.solve
        log = self.calls

        def logged(problem):
            sol = solve(problem)
            log.append((sol.status, bool(sol.values)))
            return sol
        milp.PlanProblem.solve = logged


# -- set-up ----------------------------------------------------------------

def setup(name: str, seed: int, workdir: Path) -> dict:
    """Generate the workload's inputs; the program only receives them."""
    spec = WORKLOADS[name]
    degrees = rotation(seed)
    if spec["kind"] == "oracle":
        return {"instances": [micro_inputs(i, degrees, spec["days"])
                              for i in range(spec["instances"])]}
    catalog = workdir / "catalog.csv"
    with catalog.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "longitude_deg"])
        w.writerows((n, rotate(lon, degrees)) for n, lon in spec["sats"])
    scenario_arg = spec["scenario"]
    scenario = load_scenario(default_scenario_path(scenario_arg))
    if degrees:
        cfg = scenario.to_dict()
        net = cfg["network"]
        net["parking_longitudes"] = [rotate(lon, degrees)
                                     for lon in net["parking_longitudes"]]
        for dep in cfg["deployments"]:
            dep["longitude"] = rotate(dep["longitude"], degrees)
        scenario_arg = str(workdir / "scenario.json")
        Path(scenario_arg).write_text(json.dumps(cfg, indent=1))
        scenario = load_scenario(scenario_arg)
    investment = sum(
        scenario.vehicles[d.vehicle].manufacturing_cost
        + sum(scenario.commodities[k].purchase_cost * cap for k, cap in
              scenario.vehicles[d.vehicle].capacities.items())
        for d in scenario.deployments)
    return {"catalog": catalog, "scenario": scenario_arg,
            "steps": math.ceil(spec["days"] / scenario.network.period),
            "investment": investment}


def micro_inputs(index: int, degrees: int, horizon: int) -> dict:
    """One closed micro instance, drawn with the recipe of the tier-1
    oracle suite (``tests/micro.py``) and rotated by ``degrees``, so seed 0
    gives its 50 instances. The network is left to the timed operation;
    everything else is drawn here in the recipe's order.
    """
    rng = np.random.default_rng(index)
    biprop_cap = float(rng.uniform(200.0, 1200.0))
    xenon_cap = float(rng.uniform(50.0, 400.0))
    cargo_cap = float(rng.uniform(100.0, 400.0))
    dry_mass = float(rng.uniform(2000.0, 4000.0))
    op_cost = float(rng.uniform(0.0, 20000.0))
    scenario = scenario_from_dict({
        "commodities": [
            {"id": "bipropellant", "kind": "continuous", "unit_mass": 1.0,
             "purchase_cost": 180.0},
            {"id": "xenon", "kind": "continuous", "unit_mass": 1.0,
             "purchase_cost": 1115.0},
            {"id": "monopropellant", "kind": "continuous", "unit_mass": 1.0,
             "purchase_cost": 230.0},
            {"id": "T1", "kind": "tool", "unit_mass": 100.0,
             "purchase_cost": 100000.0},
        ],
        "vehicles": [
            {"id": "servicer", "class": "servicer", "dry_mass": dry_mass,
             "capacities": {"bipropellant": biprop_cap, "xenon": xenon_cap,
                            "monopropellant": cargo_cap, "T1": 1},
             "tools_installed": ["T1"],
             "operating_cost_per_day": op_cost,
             "manufacturing_cost": 75e6,
             "propulsion": [
                 {"kind": "high_thrust", "isp": 316.0,
                  "propellant_commodity": "bipropellant",
                  "flight_durations": [2, 4]},
                 {"kind": "low_thrust", "isp": 1790.0, "thrust": 1.16,
                  "propellant_commodity": "xenon",
                  "flight_durations": [10, 14]},
             ]},
        ],
        "services": [],
        "network": {"period": 10, "offsets": [2, 4],
                    "parking_longitudes": [rotate(-170.0, degrees)]},
    })
    n_sats = int(rng.integers(1, 3))
    sats = [CustomerSat(f"sat{i}", rotate(
        float(rng.uniform(-180.0, 180.0)) or 1.0, degrees))
        for i in range(n_sats)]
    nodes = build_nodes(scenario, sats, include_earth=False)
    grid = build_time_grid(scenario.network.period, scenario.network.offsets,
                           horizon)
    needs = []
    for n in range(int(rng.integers(1, 3))):
        sat = sats[int(rng.integers(0, n_sats))]
        demand = {"monopropellant": float(rng.uniform(0.0, 150.0))}
        need = ServiceNeed(
            id=f"{sat.name}/job/{n}", satellite=sat.name, service_type="job",
            tau=float(rng.uniform(0.0, horizon * 0.7)),
            duration=int(rng.choice([4, 10])),
            revenue=float(rng.uniform(5e6, 30e6)),
            delay_penalty_per_day=float(rng.choice([0.0, 1e5, 2e5])),
            commodity_demand=demand,
            required_tool="T1")
        built = build_window(need, grid, float(rng.uniform(8.0, 30.0)))
        if built is not None:
            needs.append(built)
    needs.sort(key=lambda n: n.tau)
    caps = scenario.vehicles["servicer"].capacities
    loads = {k: cap * float(rng.uniform(0.5, 1.0)) if k != "T1" else 1
             for k, cap in caps.items()}
    init = InitialState(vehicle_nodes={"servicer": "parking_0"},
                        commodities={"servicer": loads})
    return {"scenario": scenario, "nodes": nodes, "grid": grid,
            "needs": needs, "init": init}


# -- one repetition: the timed call and the checks after it ---------------

def run_rep(name: str, inputs: dict, outdir: Path):
    """The timed part of one repetition; returns what ``check`` needs."""
    spec = WORKLOADS[name]
    if spec["kind"] == "oracle":
        done = []
        for inst in inputs["instances"]:
            net = network.expand(inst["nodes"], inst["grid"], inst["scenario"])
            problem = milp.PlanProblem(
                inst["scenario"], net, inst["needs"], inst["init"],
                milp.SolveOptions(gap=0.0))
            done.append((net, problem.solve()))
        return done
    argv = [spec["kind"], "--scenario", inputs["scenario"],
            "--catalog", str(inputs["catalog"]),
            "--seed", str(spec["demand_seed"]),
            "--horizon-days", str(spec["days"])]
    if spec["kind"] == "plan":
        argv += ["--gap", str(spec["gap"]), "--out", str(outdir / "plan.json")]
    else:
        argv += ["--out", str(outdir)]
    return cli.main(argv)


def check(name: str, inputs: dict, outdir: Path, returned,
          solves: list[tuple[str, bool]]) -> RepResult:
    """Count the repetition's operations and the ones that failed."""
    kind = WORKLOADS[name]["kind"]
    if kind == "oracle":
        return _check_oracle(inputs, returned)
    if kind == "plan":
        return _check_plan(outdir, returned, solves)
    return _check_campaign(inputs, outdir, returned, solves)


def _check_oracle(inputs, done) -> RepResult:
    from enum_oracle import oracle_best
    res = RepResult(attempted=len(done))
    objectives = []
    for k, (inst, (net, sol)) in enumerate(zip(inputs["instances"], done)):
        objectives.append(sol.objective)
        if not (sol.feasible and sol.values and sol.objective is not None):
            res.failed += 1
            res.problems.append(f"instance {k}: {sol.status}, "
                                f"{len(sol.values)} values")
            continue
        res.profit_musd += sol.objective / 1e6
        expected = oracle_best(inst["scenario"], net, inst["needs"],
                               inst["init"])
        if abs(sol.objective - expected) > max(ORACLE_ABS,
                                               ORACLE_REL * abs(expected)):
            res.failed += 1
            res.problems.append(f"instance {k}: objective {sol.objective!r}"
                                f" != oracle {expected!r}")
    res.fingerprints["objectives"] = hashlib.sha256(
        json.dumps(objectives).encode()).hexdigest()
    return res


def _check_plan(outdir, code, solves) -> RepResult:
    res = RepResult(attempted=1)
    out = outdir / "plan.json"
    if code != 0 or not solves or not all(ok for _, ok in solves) \
            or not out.exists():
        res.failed = 1
        res.problems.append(f"plan exit {code}, solves {solves}")
        return res
    res.profit_musd = json.loads(out.read_text())["objective"] / 1e6
    res.fingerprints["plan.json"] = _sha256(out)
    return res


def _check_campaign(inputs, outdir, code, solves) -> RepResult:
    """A step counts as done when its solve returned values and its ledger
    row keeps the identity value = revenues - investment - every cost.

    The campaign audits every step and aborts on a violation, so a non-zero
    exit fails the step that raised and every step after it.
    """
    steps = inputs["steps"]
    res = RepResult(attempted=steps)
    if code != 0:
        done = sum(1 for _, ok in solves[:-1] if ok)
        res.failed = steps - done
        res.problems.append(f"campaign exit {code} after {len(solves)} solves")
        return res
    ledger = outdir / "ledger.csv"
    with ledger.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    inv = inputs["investment"]
    for k in range(steps):
        row = rows[k] if k < len(rows) else None
        solved = k < len(solves) and solves[k][1]
        ok = row is not None and solved
        if ok:
            value = float(row["value"])
            expect = float(row["revenues"]) - inv - sum(
                float(row[b]) for b in COST_BUCKETS)
            ok = abs(value - expect) <= LEDGER_REL * max(abs(value), inv)
        if not ok:
            res.failed += 1
            res.problems.append(f"step {k}: row {row}, solved {solved}")
    if rows:
        res.profit_musd = float(rows[-1]["value"]) / 1e6
    res.fingerprints["ledger.csv"] = _sha256(ledger)
    res.fingerprints["events.json"] = _sha256(outdir / "events.json")
    return res
