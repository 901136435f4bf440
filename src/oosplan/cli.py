"""Command-line interface: single-window planning, campaign simulation and
trajectory queries.

``campaign`` runs a list of jobs, each a scenario and an output tag: the
loaded scenario alone, or one copy per servicer dry mass of a sweep. One
worker runs every job, in a process pool when ``--jobs`` is above 1 and
there is more than one job.

Every model is solved in-process by the HiGHS that scipy bundles; ``plan
--export-lp`` also writes the model as a CPLEX LP file.

Exit codes: 0 success, 1 infeasible, model or solver error, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import demand, horizon, lp, milp
from .network import NetworkError, build_nodes, build_time_grid, expand
from .scenario import (CustomerSat, Scenario, ScenarioError,
                       default_scenario_path, load_catalog, load_scenario)
from .trajectory import (DAY_S, PluginRegistry, TrajectoryError,
                         TrajectoryQuery)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _resolve_scenario(name: str) -> Scenario:
    path = Path(name)
    if not path.exists():
        path = default_scenario_path(name)
    return load_scenario(path)


def _non_negative(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", required=True,
                   help="scenario name (high_thrust, low_thrust, multimodal) "
                        "or a JSON file path")
    p.add_argument("--catalog", required=True,
                   help="customer satellite catalog CSV (name,longitude_deg)")
    p.add_argument("--seed", type=int, default=0, help="demand seed")
    p.add_argument("--gap", type=_non_negative, default=0.01,
                   help="relative MIP gap tolerance")
    p.add_argument("--breakpoints", type=int, default=20,
                   help="piecewise-linear breakpoints per low-thrust arc")


def cmd_plan(args) -> int:
    scn = _resolve_scenario(args.scenario)
    sats = load_catalog(args.catalog)
    stream = demand.generate_stream(sats, scn, horizon=float(args.horizon_days),
                                    seed=args.seed)
    grid = build_time_grid(scn.network.period, scn.network.offsets,
                           args.horizon_days)
    needs = demand.window_needs(stream.needs, scn, grid)
    init = horizon.initial_state(scn)[0].start
    nodes = build_nodes(scn, sats, include_earth=True)
    net = expand(nodes, grid, scn, n_breakpoints=args.breakpoints,
                 vehicles=init.active_vehicles(scn))
    options = milp.SolveOptions(gap=args.gap, time_limit=args.time_limit)
    problem = milp.PlanProblem(scn, net, needs, init, options)
    if args.export_lp:
        problem.model.write_lp(args.export_lp)
        print(f"model written to {args.export_lp}")
    solution = problem.solve()
    if not solution.feasible:
        print(f"plan: {solution.status}", file=sys.stderr)
        return EXIT_INFEASIBLE
    violations = milp.audit(problem, solution.values)
    if violations:
        print(f"audit FAILED: {violations[:5]}", file=sys.stderr)
        return EXIT_INFEASIBLE
    schedule = milp.extract_schedule(problem, solution)
    out = {
        "status": solution.status,
        "objective": solution.objective,
        "gap": solution.gap,
        "components": solution.components,
        "needs": {nid: (list(res) if res else None)
                  for nid, res in schedule.outcomes.items()},
        "events": [e.to_dict() for e in schedule.events],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, default=str) + "\n")
    served = sum(1 for r in schedule.outcomes.values() if r)
    print(f"status={solution.status} objective={solution.objective:.2f} "
          f"served={served}/{len(schedule.outcomes)} audit=clean")
    print(" ".join(f"{b}={solution.components[b]:.2f}"
                   for b in ("revenues",) + milp.COST_BUCKETS))
    return EXIT_OK


def _run_campaign(scn: Scenario, tag: str, sats: list[CustomerSat], seed: int,
                  horizon_days: int, config: horizon.RhConfig,
                  outdir: str) -> str:
    stream = demand.generate_stream(sats, scn, horizon=float(horizon_days),
                                    seed=seed)
    result = horizon.run(scn, sats, stream, horizon_days=horizon_days,
                         config=config)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    suffix = f"_{tag}" if tag else ""
    result.export_ledger(out / f"ledger{suffix}.csv")
    result.export_events(out / f"events{suffix}.json")
    return (f"{tag or 'campaign'}: value={result.value:.2f} "
            f"served={len(result.state.served)} "
            f"lost={len(result.state.lost)}")


def cmd_campaign(args) -> int:
    scn = _resolve_scenario(args.scenario)
    outdir = args.out or "."
    config = horizon.RhConfig(window_days=args.window_days,
                              commit_days=args.commit_days, gap=args.gap,
                              n_breakpoints=args.breakpoints)
    if args.sweep_dry_mass:
        jobs = []
        for m in (float(x) for x in args.sweep_dry_mass.split(",")):
            vehicles = {vid: replace(v, dry_mass=m) if v.is_servicer else v
                        for vid, v in scn.vehicles.items()}
            jobs.append((replace(scn, vehicles=vehicles), f"dry{m:g}"))
        # two equal masses would write the same files
        if len({tag for _, tag in jobs}) < len(jobs):
            raise ValueError(f"--sweep-dry-mass repeats a value: "
                             f"{args.sweep_dry_mass}")
    else:
        jobs = [(scn, "")]
    run = partial(_run_campaign, sats=load_catalog(args.catalog),
                  seed=args.seed, horizon_days=args.horizon_days,
                  config=config, outdir=outdir)
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: it pulls in multiprocessing, which no other
        # command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs,
                                                 len(jobs))) as pool:
            for future in [pool.submit(run, *job) for job in jobs]:
                print(future.result())
    else:
        for job in jobs:
            print(run(*job))
    print(f"outputs in {outdir}/")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    scn = _resolve_scenario(args.scenario)
    eco = scn.economics
    query = TrajectoryQuery(
        phase_angle=math.radians(args.phase_deg % 360.0),
        signed_phase=math.radians((args.phase_deg + 180.0) % 360.0 - 180.0),
        orbit_radius=eco.geo_radius_km * 1e3,
        time_of_flight=args.tof_days * DAY_S,
        isp=args.isp, thrust=args.thrust, g0=eco.g0, mu=eco.mu_earth,
        forbidden_radius=eco.forbidden_radius_km * 1e3,
        mass_min=args.mass_min, mass_max=args.mass_max)
    registry = PluginRegistry.default()
    try:
        model = registry.get(args.mode)(query, args.breakpoints)
    except TrajectoryError as exc:
        print(f"infeasible transfer: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m0_kg", "mp_kg"])
            for m0, mp in model.breakpoints:
                w.writerow([repr(m0), repr(mp)])
    extra = ""
    if model.kind == "high_thrust":
        extra = (f" delta_v={model.delta_v:.1f} m/s "
                 f"(k1,k2)=({model.metadata['k1']},{model.metadata['k2']})")
    print(f"{args.mode}: mass upper bound {model.mass_upper_bound:.1f} kg,"
          f" {len(model.breakpoints)} breakpoints{extra}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oosplan",
        description="on-orbit servicing logistics planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one planning horizon")
    _add_common(p)
    p.add_argument("--horizon-days", type=int, default=90)
    p.add_argument("--time-limit", type=_non_negative, default=None,
                   help="solver time limit, seconds")
    p.add_argument("--export-lp", help="also write the model in LP format")
    p.add_argument("--out", help="write the schedule as JSON")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("campaign", help="simulate a rolling-horizon campaign")
    _add_common(p)
    p.add_argument("--horizon-days", type=int, default=365)
    p.add_argument("--window-days", type=int, default=90)
    p.add_argument("--commit-days", type=int, default=None)
    p.add_argument("--sweep-dry-mass",
                   help="comma-separated servicer dry masses; one ledger per "
                        "value")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="concurrent sweep runs")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("trajectory",
                       help="dump one transfer's propellant model as CSV")
    p.add_argument("--scenario", default="multimodal",
                   help="scenario supplying orbit and physical constants")
    p.add_argument("--mode", choices=["high_thrust", "low_thrust"],
                   required=True)
    p.add_argument("--phase-deg", type=float, required=True,
                   help="phase angle the chaser trails the target, degrees")
    p.add_argument("--tof-days", type=float, required=True)
    p.add_argument("--mass-min", type=float, default=500.0)
    p.add_argument("--mass-max", type=float, default=4000.0)
    p.add_argument("--isp", type=float, default=300.0)
    p.add_argument("--thrust", type=float, default=1.0,
                   help="thrust, N (low-thrust mode)")
    p.add_argument("--breakpoints", type=int, default=20)
    p.add_argument("--out", help="write the breakpoint curve as CSV "
                                 "(columns m0_kg, mp_kg)")
    p.set_defaults(func=cmd_trajectory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (milp.ModelError, lp.SolveError, horizon.CampaignError,
            TrajectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ScenarioError, NetworkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
