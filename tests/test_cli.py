import csv
import json
import math
from pathlib import Path

import pytest

from oosplan import lp
from oosplan.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser,
                         main)
from oosplan.demand import generate_stream, window_needs
from oosplan.lp import HighsResult
from oosplan.milp import Violation
from oosplan.network import build_time_grid, expand
from oosplan.scenario import load_catalog
from oosplan.trajectory import PluginRegistry
from test_milp import _concave_high_thrust


def test_plan_runs_clean(catalog_file, tmp_path, capsys):
    out = tmp_path / "plan.json"
    lp = tmp_path / "plan.lp"
    code = main(["plan", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--gap", "0", "--out", str(out), "--export-lp", str(lp)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "status=optimal" in text and "audit=clean" in text
    payload = json.loads(out.read_text())
    assert payload["status"] == "optimal"
    assert set(payload["components"]) >= {"revenues", "launch", "pdm",
                                          "delay", "depot_ops",
                                          "servicer_ops"}
    # the exported LP re-solves to the same objective
    from lp_text import parse_lp
    res = parse_lp(lp).solve(gap=0.0)
    assert res.objective == pytest.approx(payload["objective"], rel=1e-6)


def test_trajectory_high_thrust_csv(tmp_path, capsys):
    out = tmp_path / "ht.csv"
    code = main(["trajectory", "--mode", "high_thrust", "--phase-deg", "180",
                 "--tof-days", "2", "--isp", "316", "--breakpoints", "7",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "delta_v=" in capsys.readouterr().out
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m0_kg", "mp_kg"]
    assert len(rows) == 3   # a line is exact with its two end points
    m0, mp = (float(x) for x in rows[1])
    assert m0 > 0 and mp > 0


def test_trajectory_low_thrust_csv(tmp_path, capsys):
    out = tmp_path / "lt.csv"
    code = main(["trajectory", "--mode", "low_thrust", "--phase-deg", "90",
                 "--tof-days", "10", "--isp", "1790", "--thrust", "1.16",
                 "--mass-min", "500", "--mass-max", "2000",
                 "--breakpoints", "20", "--out", str(out)])
    assert code == EXIT_OK
    assert "mass upper bound" in capsys.readouterr().out
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21  # header + 20 breakpoints


def test_trajectory_infeasible_exits_one(capsys):
    # a 2000 kg vehicle cannot fly this 180-degree transfer in two days at
    # 1.16 N, so the model build fails
    code = main(["trajectory", "--mode", "low_thrust", "--phase-deg", "180",
                 "--tof-days", "2", "--isp", "1790", "--thrust", "1.16",
                 "--mass-min", "500", "--mass-max", "2000"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_trajectory_non_finite_time_of_flight_exits_two(tmp_path, capsys):
    # it once wrote NaN breakpoints and exited 0
    out = tmp_path / "lt.csv"
    code = main(["trajectory", "--mode", "low_thrust", "--phase-deg", "90",
                 "--tof-days", "nan", "--isp", "1790", "--thrust", "1.16",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "time_of_flight must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_scenario_exits_two(catalog_file, capsys):
    code = main(["plan", "--scenario", "/no/such/scenario.json",
                 "--catalog", str(catalog_file)])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_catalog_exits_two(capsys):
    code = main(["plan", "--scenario", "multimodal",
                 "--catalog", "/no/such/catalog.csv"])
    assert code == EXIT_USAGE


def test_bad_usage_exits_two(capsys):
    assert main(["plan"]) == EXIT_USAGE
    assert main(["trajectory", "--mode", "warp"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    # a low-thrust flight duration that no step of the grid can land on
    ["plan", "--horizon-days", "30"],
    # a horizon shorter than one grid period
    ["plan", "--horizon-days", "5"],
])
def test_network_error_exits_two(catalog_file, capsys, argv):
    code = main(argv + ["--scenario", "multimodal",
                        "--catalog", str(catalog_file)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["plan", "--gap", "-1"],
    ["plan", "--time-limit", "-5"],
    ["campaign", "--gap", "-1"],
])
def test_negative_gap_or_time_limit_exits_two(catalog_file, capsys, argv):
    code = main(argv + ["--scenario", "multimodal",
                        "--catalog", str(catalog_file)])
    assert code == EXIT_USAGE
    assert "must be >= 0" in capsys.readouterr().err


def _highs_run(status: int, message: str):
    # lp.milp as a HiGHS run that ends with scipy's status code ``status``
    return lambda *args, **kwargs: HighsResult(status, message)


@pytest.mark.parametrize("command", ["plan", "campaign"])
def test_failing_backend_exits_one(catalog_file, tmp_path, capsys,
                                   monkeypatch, command):
    monkeypatch.setattr("oosplan.lp.milp", _highs_run(4, "Solve error"))
    code = main([command, "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith(
        "error: solver failure: Solve error")


@pytest.mark.parametrize("command", ["plan", "campaign"])
def test_audit_failure_exits_one_and_writes_nothing(
        catalog_file, tmp_path, capsys, monkeypatch, command):
    # both commands audit their window in ``horizon.solve_window``
    monkeypatch.setattr("oosplan.horizon.audit", lambda problem, values: [
        Violation("wet_mass", "servicer|0|1|10|high_thrust|2", 1.0)])
    out = tmp_path / "o"
    code = main([command, "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith(
        "error: solution audit failed at day 0: [Violation(wet_mass")
    assert not out.exists()


def test_a_non_convex_plugin_curve_exits_two(catalog_file, tmp_path, capsys,
                                             monkeypatch):
    # a user plugin's curve that the model cannot price is a usage error
    registry = PluginRegistry.default()
    registry.register("high_thrust", _concave_high_thrust)
    monkeypatch.setattr(PluginRegistry, "default",
                        staticmethod(lambda: registry))
    out = tmp_path / "plan.json"
    # demand seed 2 puts a need at a customer in the window, so flights
    # there are expanded
    code = main(["plan", "--scenario", "multimodal", "--seed", "2",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the high_thrust plugin returned a burn "
                          "curve that is not convex from the origin for "
                          "TrajectoryQuery(")
    assert not out.exists()


def _twenty_catalog(tmp_path):
    # the 20-satellite catalog of the benchmark's 90-day plan
    catalog = tmp_path / "twenty.csv"
    catalog.write_text("name,longitude_deg\n" + "".join(
        f"s{i},{-175.0 + 9.0 * i}\n" for i in range(20)))
    return catalog


def test_time_limit_stop_without_incumbent_is_no_plan(tmp_path, capsys,
                                                     multimodal):
    # HiGHS finds the first incumbent of this plan only after about 0.2 s
    catalog = _twenty_catalog(tmp_path)
    sats = load_catalog(catalog)
    assert generate_stream(sats, multimodal, horizon=90.0, seed=0).needs
    out = tmp_path / "plan.json"
    code = main(["plan", "--scenario", "multimodal",
                 "--catalog", str(catalog), "--horizon-days", "90",
                 "--time-limit", "0.05", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith(
        "error: planning window at day 0 is time-limit")
    assert not out.exists()


def test_plan_expands_only_the_customers_of_its_needs(tmp_path, monkeypatch,
                                                      multimodal):
    # the benchmark's 90-day plan: a customer that no need touches has no
    # state and no landing arc, so ``expand`` never sees it
    catalog = _twenty_catalog(tmp_path)
    sats = load_catalog(catalog)
    grid = build_time_grid(multimodal.network.period,
                           multimodal.network.offsets, 90)
    wanted = {n.satellite for n in window_needs(
        generate_stream(sats, multimodal, horizon=90.0, seed=0).needs,
        multimodal, grid)}
    seen = []

    def spy(nodes, *args, **kwargs):
        seen.append({n.name for n in nodes.customer})
        return expand(nodes, *args, **kwargs)
    monkeypatch.setattr("oosplan.horizon.expand", spy)
    code = main(["plan", "--scenario", "multimodal",
                 "--catalog", str(catalog), "--horizon-days", "90",
                 "--out", str(tmp_path / "plan.json")])
    assert code == EXIT_OK
    assert 0 < len(wanted) < len(sats)
    assert seen == [wanted]


@pytest.mark.parametrize("command, names", [
    ("plan", ["parking_0"]),        # the scenario's parking slot
    ("plan", ["satA", "satA"]),     # the catalog itself
    # no window of this campaign touches satA, and it is refused all the same
    ("campaign", ["satA", "satA"]),
], ids=["names0", "names1", "campaign"])
def test_catalog_name_reused_exits_two(tmp_path, capsys, command, names):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("name,longitude_deg\n" + "".join(
        f"{name},{-150 + 10 * k}\n" for k, name in enumerate(names)))
    code = main([command, "--scenario", "multimodal",
                 "--catalog", str(catalog), "--horizon-days", "60",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"node name '{names[0]}' is used twice" in capsys.readouterr().err


def test_campaign_outputs(catalog_file, tmp_path, capsys):
    out = tmp_path / "camp"
    code = main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--window-days", "60", "--out", str(out)])
    assert code == EXIT_OK
    assert "value=" in capsys.readouterr().out
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert ledger[0].startswith("day,revenues")
    assert len(ledger) == 7  # header + one row per commit boundary
    json.loads((out / "events.json").read_text())


def test_campaign_sweep(catalog_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--window-days", "60", "--out", str(out),
                 "--sweep-dry-mass", "3000,4000"])
    assert code == EXIT_OK
    assert (out / "ledger_dry3000.csv").exists()
    assert (out / "ledger_dry4000.csv").exists()
    text = capsys.readouterr().out
    assert "dry3000" in text and "dry4000" in text


def _campaign(catalog_file, tmp_path, *extra) -> int:
    return main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--window-days", "60", "--out", str(tmp_path / "camp"),
                 *extra])


@pytest.mark.parametrize("commit", ["0", "7"])
def test_bad_commit_interval_exits_two(catalog_file, tmp_path, capsys,
                                       commit):
    assert _campaign(catalog_file, tmp_path, "--commit-days",
                     commit) == EXIT_USAGE
    assert "commit interval" in capsys.readouterr().err


@pytest.mark.parametrize("days", ["0", "-5"])
def test_campaign_without_a_step_exits_two(catalog_file, tmp_path, capsys,
                                           days):
    # a campaign that takes no step would print the initial investment as
    # its value and write an empty ledger
    code = main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", days,
                 "--out", str(tmp_path / "camp")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "horizon must cover at least one step" in captured.err
    assert "value=" not in captured.out
    assert not (tmp_path / "camp").exists()


def test_campaign_past_its_horizon_exits_two(catalog_file, tmp_path, capsys):
    # a 25-day horizon would end on day 30 and book operating cost to it
    code = main(["campaign", "--scenario", "multimodal",
                 "--catalog", str(catalog_file), "--horizon-days", "25",
                 "--out", str(tmp_path / "camp")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "not a whole number of 10 d commit intervals" in captured.err
    assert "value=" not in captured.out
    assert not (tmp_path / "camp").exists()


def test_campaign_horizon_defaults_to_whole_intervals():
    args = build_parser().parse_args(["campaign", "--scenario", "multimodal",
                                      "--catalog", "sats.csv"])
    assert args.horizon_days == 360


def _scenario_file(tmp_path, cfg: dict) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_zero_grid_period_exits_two(multimodal, catalog_file, tmp_path,
                                    capsys):
    # a period of 0 once reached ``horizon.run`` and divided by it
    cfg = multimodal.to_dict()
    cfg["network"]["period"] = 0
    code = main(["campaign", "--scenario", _scenario_file(tmp_path, cfg),
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--commit-days", "10", "--out", str(tmp_path / "camp")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "period must be > 0" in err


@pytest.mark.parametrize("duration", [0, -10])
def test_launch_that_lands_before_it_leaves_exits_two(
        multimodal, catalog_file, tmp_path, capsys, duration):
    cfg = multimodal.to_dict()
    cfg["network"]["launch_duration"] = duration
    code = main(["plan", "--scenario", _scenario_file(tmp_path, cfg),
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(tmp_path / "plan.json")])
    assert code == EXIT_USAGE
    assert "launch_duration must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("field, extra, message", [
    ("dry_mass", (), "vehicle mm_versatile: dry_mass must be >= 0"),
    ("operating_cost_per_day", (),
     "vehicle mm_versatile: operating_cost_per_day must be >= 0"),
    ("manufacturing_cost", (),
     "vehicle mm_versatile: manufacturing_cost must be >= 0"),
    ("station_keeping_rate", (),
     "vehicle mm_versatile: station_keeping_rate must be >= 0"),
    (None, ("--sweep-dry-mass=3000,-100",),
     "vehicle mm_versatile: dry_mass must be >= 0"),
    (None, ("--sweep-dry-mass", "3000,4000", "--jobs", "0"),
     "--jobs: must be >= 1, got 0"),
    (None, ("--sweep-dry-mass", "3000,4000", "--jobs", "-3"),
     "--jobs: must be >= 1, got -3"),
    # these ran, or failed late in the trajectory layer, naming no vehicle
    (None, ("--sweep-dry-mass=3000,nan",),
     "vehicle mm_versatile: dry_mass must be >= 0 and finite"),
    (None, ("--sweep-dry-mass=3000,inf",),
     "vehicle mm_versatile: dry_mass must be >= 0 and finite"),
])
def test_out_of_range_input_exits_two(multimodal, catalog_file, tmp_path,
                                      capsys, field, extra, message):
    # each is refused where it enters, before any campaign runs: a negative
    # station-keeping rate would make a holdover create propellant, and a
    # negative dry mass once failed late in the trajectory layer
    cfg = multimodal.to_dict()
    if field is not None:
        vehicle = next(v for v in cfg["vehicles"] if v["id"] == "mm_versatile")
        vehicle[field] = -1.0
    code = main(["campaign", "--scenario", _scenario_file(tmp_path, cfg),
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(tmp_path / "camp"), *extra])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert "value=" not in captured.out
    assert not (tmp_path / "camp").exists()


def _entry(cfg, section, name):
    return next(x for x in cfg[section] if x["id"] == name)


@pytest.mark.parametrize("edit, extra, message", [
    # the model ignored it, and the ledger booked it as a negative cost
    (lambda cfg: _entry(cfg, "services", "refueling").update(
        delay_penalty_per_day=-1.0), (),
     "service refueling: delay_penalty_per_day must be >= 0"),
    # the launcher silently never launched
    (lambda cfg: _entry(cfg, "vehicles", "falcon9").update(
        payload_capacity=-1.0), (),
     "vehicle falcon9: payload_capacity must be >= 0"),
    # these failed late, in the trajectory layer, naming no vehicle
    (lambda cfg: _entry(cfg, "vehicles", "mm_versatile")["propulsion"][0]
     .update(flight_durations=[0, 4]), (),
     "vehicle mm_versatile: flight_durations must be > 0"),
    (lambda cfg: _entry(cfg, "vehicles", "mm_versatile")["propulsion"][1]
     .update(flight_durations=[10, -14]), (),
     "vehicle mm_versatile: flight_durations must be > 0"),
    # two runs that wrote the same files
    (lambda cfg: None, ("--sweep-dry-mass", "3000,3000"),
     "--sweep-dry-mass repeats a value: 3000,3000"),
], ids=["delay_penalty", "payload", "flight_zero", "flight_negative",
        "sweep_repeat"])
def test_out_of_range_scenario_value_or_sweep_exits_two(
        multimodal, catalog_file, tmp_path, capsys, edit, extra, message):
    cfg = multimodal.to_dict()
    edit(cfg)
    code = main(["campaign", "--scenario", _scenario_file(tmp_path, cfg),
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(tmp_path / "camp"), *extra])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert "value=" not in captured.out
    assert not (tmp_path / "camp").exists()


@pytest.mark.parametrize("command", ["plan", "campaign"])
def test_deployment_without_a_parking_slot_exits_two(
        multimodal, catalog_file, tmp_path, capsys, command):
    cfg = multimodal.to_dict()
    cfg["deployments"][0]["longitude"] = -160.0
    code = main([command, "--scenario", _scenario_file(tmp_path, cfg),
                 "--catalog", str(catalog_file), "--horizon-days", "60",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "no parking slot at longitude -160.0" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_in_a_scenario_exits_two(
        high_thrust_scn, catalog_file, tmp_path, capsys, token):
    # json reads the three tokens, and NaN passes every ``< 0`` check
    cfg = high_thrust_scn.to_dict()
    [inspection] = [s for s in cfg["services"] if s["id"] == "inspection"]
    inspection["revenue"] = float(token)
    path = _scenario_file(tmp_path, cfg)
    assert token in Path(path).read_text()
    code = main(["plan", "--scenario", path, "--catalog", str(catalog_file),
                 "--horizon-days", "60", "--out", str(tmp_path / "plan.json")])
    assert code == EXIT_USAGE
    assert f"{path}: non-finite number {token}" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


def test_infeasible_window_exits_one(catalog_file, tmp_path, capsys,
                                    monkeypatch):
    # HiGHS finds every window infeasible
    monkeypatch.setattr("oosplan.lp.milp", _highs_run(2, "Infeasible"))
    assert _campaign(catalog_file, tmp_path) == EXIT_INFEASIBLE
    assert "is infeasible" in capsys.readouterr().err


def test_a_window_highs_rejects_exits_one_as_a_solver_failure(
        catalog_file, tmp_path, capsys, monkeypatch):
    # an infinite coefficient makes HiGHS refuse every window's model
    highs_milp = lp.milp

    def poisoned(c, start, index, value, *args, **kwargs):
        value = value.copy()
        value[0] = math.inf
        return highs_milp(c, start, index, value, *args, **kwargs)
    monkeypatch.setattr("oosplan.lp.milp", poisoned)
    assert _campaign(catalog_file, tmp_path) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "solver failure: HiGHS rejects the model" in err
    assert "infeasible" not in err


def test_campaign_sweep_in_two_processes(catalog_file, tmp_path, capsys):
    assert _campaign(catalog_file, tmp_path, "--sweep-dry-mass", "3000,4000",
                     "--jobs", "2") == EXIT_OK
    assert "dry4000" in capsys.readouterr().out
    assert (tmp_path / "camp" / "ledger_dry4000.csv").exists()
