import pytest

from oosplan.scenario import (CustomerSat, ScenarioError, default_scenario_path,
                              load_catalog, load_scenario,
                              normalize_longitude, scenario_from_dict)


def test_shipped_scenarios_load():
    for name in ("high_thrust", "low_thrust", "multimodal"):
        scn = load_scenario(default_scenario_path(name))
        assert scn.servicers and scn.depots and scn.launchers
        assert scn.services
        assert scn.tool_ids() == ["T1", "T2", "T3", "T4"]


def test_multimodal_has_both_modes(multimodal):
    v = multimodal.vehicles["mm_versatile"]
    kinds = {m.kind for m in v.propulsion}
    assert kinds == {"high_thrust", "low_thrust"}


def test_round_trip(multimodal):
    # the path the campaign sweep takes into its worker processes
    again = scenario_from_dict(multimodal.to_dict())
    assert again == multimodal
    assert again.to_dict() == multimodal.to_dict()


def test_unknown_commodity_rejected():
    with pytest.raises(ScenarioError, match="unknown commodity"):
        scenario_from_dict({
            "commodities": [],
            "vehicles": [{"id": "d", "class": "depot", "dry_mass": 1.0,
                          "capacities": {"nope": 1.0}}],
        })


def test_depot_with_propulsion_rejected():
    with pytest.raises(ScenarioError, match="depots carry no propulsion"):
        scenario_from_dict({
            "commodities": [{"id": "p", "kind": "continuous", "unit_mass": 1.0,
                             "purchase_cost": 0.0}],
            "vehicles": [{"id": "d", "class": "depot", "dry_mass": 1.0,
                          "capacities": {},
                          "propulsion": [{"kind": "high_thrust", "isp": 300.0,
                                          "propellant_commodity": "p",
                                          "flight_durations": [2]}]}],
        })


def test_servicer_needs_propulsion():
    with pytest.raises(ScenarioError, match="propulsion"):
        scenario_from_dict({
            "commodities": [],
            "vehicles": [{"id": "s", "class": "servicer", "dry_mass": 1.0,
                          "capacities": {}}],
        })


@pytest.mark.parametrize("period", [0, -10])
def test_grid_period_must_be_positive(multimodal, period):
    cfg = multimodal.to_dict()
    cfg["network"]["period"] = period
    with pytest.raises(ScenarioError, match="period must be > 0"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("duration", [0, -10])
def test_launch_duration_must_be_positive(multimodal, duration):
    # a launch of -10 days once left Earth on day 30 and landed on day 20
    cfg = multimodal.to_dict()
    cfg["network"]["launch_duration"] = duration
    with pytest.raises(ScenarioError, match="launch_duration must be > 0"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("deployment, message", [
    ({"vehicle": "nope", "longitude": -170.0}, "unknown vehicle 'nope'"),
    ({"vehicle": "depot", "longitude": -160.0},
     "no parking slot at longitude -160.0"),
    # the model holds one copy of each deployed vehicle, and no launcher
    ({"vehicle": "depot", "longitude": -170.0},
     "deployment of depot: deployed twice"),
    ({"vehicle": "falcon9", "longitude": -170.0},
     "deployment of falcon9: a launcher flies only from Earth"),
])
def test_deployment_rejected(multimodal, deployment, message):
    cfg = multimodal.to_dict()
    cfg["deployments"].append(deployment)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(cfg)


def test_malformed_json_names_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"commodities": [,]}')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(p)


def test_normalize_longitude():
    assert normalize_longitude(190.0) == -170.0
    assert normalize_longitude(-190.0) == 170.0
    assert normalize_longitude(180.0) == 180.0
    with pytest.raises(ScenarioError):
        normalize_longitude(400.0)


def test_customer_sat_range():
    with pytest.raises(ScenarioError):
        CustomerSat("x", 181.0)


def test_load_catalog(catalog_file):
    sats = load_catalog(catalog_file)
    assert [s.name for s in sats] == ["satA", "satB", "satC"]
    assert sats[0].longitude == -160.0


def test_load_catalog_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nm,lon\nA,0\n")
    with pytest.raises(ScenarioError, match="header"):
        load_catalog(p)


def test_load_catalog_bad_value(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("name,longitude_deg\nA,east\n")
    with pytest.raises(ScenarioError, match=":2"):
        load_catalog(p)


def test_missing_files():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/no/such/file.json")
    with pytest.raises(ScenarioError, match="not found"):
        load_catalog("/no/such/file.csv")
