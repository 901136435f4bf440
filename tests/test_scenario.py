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


@pytest.mark.parametrize("section, index, field, value", [
    ("commodities", 0, "unit_mass", 2.0),
    ("vehicles", 6, "dry_mass", 1.0),
    ("services", 0, "revenue", 1.0),
])
def test_a_repeated_id_is_refused(multimodal, section, index, field, value):
    # a second spec with the same id once replaced the first in silence
    cfg = multimodal.to_dict()
    spec = dict(cfg[section][index], **{field: value})
    cfg[section].append(spec)
    with pytest.raises(ScenarioError,
                       match=f"{section}: id '{spec['id']}' appears twice"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("name, value", [
    ("period", 10.5), ("offsets", [2, 4.5]), ("launch_duration", 2.5)])
def test_network_days_must_be_whole(multimodal, name, value):
    # a period of 10.5 once put steps off the lattice the grid reads, an
    # offset was truncated, and a fractional launch dropped every launch
    cfg = multimodal.to_dict()
    cfg["network"][name] = value
    with pytest.raises(ScenarioError, match=f"network: {name} must be whole"):
        scenario_from_dict(cfg)
    cfg["network"][name] = [2.0, 4.0] if name == "offsets" else 10.0
    network = scenario_from_dict(cfg).network
    assert getattr(network, name) == ((2, 4) if name == "offsets" else 10)


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


# mm_versatile is vehicle 2, with a high-thrust then a low-thrust mode;
# refueling is service 1
MM = ("vehicles", 2)


@pytest.mark.parametrize("path, value, message", [
    (("commodities", 0, "kind"), "gas",
     "commodity bipropellant: unknown kind 'gas'"),
    (("commodities", 0, "unit_mass"), 0.0, "unit_mass must be > 0"),
    (("commodities", 0, "purchase_cost"), -1.0, "purchase_cost must be >= 0"),
    (MM + ("propulsion", 0, "kind"), "warp", "unknown kind 'warp'"),
    (MM + ("propulsion", 0, "isp"), 0.0, "isp must be > 0"),
    (MM + ("propulsion", 1, "thrust"), 0.0, "requires thrust > 0"),
    (MM + ("propulsion", 0, "flight_durations"), [],
     "flight_durations is empty"),
    (MM + ("class",), "tug", "mm_versatile: unknown class 'tug'"),
    (MM + ("capacities", "xenon"), -1.0, "capacities must be >= 0"),
    (MM + ("propulsion", 1, "kind"), "high_thrust",
     "at most one high-thrust and one low-thrust mode"),
    (MM + ("tools_installed",), ["T9"], "mm_versatile: unknown tool 'T9'"),
    (MM + ("propulsion", 0, "propellant_commodity"), "nope",
     "unknown propellant 'nope'"),
    (("vehicles", 0, "station_keeping_commodity"), "nope",
     "depot: unknown station-keeping commodity"),
    (("services", 1, "occurrence", "kind"), "sometimes",
     "occurrence: unknown kind 'sometimes'"),
    (("services", 1, "occurrence", "interval"), 0.0,
     "occurrence interval must be > 0"),
    (("services", 1, "revenue"), -1.0, "refueling: revenue must be >= 0"),
    (("services", 1, "duration"), 0, "refueling: duration must be > 0"),
    (("services", 1, "window"), 0, "refueling: window must be > 0"),
    (("services", 1, "commodity_demand", "monopropellant"), -1.0,
     "demand magnitudes must be >= 0"),
    (("services", 1, "required_tool"), "T9", "refueling: unknown tool 'T9'"),
    (("services", 1, "commodity_demand", "nope"), 1.0,
     "refueling: unknown commodity 'nope'"),
    (("economics", "launch_cost_per_kg"), 0.0,
     "launch_cost_per_kg must be > 0"),
    (("economics", "forbidden_radius_km"), 50000.0,
     "forbidden_radius must be below geo_radius"),
    (("commodities", 0, "colour"), "red", "malformed scenario config"),
])
def test_invalid_input_rejected(multimodal, path, value, message):
    cfg = multimodal.to_dict()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
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


def test_load_catalog_malformed_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("name,longitude_deg\nA,10\nB\n")
    with pytest.raises(ScenarioError, match=":3: malformed row"):
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
