"""Scenario ingestion: commodities, vehicles, service types, economics, catalog.

A scenario is loaded from a single JSON config and frozen; all downstream
modules treat it as immutable shared data. The shipped default configs
parameterize the high-thrust, low-thrust and multimodal servicer fleets.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

VEHICLE_CLASSES = ("launcher", "depot", "servicer")


class ScenarioError(Exception):
    """Config parse or validation failure; the message names the violation."""


@dataclass(frozen=True)
class CommoditySpec:
    id: str
    kind: str                   # continuous | integer | tool
    unit_mass: float            # kg (1 kg/unit for continuous)
    purchase_cost: float        # $/unit

    def __post_init__(self):
        if self.kind not in ("continuous", "integer", "tool"):
            raise ScenarioError(f"commodity {self.id}: unknown kind {self.kind!r}")
        if self.unit_mass <= 0:
            raise ScenarioError(f"commodity {self.id}: unit_mass must be > 0")
        if self.purchase_cost < 0:
            raise ScenarioError(f"commodity {self.id}: purchase_cost must be >= 0")

    @property
    def is_integer(self) -> bool:
        return self.kind in ("integer", "tool")


@dataclass(frozen=True)
class PropulsionMode:
    kind: str                   # high_thrust | low_thrust
    isp: float                  # s
    propellant_commodity: str
    flight_durations: tuple[int, ...]   # days
    thrust: float = 0.0         # N, required for low_thrust

    def __post_init__(self):
        if self.kind not in ("high_thrust", "low_thrust"):
            raise ScenarioError(f"propulsion mode: unknown kind {self.kind!r}")
        if self.isp <= 0:
            raise ScenarioError("propulsion mode: isp must be > 0")
        if self.kind == "low_thrust" and self.thrust <= 0:
            raise ScenarioError("low_thrust propulsion requires thrust > 0")
        if not self.flight_durations:
            raise ScenarioError("propulsion mode: flight_durations is empty")
        object.__setattr__(self, "flight_durations",
                           tuple(int(q) for q in self.flight_durations))


@dataclass(frozen=True)
class VehicleDesign:
    id: str
    vehicle_class: str          # launcher | depot | servicer
    dry_mass: float             # kg
    capacities: dict[str, float]        # commodity id -> kg or units
    tools_installed: tuple[str, ...] = ()
    operating_cost_per_day: float = 0.0
    manufacturing_cost: float = 0.0
    propulsion: tuple[PropulsionMode, ...] = ()
    payload_capacity: Optional[float] = None    # kg, total-mass cap (launchers)
    station_keeping_rate: float = 0.0           # kg/day consumed while staged
    station_keeping_commodity: Optional[str] = None

    def __post_init__(self):
        if self.vehicle_class not in VEHICLE_CLASSES:
            raise ScenarioError(f"vehicle {self.id}: unknown class {self.vehicle_class!r}")
        if any(c < 0 for c in self.capacities.values()):
            raise ScenarioError(f"vehicle {self.id}: capacities must be >= 0")
        for name in ("dry_mass", "operating_cost_per_day",
                     "manufacturing_cost", "station_keeping_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ScenarioError(f"vehicle {self.id}: {name} must be >= 0 and finite")
        if self.payload_capacity is not None and self.payload_capacity < 0:
            raise ScenarioError(f"vehicle {self.id}: payload_capacity must be >= 0")
        if any(q <= 0 for p in self.propulsion for q in p.flight_durations):
            raise ScenarioError(f"vehicle {self.id}: flight_durations must be > 0")
        if self.vehicle_class == "depot" and self.propulsion:
            raise ScenarioError(f"vehicle {self.id}: depots carry no propulsion modes")
        if self.vehicle_class == "servicer":
            if not self.propulsion:
                raise ScenarioError(f"vehicle {self.id}: servicers need >= 1 propulsion mode")
            kinds = [p.kind for p in self.propulsion]
            if len(kinds) > 2 or len(set(kinds)) != len(kinds):
                raise ScenarioError(
                    f"vehicle {self.id}: at most one high-thrust and one "
                    f"low-thrust mode allowed")

    @property
    def is_servicer(self) -> bool:
        return self.vehicle_class == "servicer"

    def mode(self, kind: str) -> PropulsionMode:
        for p in self.propulsion:
            if p.kind == kind:
                return p
        raise KeyError(kind)


@dataclass(frozen=True)
class Occurrence:
    kind: str                   # deterministic | random
    interval: float             # frequency or mean interoccurrence, days

    def __post_init__(self):
        if self.kind not in ("deterministic", "random"):
            raise ScenarioError(f"occurrence: unknown kind {self.kind!r}")
        if self.interval <= 0:
            raise ScenarioError("occurrence interval must be > 0")


@dataclass(frozen=True)
class ServiceTypeSpec:
    id: str
    revenue: float              # $
    delay_penalty_per_day: float
    duration: int               # days
    window: int                 # days
    occurrence: Occurrence
    commodity_demand: dict[str, float]  # commodity -> kg or units delivered
    required_tool: str

    def __post_init__(self):
        if self.revenue < 0:
            raise ScenarioError(f"service {self.id}: revenue must be >= 0")
        if self.delay_penalty_per_day < 0:
            raise ScenarioError(f"service {self.id}: delay_penalty_per_day must be >= 0")
        if self.duration <= 0:
            raise ScenarioError(f"service {self.id}: duration must be > 0")
        if self.window <= 0:
            raise ScenarioError(f"service {self.id}: window must be > 0")
        if any(d < 0 for d in self.commodity_demand.values()):
            raise ScenarioError(f"service {self.id}: demand magnitudes must be >= 0")


@dataclass(frozen=True)
class EconomicParams:
    launch_cost_per_kg: float = 11300.0
    launcher_cadence: int = 30          # days
    g0: float = 9.80665                 # m/s^2
    mu_earth: float = 3.986004418e14    # m^3/s^2
    forbidden_radius_km: float = 6578.0
    geo_radius_km: float = 42164.0

    def __post_init__(self):
        for name in ("launch_cost_per_kg", "launcher_cadence", "g0", "mu_earth",
                     "forbidden_radius_km", "geo_radius_km"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"economics: {name} must be > 0")
        if self.forbidden_radius_km >= self.geo_radius_km:
            raise ScenarioError("economics: forbidden_radius must be below geo_radius")


@dataclass(frozen=True)
class CustomerSat:
    name: str
    longitude: float            # deg east, in (-180, 180]

    def __post_init__(self):
        if not -180.0 < self.longitude <= 180.0:
            raise ScenarioError(f"satellite {self.name}: longitude out of range")


@dataclass(frozen=True)
class Deployment:
    """Initial placement of a vehicle at a GEO longitude."""
    vehicle: str
    longitude: float


@dataclass(frozen=True)
class NetworkConfig:
    period: int = 10
    offsets: tuple[int, ...] = (2, 4)
    parking_longitudes: tuple[float, ...] = (-170.0,)
    launch_duration: int = 2            # days, Earth -> parking flight time

    def __post_init__(self):
        if self.period <= 0:
            raise ScenarioError("network: period must be > 0")
        if self.launch_duration <= 0:
            raise ScenarioError("network: launch_duration must be > 0")
        # the grid's steps and its lattice are whole days
        for name, days in (("period", (self.period,)),
                           ("offsets", self.offsets),
                           ("launch_duration", (self.launch_duration,))):
            if not all(float(d).is_integer() for d in days):
                raise ScenarioError(f"network: {name} must be whole days, "
                                    f"got {getattr(self, name)}")
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "offsets", tuple(int(o) for o in self.offsets))
        object.__setattr__(self, "launch_duration", int(self.launch_duration))


@dataclass(frozen=True)
class Scenario:
    commodities: dict[str, CommoditySpec]
    vehicles: dict[str, VehicleDesign]
    services: dict[str, ServiceTypeSpec]
    economics: EconomicParams
    network: NetworkConfig
    deployments: tuple[Deployment, ...] = ()

    def __post_init__(self):
        tools = {c.id for c in self.commodities.values() if c.kind == "tool"}
        for v in self.vehicles.values():
            for k in v.capacities:
                if k not in self.commodities:
                    raise ScenarioError(f"vehicle {v.id}: unknown commodity {k!r}")
            for t in v.tools_installed:
                if t not in tools:
                    raise ScenarioError(f"vehicle {v.id}: unknown tool {t!r}")
            for p in v.propulsion:
                if p.propellant_commodity not in self.commodities:
                    raise ScenarioError(
                        f"vehicle {v.id}: unknown propellant "
                        f"{p.propellant_commodity!r}")
            if v.station_keeping_commodity is not None \
                    and v.station_keeping_commodity not in self.commodities:
                raise ScenarioError(
                    f"vehicle {v.id}: unknown station-keeping commodity")
        for s in self.services.values():
            if s.required_tool not in tools:
                raise ScenarioError(f"service {s.id}: unknown tool {s.required_tool!r}")
            for k in s.commodity_demand:
                if k not in self.commodities:
                    raise ScenarioError(f"service {s.id}: unknown commodity {k!r}")
        deployed = set()
        for d in self.deployments:
            if d.vehicle not in self.vehicles:
                raise ScenarioError(
                    f"deployment references unknown vehicle {d.vehicle!r}")
            if d.longitude not in self.network.parking_longitudes:
                raise ScenarioError(f"deployment of {d.vehicle}: no parking slot "
                                    f"at longitude {d.longitude}")
            if self.vehicles[d.vehicle].vehicle_class == "launcher":
                raise ScenarioError(f"deployment of {d.vehicle}: a launcher "
                                    f"flies only from Earth")
            if d.vehicle in deployed:
                raise ScenarioError(f"deployment of {d.vehicle}: deployed twice")
            deployed.add(d.vehicle)

    @property
    def servicers(self) -> list[VehicleDesign]:
        return [v for v in self.vehicles.values() if v.vehicle_class == "servicer"]

    @property
    def depots(self) -> list[VehicleDesign]:
        return [v for v in self.vehicles.values() if v.vehicle_class == "depot"]

    @property
    def launchers(self) -> list[VehicleDesign]:
        return [v for v in self.vehicles.values() if v.vehicle_class == "launcher"]

    def tool_ids(self) -> list[str]:
        return [c.id for c in self.commodities.values() if c.kind == "tool"]

    def unit_mass(self, commodity: str) -> float:
        return self.commodities[commodity].unit_mass

    def to_dict(self) -> dict:
        return {
            "commodities": [asdict(c) for c in self.commodities.values()],
            "vehicles": [_vehicle_to_dict(v) for v in self.vehicles.values()],
            "services": [_service_to_dict(s) for s in self.services.values()],
            "economics": asdict(self.economics),
            "network": {
                "period": self.network.period,
                "offsets": list(self.network.offsets),
                "parking_longitudes": list(self.network.parking_longitudes),
                "launch_duration": self.network.launch_duration,
            },
            "deployments": [asdict(d) for d in self.deployments],
        }


def _vehicle_to_dict(v: VehicleDesign) -> dict:
    d = asdict(v)
    d["class"] = d.pop("vehicle_class")
    d["propulsion"] = [asdict(p) for p in v.propulsion]
    for p in d["propulsion"]:
        p["flight_durations"] = list(p["flight_durations"])
    d["tools_installed"] = list(v.tools_installed)
    return d


def _service_to_dict(s: ServiceTypeSpec) -> dict:
    d = asdict(s)
    d["occurrence"] = {"kind": s.occurrence.kind, "interval": s.occurrence.interval}
    return d


def _by_id(section: str, specs: list) -> dict:
    """``specs`` by their ids, refusing an id that ``section`` repeats."""
    out = {}
    for spec in specs:
        if spec.id in out:
            raise ScenarioError(f"{section}: id {spec.id!r} appears twice")
        out[spec.id] = spec
    return out


def scenario_from_dict(cfg: dict) -> Scenario:
    try:
        commodities = _by_id("commodities", [CommoditySpec(**c)
                                              for c in cfg["commodities"]])
        vehicles = []
        for raw in cfg["vehicles"]:
            raw = dict(raw)
            raw["vehicle_class"] = raw.pop("class")
            raw["propulsion"] = tuple(
                PropulsionMode(**p) for p in raw.get("propulsion", ()))
            raw["tools_installed"] = tuple(raw.get("tools_installed", ()))
            raw["capacities"] = dict(raw.get("capacities", {}))
            vehicles.append(VehicleDesign(**raw))
        vehicles = _by_id("vehicles", vehicles)
        services = []
        for raw in cfg.get("services", []):
            raw = dict(raw)
            raw["occurrence"] = Occurrence(**raw["occurrence"])
            raw["commodity_demand"] = dict(raw.get("commodity_demand", {}))
            services.append(ServiceTypeSpec(**raw))
        services = _by_id("services", services)
        economics = EconomicParams(**cfg.get("economics", {}))
        net = dict(cfg.get("network", {}))
        if "offsets" in net:
            net["offsets"] = tuple(net["offsets"])
        if "parking_longitudes" in net:
            net["parking_longitudes"] = tuple(net["parking_longitudes"])
        network = NetworkConfig(**net)
        deployments = tuple(Deployment(**d) for d in cfg.get("deployments", ()))
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc
    return Scenario(commodities=commodities, vehicles=vehicles, services=services,
                    economics=economics, network=network, deployments=deployments)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON config."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")

    def non_finite(token: str):
        # json reads NaN and the infinities; NaN passes every ``< 0`` check
        raise ScenarioError(f"{path}: non-finite number {token}")
    try:
        cfg = json.loads(path.read_text(), parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return scenario_from_dict(cfg)


def normalize_longitude(lon: float) -> float:
    """Map any longitude in [-360, 360] to the (-180, 180] convention."""
    if not -360.0 <= lon <= 360.0:
        raise ScenarioError(f"longitude {lon} outside [-360, 360]")
    lon = lon % 360.0
    if lon > 180.0:
        lon -= 360.0
    return lon


def load_catalog(path: str | Path) -> list[CustomerSat]:
    """Read a customer-satellite catalog CSV with header ``name,longitude_deg``."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"catalog file not found: {path}")
    sats: list[CustomerSat] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["name", "longitude_deg"]:
            raise ScenarioError(f"{path}: expected header 'name,longitude_deg'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ScenarioError(f"{path}:{lineno}: malformed row {row!r}")
            try:
                lon = float(row[1])
            except ValueError:
                raise ScenarioError(f"{path}:{lineno}: bad longitude {row[1]!r}")
            sats.append(CustomerSat(name=row[0].strip(),
                                    longitude=normalize_longitude(lon)))
    return sats


def default_scenario_path(name: str) -> Path:
    """Path of a shipped scenario config: high_thrust, low_thrust or multimodal."""
    p = Path(__file__).parent / "data" / f"scenario_{name}.json"
    if not p.exists():
        raise ScenarioError(f"no shipped scenario named {name!r}")
    return p
