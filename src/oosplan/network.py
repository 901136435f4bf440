"""Static node network and its periodic time expansion.

The static network has three tiers: Earth nodes, parking nodes (depot slots)
and customer nodes, the orbital ones living on a single circular orbit so a
longitude fully describes their state. The time expansion replicates the nodes
at a periodic grid and draws holdover arcs plus transportation multiarcs
indexed by (vehicle, from, to, flight duration, trajectory option, departure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .scenario import CustomerSat, Scenario, VehicleDesign
from .trajectory import (DAY_S, PluginRegistry, TrajectoryError,
                         TrajectoryModel, TrajectoryQuery)


class NetworkError(Exception):
    pass


@dataclass(frozen=True)
class Node:
    index: int
    tier: str                   # earth | parking | customer
    name: str
    longitude: Optional[float] = None   # deg east; None for Earth nodes


@dataclass(frozen=True)
class NodeSet:
    nodes: tuple[Node, ...]

    def __post_init__(self):
        seen = set()
        for idx, n in enumerate(self.nodes):
            if n.name in seen:
                raise NetworkError(f"node name {n.name!r} is used twice")
            seen.add(n.name)
            if n.index != idx:
                raise NetworkError("node indices must be dense and ordered")
            if n.tier in ("parking", "customer") and n.longitude is None:
                raise NetworkError(f"orbital node {n.name} needs a longitude")

    @property
    def earth(self) -> list[Node]:
        return [n for n in self.nodes if n.tier == "earth"]

    @property
    def parking(self) -> list[Node]:
        return [n for n in self.nodes if n.tier == "parking"]

    @property
    def customer(self) -> list[Node]:
        return [n for n in self.nodes if n.tier == "customer"]

    @property
    def orbital(self) -> list[Node]:
        return [n for n in self.nodes if n.tier in ("parking", "customer")]


def build_nodes(scenario: Scenario, sats: list[CustomerSat],
                include_earth: bool = True) -> NodeSet:
    """Assemble Earth, parking and customer nodes for a planning run."""
    nodes: list[Node] = []
    if include_earth:
        nodes.append(Node(index=0, tier="earth", name="earth"))
    for i, lon in enumerate(scenario.network.parking_longitudes):
        nodes.append(Node(index=len(nodes), tier="parking",
                          name=f"parking_{i}", longitude=lon))
    for sat in sats:
        nodes.append(Node(index=len(nodes), tier="customer",
                          name=sat.name, longitude=sat.longitude))
    return NodeSet(tuple(nodes))


@dataclass(frozen=True)
class TimeGrid:
    period: int
    offsets: tuple[int, ...]
    horizon: int                # last campaign day the grid covers
    steps: tuple[int, ...]      # campaign days
    _pos: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_pos",
                           {t: i for i, t in enumerate(self.steps)})

    @property
    def final(self) -> int:
        return self.steps[-1]

    def index(self, t: int) -> int:
        return self._pos[t]

    def contains(self, t: int) -> bool:
        return t in self._pos

    def delta_forward(self, t: int) -> int:
        """Length of the holdover arc starting at t; 0 at the final step."""
        i = self.index(t)
        return self.steps[i + 1] - t if i + 1 < len(self.steps) else 0

    def delta_backward(self, t: int) -> int:
        """Length of the holdover arc ending at t; 0 at the first step."""
        i = self.index(t)
        return t - self.steps[i - 1] if i > 0 else 0

    def next_step_at_or_after(self, day: float) -> Optional[int]:
        """The first step of the grid's lattice (its first step plus whole
        periods plus an offset) at or after ``day``, None past the horizon.
        It may precede the first step: every window's grid lies on one
        lattice, so a need that waits across windows keeps its delay."""
        t0 = self.steps[0]
        base = t0 + math.floor((day - t0) / self.period) * self.period
        t = next((base + o for o in (0,) + self.offsets if base + o >= day),
                 base + self.period)
        return t if t <= self.horizon else None


def build_time_grid(period: int, offsets: list[int] | tuple[int, ...],
                    horizon: int, start: int = 0) -> TimeGrid:
    """Periodic grid {start + k*period + o : o in {0} | offsets} clipped to
    [start, start + horizon]: the campaign days of a window from ``start``."""
    offsets = tuple(int(o) for o in offsets)
    if any(o1 <= o0 for o0, o1 in zip(offsets, offsets[1:])):
        raise NetworkError("offsets must be strictly increasing")
    if any(not 0 < o < period for o in offsets):
        raise NetworkError("offsets must lie strictly inside (0, period)")
    if horizon < period:
        raise NetworkError("horizon must cover at least one period")
    steps = []
    k = 0
    while k * period <= horizon:
        for o in (0,) + offsets:
            t = k * period + o
            if t <= horizon:
                steps.append(start + t)
        k += 1
    return TimeGrid(period=int(period), offsets=offsets,
                    horizon=int(start + horizon), steps=tuple(steps))


def phase_angle(from_lon: float, to_lon: float) -> float:
    """Angle by which the chaser (at from_lon) trails the target, in [0, 2*pi)."""
    return math.radians((from_lon - to_lon) % 360.0)


def signed_phase(from_lon: float, to_lon: float) -> float:
    """Shortest signed phase change from chaser to target, in (-pi, pi]."""
    d = (to_lon - from_lon) % 360.0
    if d > 180.0:
        d -= 360.0
    return math.radians(d)


@dataclass(frozen=True)
class TransportArc:
    vehicle: str
    i: int                      # origin node index
    j: int                      # destination node index
    q: int                      # time of flight, days
    r: str                      # trajectory option (propulsion mode kind, or "launch")
    t: int                      # departure step
    model: Optional[TrajectoryModel] = None     # None on launch arcs

    @property
    def mass_upper_bound(self) -> float:
        return float("inf") if self.is_launch else self.model.mass_upper_bound

    @property
    def arrival(self) -> int:
        return self.t + self.q

    @property
    def key(self) -> tuple:
        return (self.vehicle, self.i, self.j, self.q, self.r, self.t)

    @property
    def is_launch(self) -> bool:
        return self.model is None


@dataclass(frozen=True)
class DynamicNetwork:
    nodes: NodeSet
    grid: TimeGrid
    arcs: tuple[TransportArc, ...]

    def __post_init__(self):
        for a in self.arcs:
            if not (self.grid.contains(a.t) and self.grid.contains(a.arrival)):
                raise NetworkError(f"arc {a.key} not aligned to the grid")


def _mass_range(vehicle: VehicleDesign, scenario: Scenario) -> tuple[float, float]:
    """Wet-mass range of a servicer: dry mass up to dry plus full loadout."""
    payload = sum(cap * scenario.unit_mass(k)
                  for k, cap in vehicle.capacities.items())
    return vehicle.dry_mass, vehicle.dry_mass + payload


def _refuse_non_convex(model: TrajectoryModel, kind: str,
                       query: TrajectoryQuery, rtol: float = 1e-9):
    """Raise ``NetworkError`` unless the curve's slopes, with the origin
    prepended, do not decrease (within ``rtol``, relative): the model prices
    a curve arc's burn as the largest of its chord lines, which is the curve
    only where the curve is convex."""
    pts = [(0.0, 0.0), *model.breakpoints]
    if pts[1][0] > 0.0:
        slopes = [(f1 - f0) / (b1 - b0)
                  for (b0, f0), (b1, f1) in zip(pts, pts[1:])]
        if all(s1 >= s0 - rtol * abs(s0)
               for s0, s1 in zip(slopes, slopes[1:])):
            return
    raise NetworkError(f"the {kind} plugin returned a burn curve that is "
                       f"not convex from the origin for {query}")


def expand(nodes: NodeSet, grid: TimeGrid, scenario: Scenario,
           registry: Optional[PluginRegistry] = None,
           n_breakpoints: int = 20,
           vehicles: Optional[Iterable[str]] = None) -> DynamicNetwork:
    """Expand the static network into the full set of transportation multiarcs.

    For every servicer (only those named in ``vehicles``, if given), ordered
    orbital node pair, propulsion mode, flight duration and grid-aligned
    departure, one arc is created carrying the trajectory model computed by
    the registered plugin. Trajectory models are cached per (vehicle, mode,
    duration, phase angle) since the propellant depends only on the phase
    geometry, not node identity. Arcs whose mass upper bound falls below the
    servicer dry mass are pruned, and a curve that is not convex from the
    origin is refused (``NetworkError``). Launch arcs run Earth to parking for
    each launcher on the campaign days that are multiples of the launcher
    cadence.
    """
    registry = registry or PluginRegistry.default()
    eco = scenario.economics
    r_orbit = eco.geo_radius_km * 1e3
    r_forb = eco.forbidden_radius_km * 1e3
    arcs: list[TransportArc] = []
    cache: dict[tuple, Optional[TrajectoryModel]] = {}
    orbital = nodes.orbital
    servicers = scenario.servicers
    if vehicles is not None:
        named = set(vehicles)
        servicers = [v for v in servicers if v.id in named]

    for veh in servicers:
        m_lo, m_hi = _mass_range(veh, scenario)
        for mode in veh.propulsion:
            plugin = registry.get(mode.kind)
            for q in mode.flight_durations:
                departures = [t for t in grid.steps if grid.contains(t + q)]
                if not departures:
                    raise NetworkError(
                        f"flight duration {q} d of {veh.id}/{mode.kind} never "
                        f"lands on the grid")
                for ni in orbital:
                    for nj in orbital:
                        if ni.index == nj.index:
                            continue
                        alpha = phase_angle(ni.longitude, nj.longitude)
                        key = (veh.id, mode.kind, q, round(alpha, 12))
                        if key not in cache:
                            query = TrajectoryQuery(
                                phase_angle=alpha,
                                signed_phase=signed_phase(ni.longitude, nj.longitude),
                                orbit_radius=r_orbit,
                                time_of_flight=q * DAY_S,
                                isp=mode.isp, thrust=mode.thrust,
                                g0=eco.g0, mu=eco.mu_earth,
                                forbidden_radius=r_forb,
                                mass_min=m_lo, mass_max=m_hi)
                            try:
                                model = plugin(query, n_breakpoints)
                            except TrajectoryError:
                                model = None    # arc infeasible for this geometry
                            if model is not None and model.burn_fraction is None:
                                _refuse_non_convex(model, mode.kind, query)
                            cache[key] = model
                        model = cache[key]
                        if model is None or model.mass_upper_bound < veh.dry_mass:
                            continue
                        for t in departures:
                            arcs.append(TransportArc(
                                vehicle=veh.id, i=ni.index, j=nj.index, q=q,
                                r=mode.kind, t=t, model=model))

    # launch arcs: Earth -> parking at the launcher cadence
    if nodes.earth:
        launch_ids = [v.id for v in scenario.launchers]
        q0 = scenario.network.launch_duration
        cadence = eco.launcher_cadence
        launch_steps = [t for t in grid.steps
                        if t % cadence == 0 and grid.contains(t + q0)]
        for vid in launch_ids:
            for ne in nodes.earth:
                for np_ in nodes.parking:
                    for t in launch_steps:
                        arcs.append(TransportArc(
                            vehicle=vid, i=ne.index, j=np_.index, q=q0,
                            r="launch", t=t))
    return DynamicNetwork(nodes=nodes, grid=grid, arcs=tuple(arcs))
