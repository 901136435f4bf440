"""MILP assembly and solution handling for one planning horizon.

Builds the time-expanded multi-commodity flow model over a DynamicNetwork and
a set of service needs: profit objective, mass balances, payload concurrency,
propellant transformation (exact where the trajectory model is a line,
piecewise-linear with SOS2 weights where it is a curve), service management
and flight rules. Inflow ("minus") variables are substituted out through the
arc transformation relations, which keeps the model smaller and makes the
transformation constraints hold by construction; nonnegativity of the
substituted inflows is enforced explicitly.

The model holds only columns that its rows let be nonzero, but for starts
that no flight lands for (below). ``PlanProblem._prepare`` admits each
service start once, into ``PlanProblem.starts``, which every row, the
objective and ``extract_schedule`` read: a capable servicer on a step of the
need's window, whose service (``ServiceNeed.covers``) overlaps no committed
service at that customer, so the ``one_service`` rows need not count one. A
servicer has a state at a customer node only on the steps of its starts and
their services, its commitments, its start and its in-flight arrivals. It
leaves a customer only on a release step (a service end, the end of a
commitment, its start or an in-flight arrival), and lands there only on a
start step whose service it can leave again, or that runs past the horizon.
That release comes after the departure, so ``_prepare`` decides every landing
in one sweep from the last departure back. A service starts only where its
servicer lands, on every step, the first included: the ``arrival`` rows force
to zero a start that no kept flight lands for, and such a start is still
built. A column left out reads as zero in every row.

Columns are keyed by ``vn`` tuples. The build looks each column index up
once, when it makes the column (Y and X per state; W, U and Z per arc, and
the burn L per curve arc; H and B), and writes every row family with those
integer indices straight into the model's row store. A row that the indices
show to be empty is not assembled; it must hold at zero, or the build raises
``ModelError``. A solution comes back as one list of column values, which
``PlanProblem.solve``, ``extract_schedule`` and ``start_after`` read through
the same indices; no other module knows them. Only ``audit`` reads values by
``vn`` key, from ``Solution.values``, so that it stays independent of the
build's index bookkeeping.

``milp`` alone prices a plan: ``COST_BUCKETS`` names the objective's cost
buckets, and ``extract_schedule`` gives each launch and service start the
cash that the objective prices it at. ``commit`` holds the whole
rolling-horizon commit rule: from a solved window it picks the events that
the commit interval keeps, and builds the next window's start
(``start_after``) with the services those events begin. A flight in the air
that lands to start one of them is handed over with the demand delivered,
and a service stays in the start while it pins its servicer. The campaign
loop in ``horizon`` only books the events' cash and carries the start on.

A curve, with the origin prepended, is convex in initial mass
(``network.expand`` refuses one that is not), so its chord interpolant is the
largest of its chord lines. A curve arc's burn is one column ``L``, at or
above each chord (one ``sos2_seg`` row each) and at most the burn at the last
breakpoint, which keeps the wet mass within the breakpoints. A burn above the
curve earns nothing but dumps propellant, which can lighten a later flight;
where HiGHS returns one, ``PlanProblem.solve`` fixes the plan and solves one
LP that minimizes the curve-arc burn at the same profit. The two tags are
those of the weights and segment rows they replace: the benchmark's census
(``benchmarks/spans.py``) counts only the families it lists, and they change
with its next revision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .demand import ServiceNeed
from .lp import BINARY, CONTINUOUS, INTEGER, Model, SolveResult
from .network import DynamicNetwork, TransportArc
from .scenario import Scenario, VehicleDesign

INT_TOL = 1e-6
# the objective's cost buckets, each charged against ``revenues``
COST_BUCKETS = ("launch", "pdm", "delay", "depot_ops", "servicer_ops")
EARTH_SUPPLY = 1e7              # cap on each commodity launched per Earth step
SOS2_TOL = 1e-6                 # burn (kg) above a curve that solve() lets be
CARGO_TOL = 1e-4                # cargo that a flight or launch event lists


class ModelError(Exception):
    pass


def vn(tag: str, *parts) -> tuple:
    """Column key of variable family ``tag`` at index ``parts``."""
    return (tag, *parts)


def ops_bucket(vehicle: VehicleDesign) -> str:
    """The cost bucket of ``vehicle``'s operating cost."""
    return "depot_ops" if vehicle.vehicle_class == "depot" else "servicer_ops"


@dataclass(frozen=True)
class PendingArrival:
    """A vehicle (with cargo) already in flight toward a node at horizon start."""
    vehicle: str
    node: str
    t: int                      # arrival step, a campaign day
    commodities: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CommittedService:
    """A service started in a previous horizon that still occupies a servicer."""
    vehicle: str
    node: str                   # customer satellite name
    end_day: float              # campaign day on which the service completes
    need_id: str = ""
    start_day: float = 0.0      # campaign day on which the service began

    def covers(self, node: str, t: int) -> bool:
        """Whether the service is under way at customer ``node`` on ``t``."""
        return node == self.node and self.start_day <= t < self.end_day


@dataclass(frozen=True)
class InitialState:
    """The world a window starts from on its first step: the parked
    vehicles and their loads, what is still in flight, and the services
    still running. Its times are campaign days, the clock of every window's
    grid, so a campaign carries one such record from window to window as it
    stands."""
    vehicle_nodes: dict[str, str] = field(default_factory=dict)
    commodities: dict[str, dict[str, float]] = field(default_factory=dict)
    pending_arrivals: tuple[PendingArrival, ...] = ()
    committed: tuple[CommittedService, ...] = ()

    def active_vehicles(self, scenario: Scenario) -> dict[str, VehicleDesign]:
        """Servicers and depots deployed now or arriving, in scenario order."""
        here = set(self.vehicle_nodes)
        here |= {p.vehicle for p in self.pending_arrivals}
        return {v.id: v for v in scenario.servicers + scenario.depots
                if v.id in here}

    def validate(self, scenario: Scenario):
        for v, loads in self.commodities.items():
            design = scenario.vehicles[v]
            for k, qty in loads.items():
                cap = design.capacities.get(k, 0.0)
                # relative for large capacities: a stock summed from the
                # solved flows can sit round-off above a full tank
                if qty > cap + 1e-9 * max(1.0, cap):
                    raise ModelError(
                        f"initial load of {k} on {v} exceeds capacity "
                        f"({qty} > {cap})")


@dataclass
class SolveOptions:
    gap: float = 0.01
    time_limit: Optional[float] = None


@dataclass
class Solution(SolveResult):
    # ``iterations`` counts both stages of ``PlanProblem.solve``
    components: dict[str, float] = field(default_factory=dict)
    # the rounded column values under their ``vn`` keys, for ``audit``;
    # empty without a solution
    values: dict[tuple, float] = field(default_factory=dict)


@dataclass
class _ArcColumns:
    """Column indices of one arc's variables."""
    w: int
    u: dict[str, int] = field(default_factory=dict)     # commodity -> U
    z: Optional[int] = None             # wet mass, on a flight only
    # (slope, intercept) per chord of a curve: burn >= slope * Z + intercept
    chords: list[tuple[float, float]] = field(default_factory=list)
    propellant: Optional[str] = None    # the commodity a flight burns
    burn: dict[int, float] = field(default_factory=dict)  # L or Z -> burn


class PlanProblem:
    """One MILP instance over a dynamic network, needs and an initial state."""

    def __init__(self, scenario: Scenario, net: DynamicNetwork,
                 needs: list[ServiceNeed],
                 init: Optional[InitialState] = None,
                 options: Optional[SolveOptions] = None):
        self.scenario = scenario
        self.net = net
        self.needs = list(needs)
        self.init = init or InitialState()
        self.options = options or SolveOptions()
        self.init.validate(scenario)
        self.grid = net.grid
        self.nodes = net.nodes
        self._prepare()
        self.model = Model("oos-plan")
        self._build()

    # -- index preparation -------------------------------------------------

    def _prepare(self):
        scn, net, grid = self.scenario, self.net, self.grid
        self.node_by_name = {n.name: n for n in self.nodes.nodes}
        self.active = self.init.active_vehicles(scn)
        self.launchers = {v.id: v for v in scn.launchers}

        self.presence: dict[str, list[int]] = {}
        for vid, v in self.active.items():
            if v.vehicle_class == "depot":
                self.presence[vid] = [self.node_by_name[self.init.vehicle_nodes[vid]].index]
            else:
                self.presence[vid] = [n.index for n in self.nodes.orbital]

        self.carriable: dict[str, list[str]] = {
            vid: [k for k, cap in v.capacities.items() if cap > 0]
            for vid, v in {**self.active, **self.launchers}.items()}

        # a committed servicer stays pinned to its customer until the first
        # step at or after the service end from which it can fly, so a
        # service ending near the horizon edge does not strand it; that step
        # releases it
        departs = {(a.vehicle, a.i, a.t) for a in net.arcs
                   if not a.is_launch and a.vehicle in self.active}
        self.pinned: set[tuple[str, int, int]] = set()
        release: set[tuple[str, int, int]] = set()   # (vehicle, node, step)
        for c in self.init.committed:
            i = self.node_by_name[c.node].index
            end = next((t for t in grid.steps if t >= c.end_day
                        and (c.vehicle, i, t) in departs), grid.final + 1)
            self.pinned |= {(c.vehicle, i, t) for t in grid.steps
                            if c.start_day <= t < end}
            release.add((c.vehicle, i, end))

        # what each vehicle brings to (node, step) from outside the horizon:
        # its start loads, then each in-flight cargo, in ``init`` order
        self.arriving: dict[tuple[str, int, int], list[dict[str, float]]] = {}
        for vid, node in self.init.vehicle_nodes.items():
            self.arriving.setdefault(
                (vid, self.node_by_name[node].index, grid.steps[0]), []
            ).append(self.init.commodities.get(vid, {}))
        for p in self.init.pending_arrivals:
            self.arriving.setdefault(
                (p.vehicle, self.node_by_name[p.node].index, p.t), []
            ).append(p.commodities)

        # needs: capable vehicles and ``starts``, the window steps on which
        # each may start the need, with no step of its service under way
        # beside a committed service at the customer (so the one_service
        # rows need not count one); ends[v, i, tau] holds the steps at which
        # such a start releases v (None where it runs past the horizon)
        self.needs_at: dict[int, list[ServiceNeed]] = {}
        self.capable: dict[str, list[str]] = {}
        self.starts: list[tuple[ServiceNeed, str, tuple[int, ...]]] = []
        ends: dict[tuple[str, int, int], set[Optional[int]]] = {}
        held = set(self.pinned)
        for need in self.needs:
            node = self.node_by_name.get(need.satellite)
            if node is None or node.tier != "customer":
                raise ModelError(f"need {need.id}: unknown customer node "
                                 f"{need.satellite!r}")
            if not need.window:
                raise ModelError(f"need {need.id} has no service window")
            self.needs_at.setdefault(node.index, []).append(need)
            self.capable[need.id] = [
                vid for vid, v in self.active.items()
                if v.is_servicer and v.capacities.get(need.required_tool, 0) > 0]
            taus = tuple(tau for tau in need.window if not any(
                c.covers(need.satellite, t) for t in grid.steps
                if need.covers(tau, t) for c in self.init.committed))
            busy = [t for t in grid.steps
                    if any(need.covers(tau, t) for tau in taus)]
            for vid in self.capable[need.id] if taus else ():
                self.starts.append((need, vid, taus))
                for tau in taus:
                    ends.setdefault((vid, node.index, tau), set()).add(
                        grid.next_step_at_or_after(tau + need.duration))
                held |= {(vid, node.index, t) for t in busy}

        # A servicer gets a state at a customer node only where a row lets
        # it be there or leave: the steps and service steps of its starts,
        # its pinned steps, its start, its in-flight arrivals and its
        # release steps. The presence rows force every other customer state
        # to zero. They hold Y to the services and the pinned run, and a
        # service starts only on an arrival, so the servicer leaves only on
        # a release step: a service end, the end of its pinned run, its
        # start or an in-flight arrival. A start on which no kept flight
        # (below) lands keeps its state; the arrival rows force it to zero.
        release |= set(self.arriving)
        release |= {(vid, i, e) for (vid, i, _), es in ends.items()
                    for e in es}
        held |= set(ends) | release
        # Every (vehicle, node, step) with a state, in column order; then
        # the servicers' states at customer nodes, in the same order.
        customer = {n.index for n in self.nodes.customer}
        self.states = [(vid, i, t) for vid, v in self.active.items()
                       for i in self.presence[vid] for t in grid.steps
                       if not (v.is_servicer and i in customer)
                       or (vid, i, t) in held]
        self.customer_states = [
            (vid, i, t) for vid, i, t in self.states
            if i in customer and self.active[vid].is_servicer]
        has_state = set(self.states)

        # A flight leaves a state, a customer only on a release step. It
        # lands at a parking node, or on a start step whose service can be
        # left: the service runs past the horizon, or a kept flight leaves
        # at its end. A service lasts at least a day, so that end comes
        # after the departure, and one sweep from the last departure back
        # decides every landing.
        leaving: set[tuple[str, int, int]] = set()
        flown = set()
        for a in sorted(net.arcs, key=lambda a: -a.t):
            if a.is_launch or (a.vehicle, a.i, a.t) not in (
                    release if a.i in customer else has_state):
                continue
            if a.j in customer and not any(
                    e is None or (a.vehicle, a.j, e) in leaving
                    for e in ends.get((a.vehicle, a.j, a.arrival), ())):
                continue
            leaving.add((a.vehicle, a.i, a.t))
            flown.add(a.key)
        self.arcs = [a for a in net.arcs if (
            a.vehicle in self.launchers if a.is_launch else a.key in flown)]
        self.dep_arcs: dict[tuple, list[TransportArc]] = {}
        self.arr_arcs: dict[tuple, list[TransportArc]] = {}
        for a in self.arcs:
            self.dep_arcs.setdefault((a.vehicle, a.i, a.t), []).append(a)
            self.arr_arcs.setdefault((a.vehicle, a.j, a.arrival), []).append(a)

    def _mode_of(self, arc: TransportArc):
        if arc.is_launch:
            return None
        return self.scenario.vehicles[arc.vehicle].mode(arc.r)

    # -- variable creation -------------------------------------------------

    def _build(self):
        m = self.model
        scn = self.scenario
        grid = self.grid

        def kind_of(k):
            return INTEGER if scn.commodities[k].is_integer else CONTINUOUS

        # Each column index is looked up once, here, and every row family
        # is written with these indices: Y and X per state, the columns of
        # each arc, and H and B.
        self._y: dict[tuple[str, int, int], int] = {}
        self._x: dict[tuple[str, int, int], dict[str, int]] = {}
        for s in self.states:
            vid = s[0]
            v = self.active[vid]
            # a depot stays at its slot throughout
            self._y[s] = m.add_var(vn("Y", *s), kind=BINARY,
                                   lb=1.0 if v.vehicle_class == "depot" else 0.0)
            self._x[s] = {k: m.add_var(vn("X", *s, k), ub=v.capacities[k],
                                       kind=kind_of(k))
                          for k in self.carriable[vid]}
        self._arc_cols: list[_ArcColumns] = []
        self._dep: dict[tuple[str, int, int], list[_ArcColumns]] = {}
        self._arr: dict[tuple[str, int, int], list[_ArcColumns]] = {}
        for a in self.arcs:
            key = a.key
            cols = _ArcColumns(w=m.add_var(vn("W", *key), kind=BINARY))
            caps = (self.launchers.get(a.vehicle) or self.active[a.vehicle]).capacities
            cols.u = {k: m.add_var(vn("U", *key, k), ub=caps[k], kind=kind_of(k))
                      for k in self.carriable[a.vehicle]}
            if not a.is_launch:
                cols.propellant = self._mode_of(a).propellant_commodity
                ub = a.mass_upper_bound if math.isfinite(a.mass_upper_bound) else 1e9
                cols.z = m.add_var(vn("Z", *key), ub=ub)
                if a.model.burn_fraction is None:
                    pts = [(0.0, 0.0), *a.model.breakpoints]
                    for (b0, f0), (b1, f1) in zip(pts, pts[1:]):
                        slope = (f1 - f0) / (b1 - b0)
                        cols.chords.append((slope, f0 - slope * b0))
                    cols.burn = {m.add_var(vn("L", *key), ub=pts[-1][1]): 1.0}
                else:
                    cols.burn = {cols.z: a.model.burn_fraction}
            self._arc_cols.append(cols)
            self._dep.setdefault((a.vehicle, a.i, a.t), []).append(cols)
            self._arr.setdefault((a.vehicle, a.j, a.arrival), []).append(cols)
        # H per start; B per step its service covers, and its dispatch row
        self._h: dict[tuple[str, str, int], int] = {}
        self._dispatch: list[dict[int, float]] = []
        self._starts_at: dict[tuple, list] = {}     # (v, i, t): (need, H)
        self._under_way: dict[tuple, list] = {}     # (i, t): (v, need, B)
        for need, vid, taus in self.starts:
            i = self.node_by_name[need.satellite].index
            for tau in taus:
                h = self._h[vid, need.id, tau] = m.add_var(
                    vn("H", vid, need.id, tau), kind=BINARY)
                self._starts_at.setdefault((vid, i, tau), []).append((need, h))
            for t in grid.steps:
                hs = [self._h[vid, need.id, tau] for tau in taus
                      if need.covers(tau, t)]
                if hs:
                    b = m.add_var(vn("B", vid, need.id, t), kind=BINARY)
                    self._dispatch.append({b: 1.0, **dict.fromkeys(hs, -1.0)})
                    self._under_way.setdefault((i, t), []).append(
                        (vid, need, b))

        self._add_balances()
        self._add_concurrency()
        self._add_transformation()
        self._add_service_management()
        self._add_flight_rules()
        self._add_objective()

    # -- constraint families -----------------------------------------------

    def _add(self, family: str, row: dict[int, float], sense: str,
             rhs: float):
        """Add the row ``row sense rhs``, ``row`` mapping column index to
        coefficient. A column that ``_prepare`` left out is zero in every
        solution, so the families leave it out of their rows; a row left
        with no column is skipped if it holds at zero."""
        if row:
            self.model.add_constr(family, row, sense, rhs)
        elif not {"<=": 0.0 <= rhs, ">=": 0.0 >= rhs, "==": rhs == 0.0}[sense]:
            raise ModelError(f"empty {family} row cannot hold: "
                             f"0 {sense} {rhs}")

    def _init_stock(self, vid: str, i: int, k: str, t: int) -> float:
        return sum((load.get(k, 0.0)
                    for load in self.arriving.get((vid, i, t), ())), 0.0)

    def _init_presence(self, vid: str, i: int, t: int) -> float:
        return float(len(self.arriving.get((vid, i, t), ())))

    def _outflows(self, rows: dict[str, dict[int, float]], vid: str, i: int,
                  t: int):
        """Add to ``rows[k]``, for each commodity ``k`` that vehicle ``vid``
        moves at ``(i, t)``, the LHS of its mass balance there: holdover out
        + transport out - all inflows, the inflows written in outflows (a
        holdover burns station keeping, an arc its propellant)."""
        x = self._x.get((vid, i, t))
        if x:
            for k, col in x.items():
                rows[k][col] = 1.0
            tp = t - self.grid.delta_backward(t)
            if tp != t:
                for k, col in self._x.get((vid, i, tp), {}).items():
                    rows[k][col] = -1.0
                v = self.active[vid]
                k = v.station_keeping_commodity
                dt = self.grid.delta_forward(tp)
                y = self._y.get((vid, i, tp))
                if v.station_keeping_rate > 0 and k in x and dt > 0 \
                        and y is not None:
                    rows[k][y] = v.station_keeping_rate * dt
        for a in self._dep.get((vid, i, t), ()):
            for k, col in a.u.items():
                rows[k][col] = 1.0
        for a in self._arr.get((vid, i, t), ()):
            for k, col in a.u.items():
                rows[k][col] = -1.0
            if a.propellant in a.u:
                rows[a.propellant].update(a.burn)

    def _add_balances(self):
        grid, scn = self.grid, self.scenario
        vids_all = list(self.active) + list(self.launchers)

        # commodity balance at customer nodes, per servicer, node by node
        for vid, i, t in sorted(self.customer_states, key=lambda s: s[1]):
            rows = {k: {} for k in self.carriable[vid]}
            self._outflows(rows, vid, i, t)
            for k, row in rows.items():
                for need, h in self._starts_at.get((vid, i, t), ()):
                    if need.commodity_demand.get(k):
                        # nonpositive demand: delivery leaves the servicer
                        row[h] = need.commodity_demand[k]
                self._add("bal_cust", row, "==",
                          self._init_stock(vid, i, k, t))

        # commodity balance at parking nodes, pooled over vehicles
        all_k = list(scn.commodities)
        for node in self.nodes.parking:
            i = node.index
            for t in grid.steps:
                rows = {k: {} for k in all_k}
                rhs = dict.fromkeys(all_k, 0.0)
                for vid in vids_all:
                    self._outflows(rows, vid, i, t)
                    if (vid, i, t) in self.arriving:
                        for k in all_k:
                            rhs[k] += self._init_stock(vid, i, k, t)
                for k in all_k:
                    self._add("bal_park", rows[k], "==", rhs[k])

        # Earth commodity supply caps
        for node in self.nodes.earth:
            i = node.index
            for t in grid.steps:
                deps = [a for vid in vids_all
                        for a in self._dep.get((vid, i, t), ())]
                for k in all_k:
                    row = {a.u[k]: 1.0 for a in deps if k in a.u}
                    self._add("supply", row, "<=", EARTH_SUPPLY)

        # vehicle balances at orbital nodes
        for s in self.states:
            vid, i, t = s
            row = {self._y[s]: 1.0}
            tp = t - grid.delta_backward(t)
            if tp != t and (vid, i, tp) in self._y:
                row[self._y[vid, i, tp]] = -1.0
            for a in self._dep.get(s, ()):
                row[a.w] = 1.0
            for a in self._arr.get(s, ()):
                row[a.w] = -1.0
            self._add("bal_veh", row, "==", self._init_presence(vid, i, t))

        # Earth vehicle supply: one launcher per launch step
        for node in self.nodes.earth:
            i = node.index
            for t in grid.steps:
                for vid in self.launchers:
                    row = {a.w: 1.0 for a in self._dep.get((vid, i, t), ())}
                    self._add("veh_supply", row, "<=", 1)

    def _add_concurrency(self):
        # holdover capacity
        for s in self.states:
            y, caps = self._y[s], self.active[s[0]].capacities
            for k, x in self._x[s].items():
                self._add("cap_hold", {x: 1.0, y: -caps[k]}, "<=", 0.0)
        # transport capacity
        for a, cols in zip(self.arcs, self._arc_cols):
            v = self.launchers.get(a.vehicle) or self.active[a.vehicle]
            for k, u in cols.u.items():
                self._add("cap_arc", {u: 1.0, cols.w: -v.capacities[k]},
                          "<=", 0.0)
            if v.payload_capacity is not None:
                row = {u: self.scenario.unit_mass(k)
                       for k, u in cols.u.items()}
                row[cols.w] = -v.payload_capacity
                self._add("cap_payload", row, "<=", 0.0)

    def _add_transformation(self):
        scn = self.scenario
        # total wet mass definition and flight-feasibility bound
        for a, cols in zip(self.arcs, self._arc_cols):
            if a.is_launch:
                continue
            v = self.active[a.vehicle]
            row = {cols.z: 1.0, cols.w: -v.dry_mass}
            for k, u in cols.u.items():
                row[u] = -scn.unit_mass(k)
            self._add("wet_mass", row, "==", 0.0)
            if math.isfinite(a.mass_upper_bound):
                self._add("mass_ub", {cols.z: 1.0,
                                      cols.w: -a.mass_upper_bound},
                          "<=", 0.0)
            # propellant on board must cover the burn
            row = {}
            if cols.propellant in cols.u:
                row[cols.u[cols.propellant]] = 1.0
            for col, f in cols.burn.items():
                row[col] = -f
            self._add("prop_avail", row, ">=", 0.0)
            # a curve arc burns at least each chord of its curve
            for slope, intercept in cols.chords:
                self._add("sos2_seg", {**cols.burn, cols.z: -slope}, ">=",
                          intercept)
        # depot station keeping stock must cover the holdover burn
        for s in self.states:
            v = self.active[s[0]]
            k = v.station_keeping_commodity
            dt = self.grid.delta_forward(s[2])
            if v.station_keeping_rate > 0 and k in self._x[s] and dt > 0:
                self._add("sk_avail", {self._x[s][k]: 1.0,
                                       self._y[s]: -v.station_keeping_rate * dt},
                          ">=", 0.0)

    def _add_service_management(self):
        # each need assigned at most once
        once = {need.id: {} for need in self.needs}
        for (_, need_id, _), h in self._h.items():
            once[need_id][h] = 1.0
        for row in once.values():
            self._add("assign_once", row, "<=", 1.0)
        # a vehicle only starts a service it was dispatched for
        for row in self._dispatch:
            self._add("dispatch", row, "==", 0.0)
        # one service at a time per customer node; no admitted start runs
        # beside a committed service, so the rows count the window's own
        for i in self.needs_at:
            for t in self.grid.steps:
                row = {b: 1.0 for _, _, b in self._under_way.get((i, t), ())}
                self._add("one_service", row, "<=", 1.0)
        # presence at customer nodes equals dispatch
        for s in self.customer_states:
            vid, i, t = s
            row = {self._y[s]: 1.0}
            row.update((b, -1.0) for v, _, b in self._under_way.get((i, t), ())
                       if v == vid)
            self._add("presence", row, "==", float(s in self.pinned))
        # the adequate tool must be on board while a service needs it
        for s in self.customer_states:
            vid, i, t = s
            for k in self.scenario.tool_ids():
                row = {b: -1.0 for v, n, b in self._under_way.get((i, t), ())
                       if v == vid and n.required_tool == k}
                if row:
                    if k in self._x[s]:
                        row[self._x[s][k]] = 1.0
                    self._add("tool", row, ">=", 0.0)

    def _add_flight_rules(self):
        # arrivals at a customer node exactly when a service starts, on
        # every step: a servicer parked there unpinned flies in first
        for s in self.customer_states:
            row = {a.w: 1.0 for a in self._arr.get(s, ())}
            row.update((h, -1.0) for _, h in self._starts_at.get(s, ()))
            self._add("arrival", row, "==", 0.0)

    def _add_objective(self):
        m, scn, grid = self.model, self.scenario, self.grid
        # bucket -> column index -> cost (or revenue) coefficient
        self.obj_terms: dict[str, dict[int, float]] = {
            b: {} for b in ("revenues",) + COST_BUCKETS}

        for need, vid, taus in self.starts:
            first = grid.next_step_at_or_after(need.tau)
            for tau in taus:
                h = self._h[vid, need.id, tau]
                self.obj_terms["revenues"][h] = need.revenue
                delay = tau - first
                if delay > 0 and need.delay_penalty_per_day > 0:
                    self.obj_terms["delay"][h] = \
                        need.delay_penalty_per_day * delay
        launch = self.obj_terms["launch"]
        pdm = self.obj_terms["pdm"]
        c_l = scn.economics.launch_cost_per_kg
        for a, cols in zip(self.arcs, self._arc_cols):
            if not a.is_launch:
                continue
            for k, u in cols.u.items():
                launch[u] = c_l * scn.unit_mass(k)
                pdm[u] = scn.commodities[k].purchase_cost
            v = self.launchers.get(a.vehicle) or self.active[a.vehicle]
            launch[cols.w] = c_l * v.dry_mass
            pdm[cols.w] = v.manufacturing_cost
        # operating costs: each vehicle's states, then each servicer flight
        for vid, i, t in self.states:
            v, dt = self.active[vid], grid.delta_forward(t)
            if v.operating_cost_per_day > 0 and dt > 0:
                self.obj_terms[ops_bucket(v)][self._y[vid, i, t]] = \
                    v.operating_cost_per_day * dt
        for a, cols in zip(self.arcs, self._arc_cols):
            v = self.active.get(a.vehicle)
            if not a.is_launch and v.is_servicer and v.operating_cost_per_day > 0:
                self.obj_terms[ops_bucket(v)][cols.w] = \
                    v.operating_cost_per_day * a.q

        for j, coeff in self.obj_terms["revenues"].items():
            m.add_objective(j, coeff)
        for bucket in COST_BUCKETS:
            for j, coeff in self.obj_terms[bucket].items():
                m.add_objective(j, -coeff)

    # -- solving and extraction --------------------------------------------

    def _run(self, model: Model) -> SolveResult:
        return model.solve(self.options.gap, self.options.time_limit)

    def solve(self) -> Solution:
        res = self._run(self.model)
        sol = Solution(status=res.status, objective=res.objective, x=res.x,
                       gap=res.gap, dual_bound=res.dual_bound, nodes=res.nodes,
                       iterations=res.iterations)
        if sol.feasible:
            if not all(self._on_curve(c, sol.x) for c in self._arc_cols):
                self._min_burn(sol)
            # integer columns come back within the solver's tolerance:
            # check and round them in one pass
            x = sol.x
            for j, kind in enumerate(self.model.var_kind):
                if kind != CONTINUOUS:
                    r = round(x[j])
                    if abs(x[j] - r) > INT_TOL:
                        raise ModelError(f"non-integral value {x[j]} for "
                                         f"{self.model.var_names[j]}")
                    x[j] = float(r)
            sol.values = dict(zip(self.model.keys, x))
            sol.components = self.cost_components(x)
            sol.objective = sol.components["profit"]
        return sol

    @staticmethod
    def _on_curve(cols: _ArcColumns, x: list[float]) -> bool:
        """The arc burns at most its curve's chord interpolant at its wet
        mass, the largest of its chord lines, plus ``SOS2_TOL``; a line
        burns exactly."""
        return not cols.chords or sum(x[j] for j in cols.burn) <= max(
            s * x[cols.z] + c for s, c in cols.chords) + SOS2_TOL

    def _min_burn(self, sol: Solution):
        """Second stage: with every integer column fixed and the profit held
        at the first stage's, minimize the total curve-arc burn. The least
        burn at a given mass lies on the curve, so this removes the
        over-burn without losing profit. Leaves ``sol`` as it is when the LP
        returns no solution."""
        burn = {j: -1.0 for cols in self._arc_cols if cols.chords
                for j in cols.burn}
        lp = self.model.fixed_lp(sol.x, burn)
        z = sol.objective
        lp.add_constr("profit", self.model.objective, ">=",
                      z - 1e-7 * max(1.0, abs(z)))
        res = self._run(lp)
        sol.iterations += res.iterations
        if res.feasible:
            sol.x = res.x

    def cost_components(self, x: list[float]) -> dict[str, float]:
        out = {}
        for bucket, terms in self.obj_terms.items():
            out[bucket] = sum(coeff * x[j] for j, coeff in terms.items())
        out["profit"] = out["revenues"] - sum(out[b] for b in COST_BUCKETS)
        return out


# -- independent solution audit --------------------------------------------

@dataclass(frozen=True)
class Violation:
    family: str
    key: str
    residual: float

    def __repr__(self):
        return f"Violation({self.family}, {self.key}, {self.residual:.3e})"


def audit(problem: PlanProblem, values: dict[tuple, float],
          tol: float = 1e-6) -> list[Violation]:
    """Re-check every constraint family directly from the problem inputs.

    Works from the network, needs and initial state rather than the stored
    model rows, so a bug in row assembly cannot hide from it.
    """
    scn, grid, net = problem.scenario, problem.grid, problem.net
    out: list[Violation] = []

    def val(tag, *parts):
        return values.get(vn(tag, *parts), 0.0)

    def consumption(a: TransportArc) -> float:
        if a.is_launch:
            return 0.0
        if a.model.burn_fraction is not None:
            return a.model.burn_fraction * val("Z", *a.key)
        return val("L", *a.key)

    def on_curve(a: TransportArc, z: float) -> float:
        # the chord interpolant of the origin and the breakpoints at z,
        # extended along the end chords past them
        pts = [(0.0, 0.0), *a.model.breakpoints]
        for (b0, f0), (b1, f1) in zip(pts, pts[1:]):
            if z <= b1:
                break
        return f0 + (f1 - f0) * (z - b0) / (b1 - b0)

    def inflow(a: TransportArc, k: str) -> float:
        u = val("U", *a.key, k)
        mode = problem._mode_of(a)
        if mode is not None and k == mode.propellant_commodity:
            u -= consumption(a)
        return u

    def flag(family, residual, *parts):
        if abs(residual) > tol:
            out.append(Violation(family, "|".join(map(str, parts)), residual))

    def commodity_balance(vid, i, t, k):
        total = 0.0
        if vn("X", vid, i, t, k) in problem.model:
            total += val("X", vid, i, t, k)
            tp = t - grid.delta_backward(t)
            if tp != t:
                total -= val("X", vid, i, tp, k)
                v = problem.active[vid]
                if v.station_keeping_rate > 0 and k == v.station_keeping_commodity:
                    total += v.station_keeping_rate * grid.delta_forward(tp) \
                        * val("Y", vid, i, tp)
        for a in problem.dep_arcs.get((vid, i, t), ()):
            if k in problem.carriable[vid]:
                total += val("U", *a.key, k)
        for a in problem.arr_arcs.get((vid, i, t), ()):
            if k in problem.carriable[vid]:
                total -= inflow(a, k)
        return total - problem._init_stock(vid, i, k, t)

    # customer-node balances (per servicer) with demand RHS
    for node in net.nodes.customer:
        i = node.index
        for vid, v in problem.active.items():
            if not v.is_servicer:
                continue
            for t in grid.steps:
                for k in problem.carriable[vid]:
                    lhs = commodity_balance(vid, i, t, k)
                    rhs = 0.0
                    for need in problem.needs_at.get(i, ()):
                        if t in need.window and vid in problem.capable[need.id]:
                            rhs -= need.commodity_demand.get(k, 0.0) \
                                * val("H", vid, need.id, t)
                    flag("mass_balance_customer", lhs - rhs, vid, i, t, k)

    # parking-node pooled balances
    vids_all = list(problem.active) + list(problem.launchers)
    for node in net.nodes.parking:
        i = node.index
        for t in grid.steps:
            for k in scn.commodities:
                lhs = sum(commodity_balance(vid, i, t, k) for vid in vids_all
                          if k in problem.carriable.get(vid, ()))
                flag("mass_balance_parking", lhs, i, t, k)

    # vehicle balances
    for vid, v in problem.active.items():
        for i in problem.presence[vid]:
            for t in grid.steps:
                total = val("Y", vid, i, t)
                tp = t - grid.delta_backward(t)
                if tp != t:
                    total -= val("Y", vid, i, tp)
                for a in problem.dep_arcs.get((vid, i, t), ()):
                    total += val("W", *a.key)
                for a in problem.arr_arcs.get((vid, i, t), ()):
                    total -= val("W", *a.key)
                flag("vehicle_balance",
                     total - problem._init_presence(vid, i, t), vid, i, t)

    # capacities
    for vid, v in problem.active.items():
        for i in problem.presence[vid]:
            for t in grid.steps:
                for k in problem.carriable[vid]:
                    excess = val("X", vid, i, t, k) \
                        - v.capacities[k] * val("Y", vid, i, t)
                    if excess > tol:
                        flag("capacity_holdover", excess, vid, i, t, k)
    for a in problem.arcs:
        v = problem.launchers.get(a.vehicle) or problem.active[a.vehicle]
        for k in problem.carriable[a.vehicle]:
            excess = val("U", *a.key, k) - v.capacities[k] * val("W", *a.key)
            if excess > tol:
                flag("capacity_arc", excess, *a.key, k)
            if inflow(a, k) < -tol:
                flag("negative_inflow", inflow(a, k), *a.key, k)
        if v.payload_capacity is not None:
            excess = sum(scn.unit_mass(k) * val("U", *a.key, k)
                         for k in problem.carriable[a.vehicle]) \
                - v.payload_capacity * val("W", *a.key)
            if excess > tol:
                flag("capacity_payload", excess, *a.key)

    # wet mass, mass upper bound, the burn on a curve
    for a in problem.arcs:
        if a.is_launch:
            continue
        v = problem.active[a.vehicle]
        z = val("Z", *a.key)
        wet = v.dry_mass * val("W", *a.key) + sum(
            scn.unit_mass(k) * val("U", *a.key, k)
            for k in problem.carriable[a.vehicle])
        flag("wet_mass", z - wet, *a.key)
        if math.isfinite(a.mass_upper_bound):
            excess = z - a.mass_upper_bound * val("W", *a.key)
            if excess > tol:
                flag("mass_upper_bound", excess, *a.key)
        if a.model.burn_fraction is None:
            flag("curve_burn", consumption(a) - on_curve(a, z), *a.key)

    # service management
    for need in problem.needs:
        total = sum(val("H", vid, need.id, tau)
                    for vid in problem.capable[need.id] for tau in need.window)
        if total > 1.0 + tol:
            flag("assign_once", total - 1.0, need.id)
        for vid in problem.capable[need.id]:
            for t in grid.steps:
                b = val("B", vid, need.id, t)
                expected = sum(val("H", vid, need.id, tau)
                               for tau in need.window if need.covers(tau, t))
                flag("dispatch_coupling", b - expected, vid, need.id, t)
    for i, needs_i in problem.needs_at.items():
        name = net.nodes.nodes[i].name
        for t in grid.steps:
            total = sum(val("B", vid, need.id, t) for need in needs_i
                        for vid in problem.capable[need.id])
            total += sum(c.covers(name, t) for c in problem.init.committed)
            if total > 1.0 + tol:
                flag("one_service_at_a_time", total - 1.0, i, t)
    for vid, v in problem.active.items():
        if not v.is_servicer:
            continue
        for node in net.nodes.customer:
            i = node.index
            for t in grid.steps:
                expected = sum(val("B", vid, need.id, t)
                               for need in problem.needs_at.get(i, ())
                               if vid in problem.capable[need.id])
                expected += (vid, i, t) in problem.pinned
                flag("presence_dispatch", val("Y", vid, i, t) - expected, vid, i, t)
                for k in scn.tool_ids():
                    required = sum(
                        val("B", vid, need.id, t)
                        for need in problem.needs_at.get(i, ())
                        if need.required_tool == k
                        and vid in problem.capable[need.id])
                    if required - val("X", vid, i, t, k) > tol:
                        flag("tool_on_board", required - val("X", vid, i, t, k),
                             vid, i, t, k)
                # arrivals exactly at service starts
                arrivals = sum(val("W", *a.key)
                               for a in problem.arr_arcs.get((vid, i, t), ())
                               if not a.is_launch)
                starts = sum(val("H", vid, need.id, t)
                             for need in problem.needs_at.get(i, ())
                             if t in need.window
                             and vid in problem.capable[need.id])
                flag("arrival_at_start", arrivals - starts, vid, i, t)

    return out


# -- schedule extraction ---------------------------------------------------

@dataclass(frozen=True)
class ScheduleEvent:
    day: int
    vehicle: str
    kind: str                   # flight | launch | service_start
    detail: dict
    # what the objective prices a launch or a service start at, per bucket
    # ("revenues" or a cost bucket); ``to_dict`` leaves it out
    cash: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"day": self.day, "vehicle": self.vehicle, "kind": self.kind,
                "detail": self.detail}


@dataclass(frozen=True)
class Schedule:
    events: tuple[ScheduleEvent, ...]
    outcomes: dict[str, Optional[tuple[str, int]]]  # need id -> (vehicle, tau) | None


def extract_schedule(problem: PlanProblem, solution: Solution) -> Schedule:
    if not solution.feasible:
        raise ModelError("cannot extract a schedule from an infeasible solve")
    x = solution.x
    names = {n.index: n.name for n in problem.net.nodes.nodes}
    events: list[ScheduleEvent] = []

    def cash(cols: list[int]) -> dict[str, float]:
        # the objective's terms over ``cols``, in the order it sums them
        return {b: amount for b, terms in problem.obj_terms.items()
                if (amount := sum(terms[j] * x[j] for j in cols
                                  if j in terms))}

    for a, cols in zip(problem.arcs, problem._arc_cols):
        if x[cols.w] < 0.5:
            continue
        cargo = {k: x[u] for k, u in cols.u.items() if x[u] > CARGO_TOL}
        if a.is_launch:
            priced = cash([*cols.u.values(), cols.w])
            if not cargo and not priced:
                continue        # a launch slot left unused, at no cost
            events.append(ScheduleEvent(
                day=a.t, vehicle=a.vehicle, kind="launch",
                detail={"to": names[a.j], "arrive_day": a.arrival,
                        "cargo": cargo},
                cash=priced))
        else:
            burned = sum((f * x[col] for col, f in cols.burn.items()), 0.0)
            events.append(ScheduleEvent(
                day=a.t, vehicle=a.vehicle, kind="flight",
                detail={"from": names[a.i], "to": names[a.j], "mode": a.r,
                        "q_days": a.q, "arrive_day": a.arrival,
                        "wet_mass_kg": x[cols.z],
                        "propellant_kg": burned, "cargo": cargo}))

    outcomes = dict.fromkeys(need.id for need in problem.needs)
    for need, vid, taus in problem.starts:
        first = problem.grid.next_step_at_or_after(need.tau)
        for tau in taus:
            h = problem._h[vid, need.id, tau]
            if x[h] > 0.5:
                outcomes[need.id] = (vid, tau)
                events.append(ScheduleEvent(
                    day=tau, vehicle=vid, kind="service_start",
                    detail={"need": need.id, "satellite": need.satellite,
                            "service_type": need.service_type,
                            "revenue": need.revenue,
                            "delay_days": tau - first,
                            "end_day": tau + need.duration},
                    cash=cash([h])))
    events.sort(key=lambda e: (e.day, e.vehicle, e.kind))
    return Schedule(events=tuple(events), outcomes=outcomes)


def start_after(problem: PlanProblem, solution: Solution, boundary: int,
                started: list[CommittedService]) -> InitialState:
    """The next window's start: the world on campaign day ``boundary``,
    read from ``problem``'s solved flows, with the services ``started``
    before it; its times stay campaign days."""
    x = solution.x
    names = {n.index: n.name for n in problem.net.nodes.nodes}
    init = problem.init
    pending = [p for p in init.pending_arrivals if p.t > boundary]
    # a service runs on while it holds its servicer: to its end, or to the
    # first step at or after its end from which the servicer can fly
    committed = tuple(
        c for c in init.committed + tuple(started) if c.end_day > boundary
        or (c.vehicle, problem.node_by_name[c.node].index, boundary)
        in problem.pinned)
    # a flight in the air that lands to start a service delivers its demand
    demand = {n.id: n.commodity_demand for n in problem.needs}
    delivered = {(c.vehicle, c.node, c.start_day): demand[c.need_id]
                 for c in started}

    # flights and launch cargo still in the air at the boundary
    for a, cols in zip(problem.arcs, problem._arc_cols):
        if not (a.t < boundary < a.arrival and x[cols.w] > 0.5):
            continue
        if a.is_launch:
            cargo = {k: x[u] for k, u in cols.u.items() if x[u] > 1e-9}
            if not cargo:
                continue
        else:
            # the load, less the burn where it is the propellant and the
            # demand of a service it lands for, clipped at 0
            drop = delivered.get((a.vehicle, names[a.j], a.arrival), {})
            cargo = {}
            for k, u in cols.u.items():
                amount = x[u] - drop.get(k, 0.0)
                if k == cols.propellant:
                    for col, f in cols.burn.items():
                        amount -= f * x[col]
                cargo[k] = max(amount, 0.0)
        pending.append(PendingArrival(vehicle=a.vehicle, node=names[a.j],
                                      t=a.arrival, commodities=cargo))

    # A vehicle leaves only from a state, so every parked vehicle is found
    # at a state on the boundary step. A departure at exactly the boundary
    # is not committed yet: the vehicle still counts as parked at its
    # origin, holding the cargo it would load.
    vehicle_nodes: dict[str, str] = {}
    commodities: dict[str, dict[str, float]] = {}
    for s in problem.states:
        vid, i, t = s
        if t != boundary:
            continue
        leaving = [cols for cols in problem._dep.get(s, ()) if x[cols.w] > 0.5]
        if leaving or x[problem._y[s]] > 0.5:
            stock = {k: x[j] for k, j in problem._x[s].items()}
            for cols in leaving:
                for k in stock:
                    stock[k] += x[cols.u[k]]
            vehicle_nodes[vid], commodities[vid] = names[i], stock
    flying = {p.vehicle for p in pending}
    for vid in problem.active:
        if vid not in vehicle_nodes and vid not in flying:
            raise ModelError(f"vehicle {vid} is neither parked nor in flight "
                             f"at the commit boundary")
    return InitialState(vehicle_nodes=vehicle_nodes, commodities=commodities,
                        pending_arrivals=tuple(pending), committed=committed)


def commit(problem: PlanProblem, solution: Solution, schedule: Schedule,
           boundary: int) -> tuple[list[ScheduleEvent], InitialState]:
    """What a campaign keeps of a solved window up to campaign day
    ``boundary``: the events before it, then the service starts that a
    committed flight is flying to, each group in schedule order; and the
    next window's start, which holds the services begun among them."""
    events = [e for e in schedule.events if e.day < boundary]
    flights = {(e.vehicle, e.detail["to"], e.detail["arrive_day"])
               for e in events if e.kind == "flight"}
    events += [e for e in schedule.events
               if e.kind == "service_start" and e.day >= boundary
               and (e.vehicle, e.detail["satellite"], e.day) in flights]
    started = [CommittedService(vehicle=e.vehicle, node=e.detail["satellite"],
                                end_day=e.detail["end_day"],
                                need_id=e.detail["need"], start_day=e.day)
               for e in events if e.kind == "service_start"]
    return events, start_after(problem, solution, boundary, started)
