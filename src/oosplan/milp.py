"""MILP assembly and solution handling for one planning horizon.

Builds the time-expanded multi-commodity flow model over a DynamicNetwork and
a set of service needs: profit objective, mass balances, payload concurrency,
propellant transformation (exact where the trajectory model is a line,
the epigraph of its chords where it is a convex curve), service management
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

Columns are keyed by ``vn`` tuples. The build makes them as blocks of the
model's store: Y then X per state, each vehicle's states one run; W, U, Z
and the burn L per arc; H and B per start. It keeps their indices as arrays
over the states, arcs and commodities (``_ycol``, ``_xcol``, ``_wcol``,
``_ucol``, ...), writes each large row family as array expressions over
them, and adds every row to the model as one block (``_RowBlock``). The
rows come family by family, in the order of ``_build``'s calls, each
family's rows in the order its comment gives, so equal inputs give HiGHS
equal arrays; within a row the entries are in no set order, as HiGHS's
matrix and ``write_lp`` sort them. A row left with no entry is not
assembled; it must hold at zero, or the build raises ``ModelError``. A solution comes back as one list of column
values, which ``PlanProblem.solve``, ``extract_schedule`` and
``start_after`` read through the same indices; no other module knows them.

``audit`` reads none of those indices. It reads ``values`` once, by ``vn``
key, into dense arrays of its own enumeration: Y and X per active vehicle,
node, step and commodity, W, Z, L and U per arc (by ``TransportArc.key``),
and H and B per need, active vehicle and step. A key outside that
enumeration is ignored and an absent one reads 0; which X columns exist it
takes from the model's keys. It then checks each family as array
expressions over those arrays. Its test oracle, ``tests/audit_reference.py``,
checks the same families one value at a time; both return the same
violations in the same order.

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
from itertools import compress
from typing import Optional

import numpy as np

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
    u: dict[str, int]                   # commodity -> U
    z: Optional[int]                    # wet mass, on a flight only
    # (slope, intercept) per chord of a curve: burn >= slope * Z + intercept
    chords: list[tuple[float, float]]
    propellant: Optional[str]           # the commodity a flight burns
    burn: dict[int, float]              # L or Z -> burn


# the row of an entry that is not there: below -1, so that it stays below 0
# when a block shifts its rows
NO_ROW = -(1 << 40)


class _RowBlock:
    """Rows gathered family by family and added to a model as one block.

    Each family appends its rows in order (``add``) and gives its entries
    as arrays of rows, counted from its first, of columns and of
    coefficients (an array or one for all). A row of ``NO_ROW`` or a column
    of -1 marks an entry that is not there. A column that
    ``PlanProblem._prepare`` left out is zero in every solution, so the
    families leave it out of their rows; ``commit`` skips a row left with
    no entry if it holds at zero, and raises ``ModelError`` if not.
    """

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.firsts: list[int] = []      # the first row of each family
        self.cols: list[np.ndarray] = []
        self.vals: list = []
        self.family: list[str] = []
        self.sense: list[str] = []
        self.rhs: list[float] = []

    def add(self, family: str | list[str], sense: str | list[str], rhs,
            *entries):
        """The rows ``sense rhs`` of ``family``, one per item of ``rhs``;
        ``family`` and ``sense`` are one for all of them or one each."""
        first, n = len(self.rhs), len(rhs)
        self.family += [family] * n if isinstance(family, str) else family
        self.sense += [sense] * n if isinstance(sense, str) else sense
        self.rhs += rhs.tolist() if isinstance(rhs, np.ndarray) else rhs
        for row, col, val in entries:
            self.rows.append(row)
            self.firsts.append(first)
            self.cols.append(col)
            self.vals.append(val)

    def add_dicts(self, rows: list[tuple[str, dict[int, float], str, float]]):
        """Rows given as ``family, {column: coefficient}, sense, rhs``."""
        if rows:
            family, coeffs, sense, rhs = map(list, zip(*rows))
            self.add(family, sense, rhs, (
                np.repeat(np.arange(len(rows)), [len(c) for c in coeffs]),
                np.array([j for c in coeffs for j in c], dtype=np.intp),
                np.array([v for c in coeffs for v in c.values()],
                         dtype=float)))

    def commit(self, model: Model):
        sizes = [len(c) for c in self.cols]
        row = np.concatenate(self.rows) + np.repeat(self.firsts, sizes) \
            if sizes else np.zeros(0, np.intp)
        col = np.concatenate(self.cols) if sizes else np.zeros(0, np.intp)
        val = np.repeat([0.0 if isinstance(v, np.ndarray) else v
                         for v in self.vals], sizes)
        end = 0
        for v, n in zip(self.vals, sizes):
            end += n
            if isinstance(v, np.ndarray):
                val[end - n:end] = v
        there = (row >= 0) & (col >= 0)
        row, col, val = row[there], col[there], val[there]
        rhs = np.array(self.rhs, dtype=float)
        family, sense = self.family, self.sense
        used = np.bincount(row, minlength=len(rhs)).astype(bool)
        if not used.all():
            # an empty row holds at zero where its right-hand side is 0
            for n in (~used & (rhs != 0.0)).nonzero()[0].tolist():
                if not {"<=": 0.0 <= rhs[n], ">=": 0.0 >= rhs[n],
                        "==": rhs[n] == 0.0}[sense[n]]:
                    raise ModelError(f"empty {family[n]} row cannot hold: "
                                     f"0 {sense[n]} {self.rhs[n]}")
            row = (np.cumsum(used) - 1)[row]
            rhs = rhs[used]
            keep = used.tolist()
            family, sense = (list(compress(f, keep)) for f in (family, sense))
        model.add_rows(family, row, col, val, sense, rhs)


def _ranks(keys: list) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct ``keys`` in sorted order, and
    how many there are: rows numbered in the order of their keys."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.intp), len(rank)


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
                   if a.model is not None and a.vehicle in self.active
                   } if self.init.committed else set()
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
        steps = np.array(grid.steps)
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
            # (start, step): whether a start in the window covers the step
            covers = need.covers(np.array(need.window)[:, None], steps)
            blocked = np.array([any(c.covers(need.satellite, t)
                                    for c in self.init.committed)
                                for t in grid.steps], dtype=bool)
            free = ~(covers & blocked).any(axis=1)
            taus = tuple(np.array(need.window)[free].tolist())
            busy = steps[covers[free].any(axis=0)].tolist()
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
        arcs = net.arcs
        kept = [a.model is None and a.vehicle in self.launchers for a in arcs]
        flights = [n for n, a in enumerate(arcs) if a.model is not None]
        for n in sorted(flights, key=lambda n: -arcs[n].t):
            a = arcs[n]
            if (a.vehicle, a.i, a.t) not in (
                    release if a.i in customer else has_state):
                continue
            if a.j in customer and not any(
                    e is None or (a.vehicle, a.j, e) in leaving
                    for e in ends.get((a.vehicle, a.j, a.arrival), ())):
                continue
            leaving.add((a.vehicle, a.i, a.t))
            kept[n] = True
        self.arcs = [a for a, k in zip(arcs, kept) if k]
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
        m, scn, grid = self.model, self.scenario, self.grid
        kpos = self._kpos = {k: n for n, k in enumerate(scn.commodities)}
        tpos = {t: n for n, t in enumerate(grid.steps)}
        K = len(kpos)
        kind_of = {k: INTEGER if c.is_integer else CONTINUOUS
                   for k, c in scn.commodities.items()}

        # per vehicle, the active ones first: its position, and each
        # commodity's position among those it carries (-1 where none)
        vehicles = {**self.active, **self.launchers}
        vpos = {vid: r for r, vid in enumerate(vehicles)}
        rank = np.full((len(vehicles), K), -1, dtype=np.intp)
        for r, vid in enumerate(vehicles):
            ks = self.carriable[vid]
            rank[r, [kpos[k] for k in ks]] = range(len(ks))

        # Y then X per state, in one block, the X columns in carriable
        # order: a vehicle's states are one run, with the same columns for
        # each state
        runs: dict[str, list[tuple[str, int, int]]] = {}
        for s in self.states:
            runs.setdefault(s[0], []).append(s)
        keys, lbs, ubs, kinds = [], [], [], []
        for vid, run in runs.items():
            v, ks = self.active[vid], self.carriable[vid]
            tags = (None, *ks)
            keys += [("Y", vid, i, t) if k is None else ("X", vid, i, t, k)
                     for _, i, t in run for k in tags]
            # a depot stays at its slot throughout
            lbs += ([1.0 if v.vehicle_class == "depot" else 0.0]
                    + [0.0] * len(ks)) * len(run)
            ubs += ([1.0] + [v.capacities[k] for k in ks]) * len(run)
            kinds += ([BINARY] + [kind_of[k] for k in ks]) * len(run)
        y0 = m.add_vars(keys, lbs, ubs, kinds)
        S = len(self.states)
        self._state = {s: n for n, s in enumerate(self.states)}
        # per state: its vehicle's position, its node and step, and the
        # state of the same vehicle and node on the step before (-1 where
        # there is none)
        self._state_v, self._state_i, self._state_t, self._prev = np.array(
            [(vpos[vid], i, tpos[t], self._state.get(
                (vid, i, grid.steps[tpos[t] - 1]), -1) if tpos[t] else -1)
             for vid, i, t in self.states], dtype=np.intp).reshape(S, 4).T
        # ``_ycol`` and ``_xcol`` (state, commodity; -1 where none) hold
        # the indices of the columns
        at = rank[self._state_v]
        width = 1 + (at >= 0).sum(axis=1)
        self._ycol = y0 + np.cumsum(width) - width
        self._xcol = np.where(at >= 0, self._ycol[:, None] + 1 + at, -1)
        self._y = dict(zip(self.states, self._ycol.tolist()))
        # the station keeping burnt over the holdover into a state, where
        # its vehicle carries that commodity: state, commodity, the Y
        # column of the state before, kg per unit of it
        rate = np.array([v.station_keeping_rate for v in self.active.values()],
                        dtype=float)
        kept = np.array([kpos[v.station_keeping_commodity]
                         if v.station_keeping_commodity in self.carriable[vid]
                         else -1 for vid, v in self.active.items()],
                        dtype=np.intp)
        days = np.diff(np.array(grid.steps, dtype=float))
        on = ((self._prev >= 0) & (rate[self._state_v] > 0)
              & (kept[self._state_v] >= 0)).nonzero()[0]
        dt = days[self._state_t[self._prev[on]]]
        on, dt = on[dt > 0], dt[dt > 0]
        self._kept = (on, kept[self._state_v[on]], self._ycol[self._prev[on]],
                      rate[self._state_v[on]] * dt)
        # the states of ``customer_states``, and each state's position in
        # it (``NO_ROW`` at no customer node)
        self._customer = np.array([self._state[s]
                                   for s in self.customer_states],
                                  dtype=np.intp)
        self._at = np.full(S, NO_ROW, dtype=np.intp)
        self._at[self._customer] = np.arange(len(self._customer))

        # W, U, Z and a curve's burn L per arc, in one block, and the same
        # as arrays: W, Z (-1 on a launch) and U per arc and commodity (-1
        # where none); each flight's burn, its column and coefficient, and
        # its propellant where it carries that (-1 where not); and each
        # arc's ends: states (-1 where none), nodes, steps
        keys, lbs, ubs, kinds = [], [], [], []
        col = m.n_vars
        self._arc_cols: list[_ArcColumns] = []
        self._dep: dict[tuple[str, int, int], list[_ArcColumns]] = {}
        # per vehicle: its carriable commodities, their U bounds and kinds
        carried = {vid: (ks, [v.capacities[k] for k in ks],
                         [kind_of[k] for k in ks])
                   for vid, v in vehicles.items()
                   for ks in (self.carriable[vid],)}
        propellant = {}                     # (vehicle, mode) -> commodity
        chords_of: dict[int, list[tuple[float, float]]] = {}  # id(model)
        flat = []   # per arc: W, Z, burn column, coefficient, propellant
        ends = []   # per arc: its vehicle, and its ends' states, nodes, steps
        for a in self.arcs:
            key = a.key
            ks, u_ub, u_kind = carried[a.vehicle]
            w, z, chords, prop, burn = col, None, [], None, {}
            u = dict(zip(ks, range(w + 1, w + 1 + len(ks))))
            keys.append(("W", *key))
            keys += [("U", *key, k) for k in ks]
            lbs += [0.0] * (1 + len(ks))
            ubs.append(1.0)
            ubs += u_ub
            kinds.append(BINARY)
            kinds += u_kind
            col += 1 + len(ks)
            if a.is_launch:
                flat += (w, -1, -1, 0.0, -1)
            else:
                prop = propellant.get((a.vehicle, a.r))
                if prop is None:
                    prop = propellant[a.vehicle, a.r] = \
                        self._mode_of(a).propellant_commodity
                z = col
                bound = a.mass_upper_bound
                keys.append(("Z", *key))
                ubs.append(bound if math.isfinite(bound) else 1e9)
                col += 1
                model = a.model
                if model.burn_fraction is None:
                    chords = chords_of.get(id(model))
                    if chords is None:
                        pts = [(0.0, 0.0), *model.breakpoints]
                        chords = chords_of[id(model)] = []
                        for (b0, f0), (b1, f1) in zip(pts, pts[1:]):
                            slope = (f1 - f0) / (b1 - b0)
                            chords.append((slope, f0 - slope * b0))
                    burn = {col: 1.0}
                    keys.append(("L", *key))
                    ubs.append(model.breakpoints[-1][1])
                    lbs += [0.0, 0.0]
                    kinds += [CONTINUOUS, CONTINUOUS]
                    flat += (w, z, col, 1.0, kpos[prop] if prop in u else -1)
                    col += 1
                else:
                    burn = {z: model.burn_fraction}
                    lbs.append(0.0)
                    kinds.append(CONTINUOUS)
                    flat += (w, z, z, model.burn_fraction,
                             kpos[prop] if prop in u else -1)
            ends += (vpos[a.vehicle], self._state.get((a.vehicle, a.i, a.t), -1),
                     a.i, tpos[a.t],
                     self._state.get((a.vehicle, a.j, a.arrival), -1), a.j,
                     tpos[a.arrival])
            cols = _ArcColumns(w=w, u=u, z=z, chords=chords, propellant=prop,
                               burn=burn)
            self._arc_cols.append(cols)
            self._dep.setdefault((a.vehicle, a.i, a.t), []).append(cols)
        m.add_vars(keys, lbs, ubs, kinds)
        A = len(self.arcs)
        flat = np.array(flat, dtype=float).reshape(A, 5).T
        self._wcol, self._zcol = flat[:2].astype(np.intp)
        self._burn = (flat[2].astype(np.intp), flat[3],
                      flat[4].astype(np.intp))
        ends = np.array(ends, dtype=np.intp).reshape(A, 7).T
        arc_v, self._ends = ends[0], ends[1:]
        # a U column follows W in its vehicle's carriable order
        rank = rank[arc_v]
        self._ucol = np.where(rank >= 0, self._wcol[:, None] + 1 + rank, -1)

        # H per start step; then B per step on which its service is under
        # way, and the H columns of the starts that cover it (its dispatch
        # row)
        self._h: dict[tuple[str, str, int], int] = {}
        self._starts_at: dict[tuple, list] = {}     # (v, i, t): (need, H)
        steps = np.array(grid.steps)
        place = {s: r for r, s in enumerate(self.customer_states)}
        tools = {k: r for r, k in enumerate(scn.tool_ids())}
        # per B: its column, its position in ``customer_states``, its node
        # and step, the tool its need requires (None where none)
        self._under_way: list[tuple[int, int, int, int, Optional[int]]] = []
        cover_b, cover_h = [], []
        keys = []
        h0 = m.n_vars
        for need, vid, taus in self.starts:
            i = self.node_by_name[need.satellite].index
            keys += [("H", vid, need.id, tau) for tau in taus]
            for r, tau in enumerate(taus):
                h = self._h[vid, need.id, tau] = h0 + r
                self._starts_at.setdefault((vid, i, tau), []).append((need, h))
            covers = need.covers(np.array(taus)[:, None], steps).T.tolist()
            on = [(t, c) for t, c in zip(grid.steps, covers) if any(c)]
            keys += [("B", vid, need.id, t) for t, _ in on]
            b0 = h0 + len(taus)
            for r, (t, c) in enumerate(on):
                hs = [h0 + q for q, covered in enumerate(c) if covered]
                cover_b += [len(self._under_way)] * len(hs)
                cover_h += hs
                self._under_way.append((b0 + r, place[vid, i, t], i, t,
                                        tools.get(need.required_tool)))
            h0 = b0 + len(on)
        m.add_vars(keys, [0.0] * len(keys), [1.0] * len(keys),
                   [BINARY] * len(keys))
        self._cover = (np.array(cover_b, dtype=np.intp),
                       np.array(cover_h, dtype=np.intp))

        rows = _RowBlock()
        self._add_balances(rows)
        self._add_concurrency(rows)
        self._add_transformation(rows)
        self._add_service_management(rows)
        self._add_flight_rules(rows)
        rows.commit(m)
        self._add_objective()

    def _x_of(self, s: tuple[str, int, int]) -> dict[str, int]:
        """The X columns of state ``s`` by commodity, in carriable order."""
        cols = self._xcol[self._state[s]].tolist()
        return {k: cols[self._kpos[k]] for k in self.carriable[s[0]]}

    # -- constraint families -----------------------------------------------

    def _init_stock(self, vid: str, i: int, k: str, t: int) -> float:
        return sum((load.get(k, 0.0)
                    for load in self.arriving.get((vid, i, t), ())), 0.0)

    def _init_presence(self, vid: str, i: int, t: int) -> float:
        return float(len(self.arriving.get((vid, i, t), ())))

    def _flows(self, block: _RowBlock, family: str, rhs: np.ndarray,
               state_row: np.ndarray, dep_row: np.ndarray,
               arr_row: np.ndarray, *entries):
        """Add the mass balances of ``family`` whose row is ``state_row``
        per (state, commodity), and ``dep_row`` and ``arr_row`` per (arc,
        commodity) at its origin and destination (``NO_ROW`` where none),
        plus ``entries``: holdover out + transport out - all inflows, the
        inflows written in outflows (a holdover burns station keeping, an
        arc its propellant)."""
        prev, x, u = self._prev, self._xcol, self._ucol
        kept_s, kept_k, kept_col, kept_val = self._kept
        burn_col, burn_val, burn_k = self._burn
        burns = (burn_k >= 0).nonzero()[0]
        block.add(family, "==", rhs,
                  (state_row.ravel(), x.ravel(), 1.0),
                  (np.where(prev[:, None] >= 0, state_row, NO_ROW).ravel(),
                   x[prev].ravel(), -1.0),
                  (state_row[kept_s, kept_k], kept_col, kept_val),
                  (dep_row.ravel(), u.ravel(), 1.0),
                  (arr_row.ravel(), u.ravel(), -1.0),
                  (arr_row[burns, burn_k[burns]], burn_col[burns],
                   burn_val[burns]), *entries)

    def _add_balances(self, block: _RowBlock):
        grid, kpos = self.grid, self._kpos
        S, K, T = len(self.states), len(kpos), len(grid.steps)
        dep_state, dep_i, dep_t, arr_state, arr_i, arr_t = self._ends
        # commodity balance at customer nodes, per servicer, node by node:
        # a row per X column of each customer state, in column order
        customer = np.array([self._state[s] for s in sorted(
            self.customer_states, key=lambda s: s[1])], dtype=np.intp)
        s, k = (self._xcol[customer] >= 0).nonzero()
        order = np.lexsort((self._xcol[customer][s, k], s))
        s, k = customer[s[order]], k[order]
        # (state, commodity); the extra last row serves the arc ends at no
        # state (-1)
        rows = np.full((S + 1, K), NO_ROW, dtype=np.intp)
        rows[s, k] = np.arange(len(s))
        rhs = np.zeros(len(s))
        for vid, i, t in self.arriving:
            n = self._state.get((vid, i, t), -1)
            for c in self.carriable[vid] if n >= 0 else ():
                if rows[n, kpos[c]] >= 0:
                    rhs[rows[n, kpos[c]]] = self._init_stock(vid, i, c, t)
        # nonpositive demand: delivery leaves the servicer
        delivery = [(rows[self._state[s], kpos[k]], h, d)
                    for s, starts in self._starts_at.items()
                    for need, h in starts
                    for k, d in need.commodity_demand.items()
                    if d and k in kpos]
        row, col, val = zip(*delivery) if delivery else ((), (), ())
        self._flows(block, "bal_cust", rhs, rows[:S], rows[dep_state],
                    rows[arr_state], (np.array(row, dtype=np.intp),
                                      np.array(col, dtype=np.intp),
                                      np.array(val, dtype=float)))

        # commodity balance at parking nodes, pooled over vehicles: node,
        # step, commodity
        place = np.full(len(self.nodes.nodes), -1, dtype=np.intp)
        parking = [n.index for n in self.nodes.parking]
        place[parking] = np.arange(len(parking))

        def row_of(i, t):
            p = place[i][:, None]
            return np.where(p >= 0, (p * T + t[:, None]) * K + np.arange(K),
                            NO_ROW)
        rhs = np.zeros(len(parking) * T * K)
        for vid in list(self.active) + list(self.launchers):
            for v, i, t in self.arriving:
                if v == vid and place[i] >= 0 and grid.contains(t):
                    for k, n in kpos.items():
                        rhs[(place[i] * T + grid.index(t)) * K + n] += \
                            self._init_stock(vid, i, k, t)
        self._flows(block, "bal_park", rhs,
                    row_of(self._state_i, self._state_t),
                    row_of(dep_i, dep_t), row_of(arr_i, arr_t))

        # Earth commodity supply caps: node, step, commodity, where a launch
        # carries it
        earth = {n.index: r for r, n in enumerate(self.nodes.earth)}
        launches = [(a, c) for a, c in zip(self.arcs, self._arc_cols)
                    if a.i in earth]
        cargo = [((earth[a.i], a.t, kpos[k]), u) for a, c in launches
                 for k, u in c.u.items()]
        row, n = _ranks([key for key, _ in cargo])
        block.add("supply", "<=", [EARTH_SUPPLY] * n,
                  (row, np.array([u for _, u in cargo], dtype=np.intp), 1.0))

        # vehicle balances at orbital nodes, a row per state
        states = np.arange(S)
        rhs = np.zeros(S)
        for s in self.arriving:
            if s in self._state:
                rhs[self._state[s]] = self._init_presence(*s)
        block.add("bal_veh", "==", rhs, (states, self._ycol, 1.0),
                  (np.where(self._prev >= 0, states, NO_ROW),
                   self._ycol[self._prev], -1.0),
                  (np.where(dep_state >= 0, dep_state, NO_ROW), self._wcol,
                   1.0),
                  (np.where(arr_state >= 0, arr_state, NO_ROW), self._wcol,
                   -1.0))

        # Earth vehicle supply, one launcher per launch step: node, step,
        # launcher, where it launches
        launchers = {vid: r for r, vid in enumerate(self.launchers)}
        launches = [((earth[a.i], a.t, launchers[a.vehicle]), c.w)
                    for a, c in launches if a.vehicle in launchers]
        row, n = _ranks([key for key, _ in launches])
        block.add("veh_supply", "<=", [1.0] * n,
                  (row, np.array([w for _, w in launches], dtype=np.intp),
                   1.0))

    def _add_concurrency(self, block: _RowBlock):
        scn, kpos = self.scenario, self._kpos
        vehicles = [*self.active.values(), *self.launchers.values()]
        caps = np.array([[v.capacities.get(k, 0.0) for k in kpos]
                         for v in vehicles], dtype=float).reshape(-1, len(kpos))
        # holdover capacity, a row per X column in column order
        s, k = (self._xcol >= 0).nonzero()
        order = np.argsort(self._xcol[s, k])
        s, k = s[order], k[order]
        rows = np.arange(len(s))
        block.add("cap_hold", "<=", [0.0] * len(s),
                  (rows, self._xcol[s, k], 1.0),
                  (rows, self._ycol[s], -caps[self._state_v[s], k]))
        # transport capacity, per arc: a row per carried commodity (its U
        # columns follow W in carriable order), then the payload row
        vpos = {v.id: r for r, v in enumerate(vehicles)}
        by = np.array([vpos[a.vehicle] for a in self.arcs], dtype=np.intp)
        payload = np.array([vehicles[r].payload_capacity for r in by],
                           dtype=float).reshape(-1)     # nan where none
        paid = ~np.isnan(payload)
        carried = (self._ucol >= 0).sum(axis=1)
        first = np.cumsum(carried + paid) - carried - paid
        a, k = (self._ucol >= 0).nonzero()
        u = self._ucol[a, k]
        row = first[a] + u - self._wcol[a] - 1
        top = first + carried
        unit = np.array([scn.unit_mass(k) for k in kpos], dtype=float)
        family = np.full(len(carried) and top[-1] + paid[-1], "cap_arc",
                         dtype=object)
        family[top[paid]] = "cap_payload"
        block.add(family.tolist(), "<=", [0.0] * len(family),
                  (row, u, 1.0), (row, self._wcol[a], -caps[by[a], k]),
                  (np.where(paid[a], top[a], NO_ROW), u, unit[k]),
                  (np.where(paid, top, NO_ROW), self._wcol, -payload))

    def _add_transformation(self, block: _RowBlock):
        kpos = self._kpos
        # per flight: total wet mass definition, flight-feasibility bound,
        # propellant on board to cover the burn, and the burn on or above
        # each chord of a curve
        flights = (self._zcol >= 0).nonzero()[0]
        arcs = [self.arcs[n] for n in flights]
        bound = np.array([a.mass_upper_bound for a in arcs], dtype=float)
        finite = np.isfinite(bound)
        chords = [self._arc_cols[n].chords for n in flights]
        count = np.array([len(c) for c in chords], dtype=np.intp)
        per = 2 + finite + count
        first = np.cumsum(per) - per
        wet, mub = first, np.where(finite, first + 1, NO_ROW)
        prop = first + 1 + finite
        family, sense = [], []
        for f, c in zip(finite.tolist(), count.tolist()):
            family += ["wet_mass", *["mass_ub"] * f, "prop_avail",
                       *["sos2_seg"] * c]
            sense += ["==", *["<="] * f, ">=", *[">="] * c]
        seg = (prop + 1).repeat(count) + np.arange(count.sum()) \
            - (np.cumsum(count) - count).repeat(count)
        slope = np.array([s for c in chords for s, _ in c], dtype=float)
        rhs = np.zeros(len(family))
        rhs[seg] = [i for c in chords for _, i in c]
        z, w, u = self._zcol[flights], self._wcol[flights], self._ucol[flights]
        burn_col, burn_val, burn_k = (b[flights] for b in self._burn)
        dry = np.array([self.active[a.vehicle].dry_mass for a in arcs],
                       dtype=float)
        unit = np.array([self.scenario.unit_mass(k) for k in kpos],
                        dtype=float)
        on = np.arange(len(flights)).repeat(count)
        block.add(family, sense, rhs,
                  (wet, z, 1.0), (wet, w, -dry),
                  (wet.repeat(u.shape[1]), u.ravel(),
                   np.tile(-unit, len(flights))),
                  (mub, z, 1.0), (mub, w, -np.where(finite, bound, 0.0)),
                  (prop, np.where(burn_k >= 0, u[np.arange(len(flights)),
                                                 burn_k], -1), 1.0),
                  (prop, burn_col, -burn_val),
                  (seg, burn_col[on], burn_val[on]), (seg, z[on], -slope))
        # depot station keeping stock must cover the holdover burn
        rate = np.array([v.station_keeping_rate for v in self.active.values()],
                        dtype=float)[self._state_v]
        k = np.array([kpos.get(v.station_keeping_commodity, -1)
                      for v in self.active.values()],
                     dtype=np.intp)[self._state_v]
        steps = np.array(self.grid.steps, dtype=float)
        dt = np.append(steps[1:] - steps[:-1], 0.0)[self._state_t]
        x = np.where(k >= 0, self._xcol[np.arange(len(k)), k], -1)
        on = ((rate > 0) & (x >= 0) & (dt > 0)).nonzero()[0]
        rows = np.arange(len(on))
        block.add("sk_avail", ">=", [0.0] * len(on), (rows, x[on], 1.0),
                  (rows, self._ycol[on], -rate[on] * dt[on]))

    def _add_service_management(self, block: _RowBlock):
        under_way = self._under_way
        b = np.array([u[0] for u in under_way], dtype=np.intp)
        # each need assigned at most once
        once = {need.id: {} for need in self.needs}
        for (_, need_id, _), h in self._h.items():
            once[need_id][h] = 1.0
        block.add_dicts([("assign_once", row, "<=", 1.0)
                         for row in once.values()])
        # a vehicle only starts a service it was dispatched for
        cover_b, cover_h = self._cover
        block.add("dispatch", "==", [0.0] * len(b),
                  (np.arange(len(b)), b, 1.0), (cover_b, cover_h, -1.0))
        # one service at a time per customer node; no admitted start runs
        # beside a committed service, so the rows count the window's own:
        # node, step, where a service is under way
        node = {i: r for r, i in enumerate(self.needs_at)}
        row, n = _ranks([(node[i], t) for _, _, i, t, _ in under_way])
        block.add("one_service", "<=", [1.0] * n, (row, b, 1.0))
        # presence at customer nodes equals dispatch
        at = np.array([u[1] for u in under_way], dtype=np.intp)
        block.add("presence", "==",
                  [float(s in self.pinned) for s in self.customer_states],
                  (np.arange(len(self._customer)), self._ycol[self._customer],
                   1.0), (at, b, -1.0))
        # the adequate tool must be on board while a service needs it:
        # customer state and tool, where a service under way there needs
        # it; the tool's X column, where the state has one
        needs = [(r, u[1], u[4]) for r, u in enumerate(under_way)
                 if u[4] is not None]
        row, n = _ranks([(s, k) for _, s, k in needs])
        tools = [self._kpos[k] for k in self.scenario.tool_ids()]
        held = sorted({(s, k) for _, s, k in needs})
        block.add("tool", ">=", [0.0] * n,
                  (row, b[[r for r, _, _ in needs]], -1.0),
                  (np.arange(n), np.array(
                      [self._xcol[self._customer[s], tools[k]]
                       for s, k in held], dtype=np.intp), 1.0))

    def _add_flight_rules(self, block: _RowBlock):
        # arrivals at a customer node exactly when a service starts, on
        # every step: a servicer parked there unpinned flies in first
        at, arr_state = self._at, self._ends[3]
        starts = [(self._state[s], h) for s, hs in self._starts_at.items()
                  for _, h in hs]
        state, h = zip(*starts) if starts else ((), ())
        block.add("arrival", "==", [0.0] * len(self.customer_states),
                  (np.where(arr_state >= 0, at[arr_state], NO_ROW),
                   self._wcol, 1.0),
                  (at[np.array(state, dtype=np.intp)],
                   np.array(h, dtype=np.intp), -1.0))

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
        days = dict(zip(grid.steps, [b - a for a, b in zip(grid.steps,
                                                             grid.steps[1:])]))
        for (vid, _, t), y in zip(self.states, self._ycol.tolist()):
            v, dt = self.active[vid], days.get(t, 0)
            if v.operating_cost_per_day > 0 and dt > 0:
                self.obj_terms[ops_bucket(v)][y] = v.operating_cost_per_day * dt
        for a, cols in zip(self.arcs, self._arc_cols):
            v = self.active.get(a.vehicle)
            if not a.is_launch and v.is_servicer and v.operating_cost_per_day > 0:
                self.obj_terms[ops_bucket(v)][cols.w] = \
                    v.operating_cost_per_day * a.q

        objective = m.objective
        for j, coeff in self.obj_terms["revenues"].items():
            objective[j] = objective.get(j, 0.0) + coeff
        for bucket in COST_BUCKETS:
            for j, coeff in self.obj_terms[bucket].items():
                objective[j] = objective.get(j, 0.0) - coeff

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
    model rows, so a bug in row assembly cannot hide from it. ``values`` is
    read once, by ``vn`` key, into dense arrays over the audit's own
    enumeration (see the module docstring), and each family is checked as
    array expressions over them. The violations come back family by family,
    each in the order of the loops that its comment names.
    """
    scn, grid, nodes = problem.scenario, problem.grid, problem.net.nodes
    steps, arcs, needs = grid.steps, problem.arcs, problem.needs
    active = list(problem.active)
    vids = active + list(problem.launchers)
    comms = list(scn.commodities)
    nA, V, N, T, K, A, M = (len(active), len(vids), len(nodes.nodes),
                            len(steps), len(comms), len(arcs), len(needs))
    tpos = {t: n for n, t in enumerate(steps)}
    kpos = {k: n for n, k in enumerate(comms)}
    vpos = {vid: n for n, vid in enumerate(vids)}
    keys = [a.key for a in arcs]
    apos = {key: n for n, key in enumerate(keys)}
    need_ids = {nid: n for n, nid in enumerate(
        dict.fromkeys(need.id for need in needs))}
    G = len(need_ids)

    # -- the values, scattered by key into one flat array ------------------
    # Y (vehicle, node, step) and X (vehicle, node, step, commodity) of the
    # active vehicles; W, Z and L (arc) and U (arc, commodity); H and B
    # (need id, active vehicle, step). A key outside this enumeration is
    # never read, and an absent one reads 0.
    sizes = dict(Y=nA * N * T, X=nA * N * T * K, W=A, Z=A, L=A, U=A * K,
                 H=G * nA * T, B=G * nA * T)
    start = dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))
    y_v = {vid: start["Y"] + n * N * T for n, vid in enumerate(active)}
    x_v = {vid: start["X"] + n * N * T * K for n, vid in enumerate(active)}
    y_i, x_i = {i: i * T for i in range(N)}, {i: i * T * K for i in range(N)}
    x_t = {t: n * K for n, t in enumerate(steps)}
    h_n = {nid: n * nA * T for nid, n in need_ids.items()}
    h_v = {vid: n * T for n, vid in enumerate(active)}
    pos, val = [], []
    for key, value in values.items():
        try:
            tag = key[0]
            if tag == "X":
                _, vid, i, t, k = key
                p = x_v[vid] + x_i[i] + x_t[t] + kpos[k]
            elif tag == "Y":
                _, vid, i, t = key
                p = y_v[vid] + y_i[i] + tpos[t]
            elif tag == "U":
                p = start["U"] + apos[key[1:-1]] * K + kpos[key[-1]]
            elif tag == "W" or tag == "Z" or tag == "L":
                p = start[tag] + apos[key[1:]]
            elif tag == "H" or tag == "B":
                _, vid, nid, t = key
                p = start[tag] + h_n[nid] + h_v[vid] + tpos[t]
            else:
                continue
        except (KeyError, ValueError, TypeError, IndexError):
            continue
        pos.append(p)
        val.append(value)
    pos = np.array(pos, dtype=np.intp)
    flat = np.zeros(start["B"] + sizes["B"])
    flat[pos] = np.array(val, dtype=float)

    def block(tag, *shape):
        return flat[start[tag]:start[tag] + sizes[tag]].reshape(shape)
    y, x, h, b = (block("Y", nA, N, T), block("X", nA, N, T, K),
                  block("H", G, nA, T), block("B", G, nA, T))
    w, z, burn, u = block("W", A), block("Z", A), block("L", A), \
        block("U", A, K)
    # the X columns that the model holds: those of ``values`` where it has
    # the model's keys, else read from the model
    exists = np.zeros(sizes["X"], dtype=bool)
    if values.keys() == problem.model.keys:
        x_pos = pos[(pos >= start["X"]) & (pos < start["X"] + sizes["X"])]
    else:
        x_pos = [x_v[k[1]] + x_i[k[2]] + x_t[k[3]] + kpos[k[4]]
                 for k in problem.model.keys if k[0] == "X"]
    exists[np.asarray(x_pos, dtype=np.intp) - start["X"]] = True
    exists = exists.reshape(nA, N, T, K)

    # -- the inputs, as arrays ---------------------------------------------
    designs = [scn.vehicles[vid] for vid in vids]
    carries = np.zeros((V, K), dtype=bool)
    k_rank = np.zeros((V, K), dtype=np.intp)   # position in ``carriable``
    caps = np.zeros((V, K))
    width = max((len(problem.carriable[vid]) for vid in vids), default=0)
    k_order = np.zeros((V, width), dtype=np.intp)   # ``carriable``, padded
    for n, vid in enumerate(vids):
        for r, k in enumerate(problem.carriable[vid]):
            carries[n, kpos[k]], k_rank[n, kpos[k]] = True, r
            caps[n, kpos[k]] = designs[n].capacities[k]
            k_order[n, r] = kpos[k]
    listed = np.arange(width) < carries.sum(axis=1)[:, None]
    unit_mass = np.array([scn.unit_mass(k) for k in comms], dtype=float)
    i_rank = np.zeros((nA, N), dtype=np.intp)  # position in ``presence``
    present = np.zeros((nA, N), dtype=bool)
    for n, vid in enumerate(active):
        for r, i in enumerate(problem.presence[vid]):
            present[n, i], i_rank[n, i] = True, r
    servicer = np.array([v.is_servicer for v in designs[:nA]], dtype=bool)
    # the step before each step, the first step pointing at itself, and
    # the holdover from it
    prev = np.array([tpos[t - grid.delta_backward(t)] for t in steps],
                    dtype=np.intp)
    has_prev = prev != np.arange(T)
    held_days = np.array([grid.delta_forward(t) for t in steps],
                         dtype=float)[prev]
    init_stock = np.zeros((V, N, T, K))
    init_presence = np.zeros((nA, N, T))
    for (vid, i, t), loads in problem.arriving.items():
        if vid in vpos and t in tpos:
            for k in {k for load in loads for k in load} & kpos.keys():
                init_stock[vpos[vid], i, tpos[t], kpos[k]] = \
                    problem._init_stock(vid, i, k, t)
            if vpos[vid] < nA:
                init_presence[vpos[vid], i, tpos[t]] = \
                    problem._init_presence(vid, i, t)

    a_v = np.array([vpos[a.vehicle] for a in arcs], dtype=np.intp)
    a_i = np.array([a.i for a in arcs], dtype=np.intp)
    a_j = np.array([a.j for a in arcs], dtype=np.intp)
    a_t = np.array([tpos[a.t] for a in arcs], dtype=np.intp)
    a_arr = np.array([tpos[a.arrival] for a in arcs], dtype=np.intp)
    launch = np.array([a.is_launch for a in arcs], dtype=bool)
    line = np.array([not a.is_launch and a.model.burn_fraction is not None
                     for a in arcs], dtype=bool)
    fraction = np.array([a.model.burn_fraction if line[n] else 0.0
                         for n, a in enumerate(arcs)], dtype=float)
    propellant = np.array(
        [-1 if a.is_launch else kpos[problem._mode_of(a).propellant_commodity]
         for a in arcs], dtype=np.intp)
    flights = np.flatnonzero(a_v < nA)      # the arcs of active vehicles
    arc_carries = carries[a_v]

    # each arc's burn, and its inflow per commodity
    consumption = np.where(line, fraction * z, burn)
    consumption[launch] = 0.0
    inflow = u.copy()
    burns = np.flatnonzero(propellant >= 0)
    inflow[burns, propellant[burns]] = \
        u[burns, propellant[burns]] - consumption[burns]

    # the commodity balance per (vehicle, node, step, commodity): holdover
    # out, less holdover in and the station keeping it burns where the model
    # holds the stock, plus transport out, less every inflow, less what
    # arrives from outside the horizon
    own = x - np.where(has_prev[:, None], x[:, :, prev], 0.0)
    for n, v in enumerate(designs[:nA]):
        k = kpos.get(v.station_keeping_commodity)
        if v.station_keeping_rate > 0 and k is not None:
            kept = (v.station_keeping_rate * held_days) * y[n][:, prev]
            own[n, :, :, k] = np.where(has_prev, own[n, :, :, k] + kept,
                                       own[n, :, :, k])
    balance = np.zeros((V, N, T, K))
    balance[:nA] = np.where(exists, np.where(has_prev[:, None], own, x), 0.0)
    np.add.at(balance, (a_v, a_i, a_t), np.where(arc_carries, u, 0.0))
    np.subtract.at(balance, (a_v, a_j, a_arr),
                   np.where(arc_carries, inflow, 0.0))
    balance -= init_stock

    # each arc's payload mass, summed in its vehicle's carriable order
    carried = k_order[a_v]
    payload_mass = np.where(
        listed[a_v], unit_mass[carried] * u[np.arange(A)[:, None], carried],
        0.0).cumsum(axis=1)[:, -1] if width else np.zeros(A)

    # the needs: capable vehicles, window steps, demand, and each one's
    # starts and services under way on the columns of its capable vehicles
    need_row = np.array([need_ids[need.id] for need in needs], dtype=np.intp)
    need_node = np.array([problem.node_by_name[need.satellite].index
                          for need in needs], dtype=np.intp)
    capable = np.zeros((M, nA), dtype=bool)
    window = np.zeros((M, T), dtype=bool)
    covers = np.zeros((M, T, T))        # need, start step, step
    step = np.array(steps)
    for n, need in enumerate(needs):
        capable[n, [vpos[vid] for vid in problem.capable[need.id]]] = True
        window[n, [tpos[tau] for tau in need.window if tau in tpos]] = True
        covers[n] = window[n][:, None] & need.covers(step[:, None], step)
    demand = np.array([[need.commodity_demand.get(k, 0.0) for k in comms]
                       for need in needs], dtype=float).reshape(M, K)
    starts = np.where(capable[:, :, None] & window[:, None, :], h[need_row],
                      0.0)
    under_way = np.where(capable[:, :, None], b[need_row], 0.0)

    out: list[Violation] = []
    found: list[tuple[tuple, Violation]] = []

    def flag(family, residual, mask, order, parts):
        """Record ``residual[c]`` for each cell ``c`` where ``mask`` holds,
        ``order(c)`` placing it among the loops of its block."""
        for c in zip(*np.nonzero(mask)):
            c = tuple(map(int, c))
            found.append((order(c), Violation(
                family, "|".join(map(str, parts(c))), float(residual[c]))))

    def emit():
        found.sort(key=lambda f: f[0])
        out.extend(v for _, v in found)
        found.clear()

    customer = [n.index for n in nodes.customer]
    c_rank = {i: r for r, i in enumerate(customer)}
    at_customer = servicer[:, None, None] & np.isin(
        np.arange(N), customer)[None, :, None]

    # customer-node balances per servicer, with each start's demand:
    # customer node, servicer, step, carried commodity
    delivered = np.zeros((N, nA, T, K))
    np.subtract.at(delivered, need_node,
                   starts[..., None] * demand[:, None, None, :])
    res = balance[:nA] - delivered.transpose(1, 0, 2, 3)
    flag("mass_balance_customer", res,
         (np.abs(res) > tol) & at_customer[..., None]
         & carries[:nA, None, None, :],
         lambda c: (c_rank[c[1]], c[0], c[2], k_rank[c[0], c[3]]),
         lambda c: (active[c[0]], c[1], steps[c[2]], comms[c[3]]))
    emit()

    # parking-node pooled balances: node, step, commodity
    parking = [n.index for n in nodes.parking]
    pooled = np.zeros((len(parking), T, K))
    for n in range(V):
        pooled = pooled + np.where(carries[n], balance[n][parking], 0.0)
    flag("mass_balance_parking", pooled, np.abs(pooled) > tol,
         lambda c: c, lambda c: (parking[c[0]], steps[c[1]], comms[c[2]]))
    emit()

    # vehicle balances: vehicle, node of its presence, step
    moves = y - np.where(has_prev, y[:, :, prev], 0.0)
    np.add.at(moves, (a_v[flights], a_i[flights], a_t[flights]), w[flights])
    np.subtract.at(moves, (a_v[flights], a_j[flights], a_arr[flights]),
                   w[flights])
    moves -= init_presence
    flag("vehicle_balance", moves,
         (np.abs(moves) > tol) & present[:, :, None],
         lambda c: (c[0], i_rank[c[0], c[1]], c[2]),
         lambda c: (active[c[0]], c[1], steps[c[2]]))
    emit()

    # holdover capacities: vehicle, node of its presence, step, commodity
    excess = x - caps[:nA, None, None, :] * y[..., None]
    flag("capacity_holdover", excess,
         (excess > tol) & present[:, :, None, None]
         & carries[:nA, None, None, :],
         lambda c: (c[0], i_rank[c[0], c[1]], c[2], k_rank[c[0], c[3]]),
         lambda c: (active[c[0]], c[1], steps[c[2]], comms[c[3]]))
    emit()

    # per arc: each carried commodity's capacity and inflow, then the
    # payload
    excess = u - caps[a_v] * w[:, None]
    flag("capacity_arc", excess, (excess > tol) & arc_carries,
         lambda c: (c[0], k_rank[a_v[c[0]], c[1]], 0),
         lambda c: (*keys[c[0]], comms[c[1]]))
    flag("negative_inflow", inflow, (inflow < -tol) & arc_carries,
         lambda c: (c[0], k_rank[a_v[c[0]], c[1]], 1),
         lambda c: (*keys[c[0]], comms[c[1]]))
    limit = np.array([designs[vpos[a.vehicle]].payload_capacity
                      for a in arcs], dtype=float)     # nan where unset
    excess = payload_mass - limit * w
    flag("capacity_payload", excess, excess > tol,
         lambda c: (c[0], K, 0), lambda c: keys[c[0]])
    emit()

    # per flight: wet mass, mass upper bound, the burn on a curve
    dry = np.array([designs[vpos[a.vehicle]].dry_mass for a in arcs],
                   dtype=float)
    res = z - (dry * w + payload_mass)
    flag("wet_mass", res, (np.abs(res) > tol) & ~launch,
         lambda c: (c[0], 0), lambda c: keys[c[0]])
    bound = np.array([a.mass_upper_bound for a in arcs], dtype=float)
    finite = np.isfinite(bound)
    excess = z - np.where(finite, bound, 0.0) * w
    flag("mass_upper_bound", excess, (excess > tol) & ~launch & finite,
         lambda c: (c[0], 1), lambda c: keys[c[0]])
    curves = np.flatnonzero(~launch & ~line)
    if len(curves):
        # the chord interpolant of the origin and the breakpoints at Z,
        # extended along the end chords past them
        pts = [[(0.0, 0.0), *arcs[n].model.breakpoints] for n in curves]
        most = max(map(len, pts))
        mass = np.full((len(curves), most), -np.inf)
        fuel = np.zeros((len(curves), most))
        for r, p in enumerate(pts):
            mass[r, :len(p)], fuel[r, :len(p)] = zip(*p)
        zc = z[curves]
        below = zc[:, None] <= mass[:, 1:]
        seg = np.where(below.any(axis=1), below.argmax(axis=1),
                       np.array([len(p) - 2 for p in pts], dtype=np.intp))
        r = np.arange(len(curves))
        b0, b1, f0, f1 = (mass[r, seg], mass[r, seg + 1], fuel[r, seg],
                          fuel[r, seg + 1])
        res = np.zeros(A)
        res[curves] = consumption[curves] - (
            f0 + (f1 - f0) * (zc - b0) / (b1 - b0))
        flag("curve_burn", res, np.abs(res) > tol,
             lambda c: (c[0], 2), lambda c: keys[c[0]])
    emit()

    # per need: assigned at most once, then each capable vehicle's
    # dispatch on each step
    total = starts.reshape(M, nA * T).cumsum(axis=1)[:, -1] if nA * T \
        else np.zeros(M)
    flag("assign_once", total - 1.0, total > 1.0 + tol,
         lambda c: (c[0], -1, -1), lambda c: (needs[c[0]].id,))
    res = b[need_row] - h[need_row] @ covers
    flag("dispatch_coupling", res,
         (np.abs(res) > tol) & capable[:, :, None], lambda c: c,
         lambda c: (active[c[1]], needs[c[0]].id, steps[c[2]]))
    emit()

    # one service at a time per customer node with needs: node, step
    busy = np.zeros((N, T))
    np.add.at(busy, need_node, under_way.sum(axis=1))
    with_needs = list(problem.needs_at)
    for i in with_needs:
        name = nodes.nodes[i].name
        busy[i] += [sum(c.covers(name, t) for c in problem.init.committed)
                    for t in steps]
    res = busy[with_needs] - 1.0
    flag("one_service_at_a_time", res, res > tol, lambda c: c,
         lambda c: (with_needs[c[0]], steps[c[1]]))
    emit()

    # per servicer, customer node and step: presence equals dispatch, each
    # tool a service needs is on board, and arrivals are service starts
    served = np.zeros((N, nA, T))
    np.add.at(served, need_node, under_way)
    served = served.transpose(1, 0, 2)
    for vid, i, t in problem.pinned:
        if vpos.get(vid, nA) < nA and t in tpos:
            served[vpos[vid], i, tpos[t]] += 1.0
    tools = scn.tool_ids()
    needed = np.zeros((len(tools), N, nA, T))
    uses = [n for n, need in enumerate(needs) if need.required_tool in tools]
    np.add.at(needed, ([tools.index(needs[n].required_tool) for n in uses],
                       need_node[uses]), under_way[uses])
    started = np.zeros((N, nA, T))
    np.add.at(started, need_node, starts)
    landing = np.zeros((nA, N, T))
    np.add.at(landing, (a_v[flights], a_j[flights], a_arr[flights]),
              np.where(launch[flights], 0.0, w[flights]))

    def where(c):
        return (active[c[0]], c[1], steps[c[2]])
    res = y - served
    flag("presence_dispatch", res, (np.abs(res) > tol) & at_customer,
         lambda c: (c[0], c_rank[c[1]], c[2], 0, 0), where)
    for m, k in enumerate(tools):
        res = needed[m].transpose(1, 0, 2) - (
            x[..., kpos[k]] if k in kpos else 0.0)
        flag("tool_on_board", res, (res > tol) & at_customer,
             lambda c, m=m: (c[0], c_rank[c[1]], c[2], 1, m),
             lambda c, k=k: (*where(c), k))
    res = landing - started.transpose(1, 0, 2)
    flag("arrival_at_start", res, (np.abs(res) > tol) & at_customer,
         lambda c: (c[0], c_rank[c[1]], c[2], 2, 0), where)
    emit()
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
            stock = {k: x[j] for k, j in problem._x_of(s).items()}
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
