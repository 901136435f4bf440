"""Rolling-horizon campaign simulation with an economic ledger.

The campaign advances in commit intervals: each step plans over a finite
look-ahead window, takes from ``milp.commit`` the decisions that the next
commit interval keeps and the world state at its end, and books the cash
that the plan priced each committed event at, plus each deployed vehicle's
operating cost over the interval. Deterministic needs become visible a full
window ahead; random needs only once they occur.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import Optional

from .demand import DemandStream, ServiceNeed, window_needs
from .milp import (COST_BUCKETS, InitialState, PlanProblem, Schedule,
                   SolveOptions, audit, commit, extract_schedule, ops_bucket)
from .network import build_nodes, build_time_grid, expand
from .scenario import CustomerSat, Scenario
from .trajectory import PluginRegistry


class CampaignError(Exception):
    pass


@dataclass
class RhConfig:
    window_days: int = 90
    commit_days: Optional[int] = None    # default: one grid period
    gap: float = 0.01
    n_breakpoints: int = 20


@dataclass
class WorldState:
    """The campaign at a commit boundary: the campaign ``day``, the needs
    served or lost so far, and ``start``, the one record of where every
    vehicle, cargo and running service is. ``start`` is the
    ``InitialState`` that the next window is built from, with its times on
    that window's clock; each step shifts it by the commit interval.
    """
    day: int = 0
    start: InitialState = field(default_factory=InitialState)
    served: set[str] = field(default_factory=set)
    lost: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class Booking:
    day: float                  # absolute campaign day
    bucket: str                 # "revenues" or a cost bucket
    amount: float


# a ledger row and CSV line: the day, each bucket to date, and the value
LEDGER_COLUMNS = ("day", "revenues") + COST_BUCKETS + ("value",)
LedgerRow = make_dataclass("LedgerRow", LEDGER_COLUMNS, frozen=True)


@dataclass
class Ledger:
    """Cumulative cash position over a campaign.

    The row value at any day equals revenues to date minus the initial
    investment minus every cost booked to date.
    """

    initial_investment: float = 0.0
    bookings: list[Booking] = field(default_factory=list)

    def book(self, day: float, bucket: str, amount: float):
        if amount != 0.0:
            self.bookings.append(Booking(day, bucket, amount))

    def total(self, bucket: str) -> float:
        return sum(b.amount for b in self.bookings if b.bucket == bucket)

    def value(self) -> float:
        return self.total("revenues") - self.initial_investment \
            - sum(self.total(b) for b in COST_BUCKETS)

    def rows(self, days: list[int]) -> list[LedgerRow]:
        """Cumulative rows at the given day boundaries.

        A booking on day d is included in the first row with day > d; the
        final row absorbs any booking at or beyond the last boundary.
        """
        out = []
        acc = dict.fromkeys(("revenues",) + COST_BUCKETS, 0.0)
        remaining = sorted(self.bookings, key=lambda b: b.day)
        pos = 0
        for n, boundary in enumerate(days):
            last = n == len(days) - 1
            while pos < len(remaining) and (remaining[pos].day < boundary
                                            or last):
                acc[remaining[pos].bucket] += remaining[pos].amount
                pos += 1
            value = acc["revenues"] - self.initial_investment \
                - sum(acc[b] for b in COST_BUCKETS)
            out.append(LedgerRow(day=boundary, value=value, **acc))
        return out

    def export_csv(self, path: str | Path, days: list[int]):
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LEDGER_COLUMNS)
            for row in self.rows(days):
                w.writerow([repr(getattr(row, c)) for c in LEDGER_COLUMNS])


@dataclass
class StepResult:
    day: int
    schedule: Schedule
    committed_events: list
    objective: Optional[float]


@dataclass
class CampaignResult:
    ledger: Ledger
    state: WorldState
    steps: list[StepResult]
    boundaries: list[int]

    @property
    def value(self) -> float:
        return self.ledger.value()

    def export_ledger(self, path: str | Path):
        self.ledger.export_csv(path, self.boundaries)

    def export_events(self, path: str | Path):
        """Write the committed events as JSON in campaign days."""
        events = []
        for s in self.steps:
            for e in s.committed_events:
                detail = {k: v + s.day if k in ("arrive_day", "end_day")
                          else v for k, v in e.detail.items()}
                events.append(dict(e.to_dict(), day=e.day + s.day,
                                   detail=detail))
        Path(path).write_text(json.dumps(events, indent=2) + "\n")


def initial_state(scenario: Scenario) -> tuple[WorldState, float]:
    """Deploy vehicles per the scenario, each loaded to capacity, and price
    the initial investment."""
    parking_by_lon = {lon: f"parking_{i}" for i, lon in
                      enumerate(scenario.network.parking_longitudes)}
    vehicle_nodes: dict[str, str] = {}
    commodities: dict[str, dict[str, float]] = {}
    investment = 0.0
    for dep in scenario.deployments:
        v = scenario.vehicles[dep.vehicle]
        vehicle_nodes[dep.vehicle] = parking_by_lon[dep.longitude]
        loads = dict(v.capacities)
        commodities[dep.vehicle] = loads
        investment += v.manufacturing_cost
        investment += sum(scenario.commodities[k].purchase_cost * qty
                          for k, qty in loads.items())
    start = InitialState(vehicle_nodes=vehicle_nodes, commodities=commodities)
    return WorldState(start=start), investment


def visible_needs(stream: DemandStream, scenario: Scenario, state: WorldState,
                  window_days: int) -> list[ServiceNeed]:
    committed_ids = {c.need_id for c in state.start.committed}
    out = []
    for need in stream.needs:
        if need.id in state.served or need.id in state.lost \
                or need.id in committed_ids:
            continue
        spec = scenario.services[need.service_type]
        if spec.occurrence.kind == "deterministic":
            if need.tau >= state.day + window_days:
                continue
        else:
            if need.tau > state.day:
                continue
        out.append(need)
    return out


def _local_problem(scenario: Scenario, sats: list[CustomerSat],
                   stream: DemandStream, state: WorldState,
                   config: RhConfig,
                   registry: Optional[PluginRegistry] = None) -> PlanProblem:
    grid = build_time_grid(scenario.network.period, scenario.network.offsets,
                           config.window_days)
    candidates = visible_needs(stream, scenario, state, config.window_days)
    local = window_needs(candidates, scenario, grid, day_offset=state.day)
    # needs whose admissible window has entirely passed are lost for good
    live = {n.id for n in local}
    for need in candidates:
        spec = scenario.services[need.service_type]
        if need.id not in live and need.tau + spec.window <= state.day:
            state.lost.add(need.id)

    start = state.start
    active_sats = {n.satellite for n in local}
    active_sats |= {c.node for c in start.committed}
    active_sats |= {p.node for p in start.pending_arrivals}
    active_sats |= set(start.vehicle_nodes.values())
    sats_local = [s for s in sats if s.name in active_sats]
    local = [n for n in local if n.satellite in {s.name for s in sats_local}]

    nodes = build_nodes(scenario, sats_local, include_earth=True)
    net = expand(nodes, grid, scenario, registry=registry,
                 n_breakpoints=config.n_breakpoints,
                 vehicles=start.active_vehicles(scenario))
    options = SolveOptions(gap=config.gap)
    return PlanProblem(scenario, net, local, start, options)


def _commit_days(scenario: Scenario, config: RhConfig) -> int:
    """Days each step commits: ``config.commit_days``, or one grid period
    where it is unset."""
    if config.commit_days is None:
        return scenario.network.period
    return config.commit_days


def step(scenario: Scenario, sats: list[CustomerSat], stream: DemandStream,
         state: WorldState, ledger: Ledger, config: RhConfig,
         registry: Optional[PluginRegistry] = None) -> StepResult:
    """Plan one window, commit one interval, and advance the world state."""
    days = _commit_days(scenario, config)
    problem = _local_problem(scenario, sats, stream, state, config, registry)
    solution = problem.solve()
    if not solution.feasible:
        raise CampaignError(
            f"planning window at day {state.day} is {solution.status}")
    violations = audit(problem, solution.values)
    if violations:
        raise CampaignError(
            f"solution audit failed at day {state.day}: {violations[:5]}")
    schedule = extract_schedule(problem, solution)
    committed, next_start = commit(problem, solution, schedule, days)
    day0 = state.day
    for e in committed:
        for bucket, amount in e.cash.items():
            ledger.book(day0 + e.day, bucket, amount)
        if e.kind == "service_start":
            state.served.add(e.detail["need"])

    # operating cost over the interval for every depot and servicer
    # deployed: the vehicles whose operating cost the plan prices
    for vid, v in sorted(state.start.active_vehicles(scenario).items()):
        ledger.book(day0, ops_bucket(v), v.operating_cost_per_day * days)

    state.start = next_start
    state.day = day0 + days
    return StepResult(day=day0, schedule=schedule, committed_events=committed,
                      objective=solution.objective)


def run(scenario: Scenario, sats: list[CustomerSat], stream: DemandStream,
        horizon_days: int, config: Optional[RhConfig] = None,
        registry: Optional[PluginRegistry] = None) -> CampaignResult:
    """Simulate a full campaign and return its ledger and event history."""
    config = config or RhConfig()
    days = _commit_days(scenario, config)
    # a bad interval is the caller's input, not a campaign failure
    if days <= 0 or days % scenario.network.period != 0:
        raise ValueError("commit interval must be a positive multiple "
                         "of the grid period")
    if days > config.window_days:
        raise ValueError(f"commit interval of {days} d exceeds the "
                         f"{config.window_days} d planning window")
    # the campaign starts on day 0, so it would take no step
    if horizon_days <= 0:
        raise ValueError("campaign horizon must cover at least one step")
    state, investment = initial_state(scenario)
    ledger = Ledger(initial_investment=investment)
    steps: list[StepResult] = []
    boundaries: list[int] = []
    while state.day < horizon_days:
        steps.append(step(scenario, sats, stream, state, ledger, config,
                          registry))
        boundaries.append(state.day)
    return CampaignResult(ledger=ledger, state=state, steps=steps,
                          boundaries=boundaries)
