"""Service-need generation and windowing.

Deterministic needs recur at a fixed per-satellite frequency with a seeded
random phase; random needs follow a Poisson process (exponential inter-arrival
times). Each need gets a service window of grid steps and a required tool
from its service type; ``ServiceNeed.covers`` says on which steps a service
started in the window is under way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from .network import TimeGrid
from .scenario import CustomerSat, Scenario, ServiceTypeSpec


@dataclass(frozen=True)
class ServiceNeed:
    id: str
    satellite: str              # customer satellite name
    service_type: str
    tau: float                  # occurrence date, days (continuous)
    window: tuple[int, ...] = ()        # grid steps; populated by build_window
    duration: int = 0
    revenue: float = 0.0
    delay_penalty_per_day: float = 0.0
    commodity_demand: dict[str, float] = field(default_factory=dict)
    required_tool: str = ""

    def covers(self, start: int, t: int) -> bool:
        """Whether a service started on step ``start`` is under way at ``t``."""
        return start <= t < start + self.duration


def _sat_rng(seed: int, sat_name: str, service_id: str) -> np.random.Generator:
    # independent, process-stable stream per (satellite, service type)
    digest = hashlib.sha256(f"{sat_name}|{service_id}".encode()).digest()
    ss = np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])
    return np.random.default_rng(ss)


def generate_needs(sats: list[CustomerSat], spec: ServiceTypeSpec,
                   horizon: float, seed: int) -> list[ServiceNeed]:
    """Every need of one service type on each satellite up to ``horizon``.

    A deterministic need recurs every ``interval`` days after a seeded
    uniform phase in [0, interval); a random one follows a Poisson process
    whose exponential gaps have mean ``interval``.
    """
    interval = spec.occurrence.interval
    regular = spec.occurrence.kind == "deterministic"
    needs = []
    for sat in sats:
        rng = _sat_rng(seed, sat.name, spec.id)
        first = float(rng.uniform(0.0, interval) if regular
                      else rng.exponential(interval))
        k, tau = 0, first
        while tau <= horizon:
            needs.append(ServiceNeed(
                id=f"{sat.name}/{spec.id}/{k}", satellite=sat.name,
                service_type=spec.id, tau=tau, duration=spec.duration,
                revenue=spec.revenue,
                delay_penalty_per_day=spec.delay_penalty_per_day,
                commodity_demand=dict(spec.commodity_demand),
                required_tool=spec.required_tool))
            k += 1
            tau = (first + k * interval if regular
                   else tau + float(rng.exponential(interval)))
    return needs


def build_window(need: ServiceNeed, grid: TimeGrid,
                 window_days: float) -> Optional[ServiceNeed]:
    """Attach the service window: grid steps in [tau, tau + window).

    Returns None (need dropped) when no grid step falls inside the window.
    """
    steps = tuple(t for t in grid.steps
                  if need.tau <= t < need.tau + window_days)
    return replace(need, window=steps) if steps else None


@dataclass(frozen=True)
class DemandStream:
    """All service needs over a campaign, ordered by occurrence date."""

    needs: tuple[ServiceNeed, ...]

    def __post_init__(self):
        taus = [n.tau for n in self.needs]
        if taus != sorted(taus):
            raise ValueError("needs must be sorted by occurrence date")


def generate_stream(sats: list[CustomerSat], scenario: Scenario,
                    horizon: float, seed: int) -> DemandStream:
    """Generate the full demand stream over the campaign horizon."""
    needs: list[ServiceNeed] = []
    for spec in scenario.services.values():
        needs += generate_needs(sats, spec, horizon, seed)
    needs.sort(key=lambda n: (n.tau, n.id))
    return DemandStream(needs=tuple(needs))


def window_needs(stream_needs: Iterable[ServiceNeed], scenario: Scenario,
                 grid: TimeGrid) -> list[ServiceNeed]:
    """Clip needs to a planning grid. The grid and the occurrence dates are
    both on the campaign clock, so a need keeps its date.

    Needs whose window has no grid step are dropped.
    """
    out = []
    for need in stream_needs:
        spec = scenario.services[need.service_type]
        built = build_window(need, grid, spec.window)
        if built is not None:
            out.append(built)
    return out
