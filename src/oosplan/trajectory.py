"""Phasing-maneuver trajectory models for the servicers.

Two reference models are provided: a two-impulse high-thrust rendezvous and an
analytic continuous low-thrust phasing maneuver. Both are exposed through a
common plugin interface that maps a query (orbital states, time of flight,
propulsion parameters, mass range) and a breakpoint count to a piecewise-linear
propellant consumption model plus a servicer mass upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

DAY_S = 86400.0

#: sentinel upper bound used when a maneuver needs no thrust at all
UNBOUNDED_MASS = float("inf")


class TrajectoryError(Exception):
    """Raised when no feasible trajectory exists for a query."""


@dataclass(frozen=True)
class TrajectoryQuery:
    """Standardized input to a trajectory plugin."""

    phase_angle: float          # rad, chaser-behind-target convention in [0, 2*pi)
    signed_phase: float         # rad, shortest signed angle in (-pi, pi]
    orbit_radius: float         # m
    time_of_flight: float       # s
    isp: float                  # s
    thrust: float = 0.0         # N, unused by the high-thrust model
    g0: float = 9.80665         # m/s^2
    mu: float = 3.986004418e14  # m^3/s^2
    forbidden_radius: float = 6.578e6  # m
    mass_min: float = 500.0     # kg
    mass_max: float = 4000.0    # kg

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.time_of_flight <= 0:
            raise ValueError("time_of_flight must be positive")
        if self.mass_min >= self.mass_max:
            raise ValueError("mass_min must be below mass_max")
        if self.isp <= 0:
            raise ValueError("isp must be positive")


@dataclass(frozen=True)
class TrajectoryModel:
    """Plugin output: propellant breakpoints and the servicer mass upper bound.

    ``breakpoints`` is an ordered list of (initial mass, propellant consumed)
    pairs; between consecutive points the embedded MILP value is the linear
    interpolation. ``burn_fraction`` is set exactly when the propellant is
    ``burn_fraction`` times the initial mass (the rocket equation); it is
    ``None`` when the breakpoints sample a curve.
    """

    breakpoints: tuple[tuple[float, float], ...]
    mass_upper_bound: float
    kind: str                   # "high_thrust" | "low_thrust"
    burn_fraction: Optional[float] = None
    delta_v: float = 0.0        # m/s, populated by the high-thrust model
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        xs = [b[0] for b in self.breakpoints]
        ys = [b[1] for b in self.breakpoints]
        if len(xs) < 2:
            raise ValueError("need at least 2 breakpoints")
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        if any(y < -1e-9 for y in ys):
            raise ValueError("propellant values must be nonnegative")
        if any(y1 < y0 - 1e-9 for y0, y1 in zip(ys, ys[1:])):
            raise ValueError("propellant must be nondecreasing in initial mass")
        if self.mass_upper_bound <= 0:
            raise ValueError("mass upper bound must be positive")
        f = self.burn_fraction
        if f is not None and not all(math.isclose(y, f * x, rel_tol=1e-9)
                                     for x, y in self.breakpoints):
            raise ValueError(f"breakpoints disagree with burn fraction {f}")

    def propellant(self, m0: float) -> float:
        """Piecewise-linear propellant consumption at initial mass ``m0``."""
        bps = self.breakpoints
        if m0 <= bps[0][0]:
            return bps[0][1]
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if m0 <= x1:
                w = (m0 - x0) / (x1 - x0)
                return y0 + w * (y1 - y0)
        return bps[-1][1]


@dataclass(frozen=True)
class HtCandidate:
    """One feasible (k1, k2) phasing solution of the two-impulse model."""

    k1: int             # servicer revolutions before rendezvous, >= 1
    k2: int             # full target revolutions, >= 0
    semi_major_axis: float  # m
    time_of_flight: float   # s
    delta_v: float          # m/s


def ht_enumerate(alpha: float, r: float, t_max: float,
                 r_forb: float = 6.578e6,
                 mu: float = 3.986004418e14) -> list[HtCandidate]:
    """Enumerate all feasible (k1, k2) two-impulse phasing solutions.

    The time-of-flight bound selects the candidate k2 values; for each, k1 is
    scanned upward while the transfer ellipse stays outside the forbidden
    flight zone. ``alpha`` is the angle by which the chaser trails the target,
    in [0, 2*pi). An ``alpha`` of zero yields the degenerate stay-put
    candidate (no maneuver required).
    """
    if not 0.0 <= alpha < 2.0 * math.pi:
        raise ValueError("alpha must be in [0, 2*pi)")
    if alpha == 0.0:
        return [HtCandidate(k1=1, k2=0, semi_major_axis=r,
                            time_of_flight=0.0, delta_v=0.0)]
    out: list[HtCandidate] = []
    period_factor = math.sqrt(r ** 3 / mu)
    v_circ = math.sqrt(mu / r)
    a_min = (r + r_forb) / 2.0
    k2 = 0
    while True:
        theta = alpha + 2.0 * math.pi * k2
        t_f = theta * period_factor
        if t_f > t_max:
            break
        k1 = 1
        while True:
            a = (theta / (2.0 * math.pi * k1)) ** (2.0 / 3.0) * r
            if a < a_min:
                break
            dv = 2.0 * abs(v_circ - math.sqrt(mu * (2.0 / r - 1.0 / a)))
            out.append(HtCandidate(k1=k1, k2=k2, semi_major_axis=a,
                                   time_of_flight=t_f, delta_v=dv))
            k1 += 1
        k2 += 1
    return out


def ht_best_candidate(alpha: float, r: float, t_max: float,
                      r_forb: float = 6.578e6,
                      mu: float = 3.986004418e14) -> HtCandidate:
    """Minimum-delta-V candidate fitting in ``t_max``.

    Ties are broken by smaller time of flight, then smaller k1.
    """
    cands = ht_enumerate(alpha, r, t_max, r_forb=r_forb, mu=mu)
    if not cands:
        raise TrajectoryError(
            f"no feasible two-impulse phasing for alpha={alpha:.4f} rad "
            f"within {t_max:.0f} s")
    return min(cands, key=lambda c: (c.delta_v, c.time_of_flight, c.k1))


def ht_model(query: TrajectoryQuery, n_breakpoints: int = 2) -> TrajectoryModel:
    """High-thrust plugin: rocket-equation propellant model.

    The consumed propellant is exactly linear in the initial mass, so two
    breakpoints at the mass-range ends represent it without approximation
    error; ``n_breakpoints`` is ignored. The mass upper bound is the top of
    the queried mass range.
    """
    best = ht_best_candidate(query.phase_angle, query.orbit_radius,
                             query.time_of_flight,
                             r_forb=query.forbidden_radius, mu=query.mu)
    frac = 1.0 - math.exp(-best.delta_v / (query.g0 * query.isp))
    bps = ((query.mass_min, query.mass_min * frac),
           (query.mass_max, query.mass_max * frac))
    return TrajectoryModel(
        breakpoints=bps, mass_upper_bound=query.mass_max, kind="high_thrust",
        burn_fraction=frac, delta_v=best.delta_v,
        metadata={"k1": best.k1, "k2": best.k2,
                  "semi_major_axis": best.semi_major_axis,
                  "time_of_flight": best.time_of_flight})


def lt_mass_upper_bound(delta_theta: float, t_f: float, r0: float,
                        thrust: float) -> float:
    """Heaviest initial mass for which the low-thrust phasing is feasible.

    Obtained by driving the discriminant of the thrust-duration quadratic to
    zero. A zero phase change needs no thrust, so the bound is unbounded.
    """
    if delta_theta == 0.0:
        return UNBOUNDED_MASS
    if t_f <= 0 or r0 <= 0 or thrust <= 0:
        raise ValueError("t_f, r0 and thrust must be positive")
    return 3.0 * thrust * t_f ** 2 / (4.0 * r0 * abs(delta_theta))


def lt_burn_time(m0: float, delta_theta: float, t_f: float, r0: float,
                 thrust: float) -> float:
    """Duration of each of the two thrust phases (smaller quadratic root)."""
    if delta_theta == 0.0:
        return 0.0
    m_ub = lt_mass_upper_bound(delta_theta, t_f, r0, thrust)
    if m0 > m_ub * (1.0 + 1e-12):
        raise TrajectoryError(
            f"initial mass {m0:.1f} kg exceeds upper bound {m_ub:.1f} kg")
    disc = t_f ** 2 - 4.0 * r0 * m0 * abs(delta_theta) / (3.0 * thrust)
    return (t_f - math.sqrt(max(disc, 0.0))) / 2.0


def lt_propellant(m0: float, delta_theta: float, t_f: float, r0: float,
                  thrust: float, isp: float, g0: float = 9.80665) -> float:
    """Exact propellant consumption of the low-thrust phasing maneuver."""
    b = thrust / (g0 * isp)
    return 2.0 * b * lt_burn_time(m0, delta_theta, t_f, r0, thrust)


def lt_model(query: TrajectoryQuery, n_breakpoints: int = 20) -> TrajectoryModel:
    """Low-thrust plugin: piecewise-linear model of the convex burn curve."""
    if n_breakpoints < 2:
        raise ValueError("need at least 2 breakpoints")
    dth = query.signed_phase
    if dth == 0.0:
        bps = ((query.mass_min, 0.0), (query.mass_max, 0.0))
        return TrajectoryModel(breakpoints=bps, mass_upper_bound=query.mass_max,
                               kind="low_thrust", burn_fraction=0.0)
    m_ub = lt_mass_upper_bound(dth, query.time_of_flight, query.orbit_radius,
                               query.thrust)
    hi = min(query.mass_max, m_ub)
    if hi <= query.mass_min:
        raise TrajectoryError(
            f"arc infeasible for any load: upper bound {m_ub:.1f} kg is below "
            f"the minimum mass {query.mass_min:.1f} kg")

    def consumption(m0: float) -> float:
        return lt_propellant(m0, dth, query.time_of_flight, query.orbit_radius,
                             query.thrust, query.isp, query.g0)

    bps = linearize(consumption, query.mass_min, hi, n_breakpoints)
    return TrajectoryModel(breakpoints=bps, mass_upper_bound=hi,
                           kind="low_thrust")


def linearize(fn: Callable[[float], float], lo: float, hi: float,
              n: int) -> tuple[tuple[float, float], ...]:
    """Sample ``fn`` at ``n`` uniform points on [lo, hi], endpoints included."""
    if n < 2:
        raise ValueError("need at least 2 breakpoints")
    if not hi > lo:
        raise ValueError("empty domain")
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return tuple((x, fn(x)) for x in xs)


class PluginRegistry:
    """Maps a propulsion mode kind to the plugin that models its flights.

    Every plugin is called as ``plugin(query, n_breakpoints)``.
    """

    def __init__(self):
        self._plugins: dict[str, Callable[..., TrajectoryModel]] = {}

    def register(self, kind: str, plugin: Callable[..., TrajectoryModel]):
        self._plugins[kind] = plugin

    def get(self, kind: str) -> Callable[..., TrajectoryModel]:
        try:
            return self._plugins[kind]
        except KeyError:
            raise TrajectoryError(f"no trajectory plugin for mode {kind!r}")

    @staticmethod
    def default() -> "PluginRegistry":
        reg = PluginRegistry()
        reg.register("high_thrust", ht_model)
        reg.register("low_thrust", lt_model)
        return reg
