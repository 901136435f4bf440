"""Brute-force profit oracle for closed micro instances.

Enumerates every assignment of needs to start steps and every feasible
itinerary of the single servicer (direct legs or legs via the parking slot),
simulating tank levels and wet-mass feasibility along the way. Intended for
instances small enough that exhaustive search finishes instantly; used to
cross-check the MILP optimum.
"""

from __future__ import annotations

import itertools
from typing import Optional

from oosplan.demand import ServiceNeed
from oosplan.milp import InitialState
from oosplan.network import DynamicNetwork, TransportArc
from oosplan.scenario import Scenario

TOL = 1e-9


def oracle_best(scenario: Scenario, net: DynamicNetwork,
                needs: list[ServiceNeed], init: InitialState) -> float:
    """Maximum achievable profit by exhaustive enumeration."""
    servicers = [vid for vid in init.vehicle_nodes
                 if scenario.vehicles[vid].is_servicer]
    if len(servicers) != 1:
        raise ValueError("oracle supports exactly one servicer")
    vid = servicers[0]
    vehicle = scenario.vehicles[vid]
    grid = net.grid
    start_node = next(n for n in net.nodes.nodes
                      if n.name == init.vehicle_nodes[vid])
    if start_node.tier != "parking":
        raise ValueError("oracle expects the servicer to start at parking")

    ops = sum(scenario.vehicles[v].operating_cost_per_day * grid.final
              for v in init.vehicle_nodes)
    base = -ops

    arcs_from: dict[tuple[int, int], list[TransportArc]] = {}
    for a in net.arcs:
        if a.vehicle == vid and not a.is_launch:
            arcs_from.setdefault((a.i, a.t), []).append(a)

    sat_node = {n.name: n.index for n in net.nodes.nodes}
    parking = [n.index for n in net.nodes.parking]

    def dry_plus(stocks: dict[str, float]) -> float:
        return vehicle.dry_mass + sum(
            scenario.unit_mass(k) * q for k, q in stocks.items())

    def fly(arc: TransportArc, stocks: dict[str, float]
            ) -> Optional[dict[str, float]]:
        wet = dry_plus(stocks)
        if wet > arc.mass_upper_bound + 1e-6:
            return None
        mode = next(m for m in vehicle.propulsion if m.kind == arc.r)
        burn = arc.model.propellant(wet)
        prop = mode.propellant_commodity
        if stocks.get(prop, 0.0) + 1e-6 < burn:
            return None
        out = dict(stocks)
        out[prop] -= burn
        return out

    def first_step_at_or_after(day: float) -> Optional[int]:
        for t in grid.steps:
            if t >= day:
                return t
        return None

    def reach(pos: int, t_min: int, exact: bool, stocks: dict[str, float],
              plan: list[tuple[int, ServiceNeed]]) -> bool:
        """Can the servicer run the remaining (tau, need) plan from here?

        ``exact`` means the vehicle must depart at exactly t_min (it sits at a
        customer node whose service just ended); otherwise it may idle.
        """
        if not plan:
            if not exact:
                return True
            # forced departure: any arc home works, else stranded => infeasible
            for a in arcs_from.get((pos, t_min), ()):
                if a.j in parking and fly(a, stocks) is not None:
                    return True
            return False
        tau, need = plan[0]
        target = sat_node[need.satellite]
        if pos == target and exact and t_min == tau:
            # back-to-back at the same node is impossible: a service start
            # requires an arrival, and there are no self arcs
            return False
        departures = [t_min] if exact else [
            t for t in grid.steps if t >= t_min]
        for t in departures:
            for a in arcs_from.get((pos, t), ()):
                after = fly(a, stocks)
                if after is None:
                    continue
                if a.j == target and a.arrival == tau:
                    if serve_and_go(target, tau, after, plan):
                        return True
                elif a.j in parking and a.arrival <= tau:
                    if reach(a.j, a.arrival, False, after, plan):
                        return True
            if exact:
                break
        return False

    def serve_and_go(pos: int, tau: int, stocks: dict[str, float],
                     plan: list[tuple[int, ServiceNeed]]) -> bool:
        tau, need = plan[0]
        after = dict(stocks)
        for k, qty in need.commodity_demand.items():
            after[k] = after.get(k, 0.0) - qty
            if after[k] < -1e-6:
                return False
        if need.required_tool and stocks.get(need.required_tool, 0.0) < 1 - 1e-6:
            return False
        end = tau + need.duration
        dep = first_step_at_or_after(end)
        if dep is None:
            return not plan[1:]     # horizon ends mid-service
        return reach(pos, dep, True, after, plan[1:])

    best = base
    options_per_need = [[None] + [tau for tau in n.window] for n in needs]
    for combo in itertools.product(*options_per_need):
        plan = sorted(((tau, need) for tau, need in zip(combo, needs)
                       if tau is not None), key=lambda p: (p[0], p[1].id))
        if any(a == b for (a, _), (b, _) in zip(plan, plan[1:])):
            continue            # one servicer cannot start two services at once
        gain = sum(need.revenue
                   - need.delay_penalty_per_day
                   * (tau - first_step_at_or_after(need.tau))
                   for tau, need in plan)
        if base + gain <= best + TOL:
            continue            # cannot beat the incumbent even if feasible
        stocks = dict(init.commodities.get(vid, {}))
        if reach(start_node.index, 0, False, stocks, plan):
            best = base + gain
    return best
