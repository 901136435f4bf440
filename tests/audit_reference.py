"""The loop audit that ``milp.audit`` replaced, kept verbatim as the test
oracle of the array audit: ``tests/test_audit_arrays.py`` checks that both
return the same violations, in the same order, on solved and on perturbed
values. Only the imports differ from the original.
"""

from __future__ import annotations

import math

from oosplan.milp import PlanProblem, Violation, vn
from oosplan.network import TransportArc


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
