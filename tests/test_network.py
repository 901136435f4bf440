import math

import pytest

from oosplan.network import (NetworkError, build_nodes, build_time_grid,
                             expand, phase_angle, signed_phase)
from oosplan.scenario import CustomerSat


def test_build_nodes_tiers(multimodal):
    sats = [CustomerSat("a", 10.0), CustomerSat("b", 20.0)]
    nodes = build_nodes(multimodal, sats)
    assert [n.tier for n in nodes.nodes] == ["earth", "parking", "customer",
                                             "customer"]
    assert nodes.parking[0].name == "parking_0"
    assert nodes.parking[0].longitude == -170.0
    assert len(nodes.orbital) == 3
    nodes2 = build_nodes(multimodal, sats, include_earth=False)
    assert not nodes2.earth


def test_time_grid_steps():
    grid = build_time_grid(10, (2, 4), 30)
    assert grid.steps == (0, 2, 4, 10, 12, 14, 20, 22, 24, 30)
    assert [grid.index(t) for t in grid.steps] == list(range(10))
    assert grid.contains(12) and not grid.contains(13)
    assert grid.delta_forward(4) == 6
    assert grid.delta_forward(30) == 0
    assert grid.delta_backward(0) == 0
    assert grid.delta_backward(10) == 6
    assert grid.next_step_at_or_after(5.0) == 10
    assert grid.next_step_at_or_after(31.0) is None


def test_step_at_or_after_lies_on_the_lattice():
    # a window's grid from day 10 maps an earlier day to the step of the
    # lattice it lies on, so a need's delay clock does not restart there
    grid = build_time_grid(10, (2, 4), 30, start=10)
    assert grid.steps[0] == 10 and grid.horizon == 40
    assert grid.next_step_at_or_after(3.0) == 4
    assert grid.next_step_at_or_after(-1.0) == 0
    assert grid.next_step_at_or_after(10.0) == 10
    assert grid.next_step_at_or_after(14.5) == 20
    assert grid.next_step_at_or_after(40.0) == 40
    assert grid.next_step_at_or_after(40.5) is None


def test_step_at_or_after_matches_a_scan_of_the_steps():
    grid = build_time_grid(10, (2, 4), 60, start=20)
    for tenth in range(200, 900):
        day = tenth / 10
        scan = next((t for t in grid.steps if t >= day), None)
        assert grid.next_step_at_or_after(day) == scan


def test_time_grid_validation():
    with pytest.raises(NetworkError):
        build_time_grid(10, (4, 2), 30)
    with pytest.raises(NetworkError):
        build_time_grid(10, (12,), 30)
    with pytest.raises(NetworkError):
        build_time_grid(10, (2,), 5)


@pytest.mark.parametrize("period, offsets", [
    (10.5, (2, 4)), (10, (2, 4.5)), (10.5, (2, 4.5)), (0, ()), (-10, ())],
    ids=["period", "offset", "both", "zero-period", "negative-period"])
def test_time_grid_needs_a_positive_whole_period_and_whole_offsets(
        period, offsets):
    # a fractional period made steps that its lattice does not hold:
    # (10.5, (2, 4.5)) gave 0, 2, 4, 10.5, ... with ``period`` 10; a period
    # of 0 never ended the step loop
    with pytest.raises(NetworkError):
        build_time_grid(period, offsets, 40)
    # whole floats are whole days
    assert build_time_grid(10.0, (2.0, 4.0), 40) == build_time_grid(
        10, (2, 4), 40)


def test_phase_angles():
    assert phase_angle(30.0, 10.0) == pytest.approx(math.radians(20.0))
    assert phase_angle(10.0, 30.0) == pytest.approx(math.radians(340.0))
    assert phase_angle(0.0, 0.0) == 0.0
    assert signed_phase(10.0, 30.0) == pytest.approx(math.radians(20.0))
    assert signed_phase(30.0, 10.0) == pytest.approx(math.radians(-20.0))
    assert signed_phase(-170.0, 180.0) == pytest.approx(math.radians(-10.0))


def test_expand_arcs_grid_aligned(multimodal):
    sats = [CustomerSat("a", -160.0), CustomerSat("b", -150.0)]
    nodes = build_nodes(multimodal, sats)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, multimodal)
    assert net.arcs
    for a in net.arcs:
        assert grid.contains(a.t) and grid.contains(a.arrival)
        if not a.is_launch:
            veh = multimodal.vehicles[a.vehicle]
            assert a.mass_upper_bound >= veh.dry_mass
            assert a.model is not None
    launch = [a for a in net.arcs if a.is_launch]
    assert launch
    # a launch at day 60 would arrive past the horizon, so only two remain
    assert {a.t for a in launch} == {0, 30}
    assert all(a.q == 2 for a in launch)


def test_expand_uses_both_modes(multimodal):
    sats = [CustomerSat("a", -100.0)]
    nodes = build_nodes(multimodal, sats, include_earth=False)
    grid = build_time_grid(10, (2, 4), 60)
    net = expand(nodes, grid, multimodal)
    modes = {a.r for a in net.arcs if a.vehicle == "mm_versatile"}
    assert modes == {"high_thrust", "low_thrust"}


def test_expand_for_named_vehicles(multimodal):
    sats = [CustomerSat("a", -160.0)]
    nodes = build_nodes(multimodal, sats)
    grid = build_time_grid(10, (2, 4), 60)
    full = expand(nodes, grid, multimodal)
    named = {"mm_versatile", "depot"}
    net = expand(nodes, grid, multimodal, vehicles=named)
    # arcs compare equal with their trajectory models
    assert net.arcs == tuple(a for a in full.arcs
                             if a.is_launch or a.vehicle in named)
    assert {a.vehicle for a in net.arcs if not a.is_launch} \
        == {"mm_versatile"}
    assert "mm_specialized_1" in {a.vehicle for a in full.arcs}
    assert [a for a in net.arcs if a.is_launch]
