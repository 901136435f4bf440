import pytest

from oosplan.demand import (DemandStream, ServiceNeed, build_window,
                            generate_needs, generate_stream, window_needs)
from oosplan.network import build_time_grid
from oosplan.scenario import CustomerSat

SATS = [CustomerSat("a", 10.0), CustomerSat("b", -50.0)]


def test_deterministic_spacing(multimodal):
    spec = multimodal.services["refueling"]
    needs = generate_needs(SATS, spec, horizon=9000.0, seed=1)
    per_sat = {}
    for n in needs:
        per_sat.setdefault(n.satellite, []).append(n.tau)
    for taus in per_sat.values():
        gaps = [b - a for a, b in zip(taus, taus[1:])]
        assert all(g == pytest.approx(spec.occurrence.interval) for g in gaps)
        assert 0.0 <= taus[0] < spec.occurrence.interval
        # each date is phase + k * interval, not a running sum
        assert taus == [taus[0] + k * spec.occurrence.interval
                        for k in range(len(taus))]


def test_deterministic_reproducible(multimodal):
    spec = multimodal.services["refueling"]
    a = generate_needs(SATS, spec, horizon=9000.0, seed=3)
    b = generate_needs(SATS, spec, horizon=9000.0, seed=3)
    assert [(n.id, n.tau) for n in a] == [(n.id, n.tau) for n in b]
    c = generate_needs(SATS, spec, horizon=9000.0, seed=4)
    assert [n.tau for n in a] != [n.tau for n in c]


def test_random_poisson_mean(multimodal):
    spec = multimodal.services["repositioning"]
    sats = [CustomerSat(f"s{i}", float(i - 170)) for i in range(200)]
    needs = generate_needs(sats, spec, horizon=50000.0, seed=5)
    rate = len(needs) / (200 * 50000.0)
    assert rate == pytest.approx(1.0 / spec.occurrence.interval, rel=0.1)


def _need(tau, duration=10):
    return ServiceNeed(id="n", satellite="a", service_type="x", tau=tau,
                       duration=duration, revenue=1.0)


def test_build_window():
    grid = build_time_grid(10, (2, 4), 30)
    built = build_window(_need(5.0), grid, 15.0)
    assert built.window == (10, 12, 14)
    assert grid.next_step_at_or_after(5.0) == 10
    assert build_window(_need(29.0), grid, 0.5) is None
    assert build_window(_need(50.0), grid, 30.0) is None
    # a need that waited from before a window's first day keeps the window's
    # steps from that day on
    late = build_time_grid(10, (2, 4), 30, start=10)
    assert build_window(_need(3.0), late, 30.0).window == (
        10, 12, 14, 20, 22, 24, 30, 32)


def test_covers_duration():
    grid = build_time_grid(10, (2, 4), 30)
    built = build_window(_need(0.0, duration=10), grid, 10.0)
    assert built.covers(0, 0) and built.covers(0, 4)
    assert not built.covers(0, 10)
    assert built.covers(4, 12) and not built.covers(4, 14)


def test_stream_sorted_and_export(multimodal):
    stream = generate_stream(SATS, multimodal, horizon=5000.0, seed=11)
    taus = [n.tau for n in stream.needs]
    assert taus == sorted(taus)


def test_stream_rejects_unsorted():
    with pytest.raises(ValueError):
        DemandStream(needs=(_need(5.0), _need(1.0)))


def test_window_needs_offset(multimodal):
    # a window that starts on campaign day 100 plans on campaign days
    grid = build_time_grid(10, (2, 4), 30, start=100)
    assert (grid.steps[0], grid.final, grid.horizon) == (100, 130, 130)
    spec = multimodal.services["refueling"]
    need = ServiceNeed(id="a/r/0", satellite="a", service_type="refueling",
                       tau=105.0, duration=spec.duration, revenue=spec.revenue)
    local = window_needs([need], multimodal, grid)
    assert len(local) == 1
    assert local[0].tau == 105.0
    assert local[0].window[0] == 110
    # fully in the past: dropped
    assert not window_needs([need], multimodal,
                            build_time_grid(10, (2, 4), 30, start=300))
