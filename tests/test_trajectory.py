import math
from dataclasses import fields

import numpy as np
import pytest

from oosplan.trajectory import (DAY_S, UNBOUNDED_MASS, PluginRegistry,
                                TrajectoryError, TrajectoryModel,
                                TrajectoryQuery, ht_best_candidate,
                                ht_enumerate, ht_model, linearize,
                                lt_burn_time, lt_mass_upper_bound, lt_model,
                                lt_propellant)

MU = 3.986004418e14
R_GEO = 42164e3
R_FORB = 6578e3

# reference low-thrust configuration: 1.16 N, Isp 1790 s, 8-day transfer,
# half-revolution phase change on the 42,164 km orbit
LT_REF = dict(delta_theta=math.pi, t_f=8 * DAY_S, r0=R_GEO, thrust=1.16)
LT_ISP = 1790.0


def lt_query(**kw):
    base = dict(phase_angle=math.pi, signed_phase=math.pi, orbit_radius=R_GEO,
                time_of_flight=8 * DAY_S, isp=LT_ISP, thrust=1.16,
                mass_min=500.0, mass_max=2000.0)
    base.update(kw)
    return TrajectoryQuery(**base)


class TestHighThrust:
    def test_degenerate_zero_phase(self):
        cands = ht_enumerate(0.0, R_GEO, 2 * DAY_S, R_FORB, MU)
        assert len(cands) == 1
        assert cands[0].delta_v == 0.0
        assert cands[0].time_of_flight == 0.0

    def test_candidates_respect_bounds(self):
        cands = ht_enumerate(math.pi / 3, R_GEO, 3 * DAY_S, R_FORB, MU)
        assert cands
        a_min = (R_GEO + R_FORB) / 2
        for c in cands:
            assert c.time_of_flight <= 3 * DAY_S
            assert c.semi_major_axis >= a_min - 1e-6
            assert c.k1 >= 1 and c.k2 >= 0

    def test_best_candidate_minimizes_delta_v(self):
        cands = ht_enumerate(math.pi, R_GEO, 2 * DAY_S, R_FORB, MU)
        best = ht_best_candidate(math.pi, R_GEO, 2 * DAY_S, R_FORB, MU)
        assert best.delta_v == min(c.delta_v for c in cands)
        # independently derived reference for this configuration
        assert best.delta_v == pytest.approx(688.6, abs=0.1)
        assert (best.k1, best.k2) == (2, 1)

    def test_no_candidate_raises(self):
        with pytest.raises(TrajectoryError):
            ht_best_candidate(math.pi, R_GEO, 3600.0, R_FORB, MU)

    def test_model_is_exact_rocket_equation(self):
        q = TrajectoryQuery(phase_angle=math.pi / 2, signed_phase=math.pi / 2,
                            orbit_radius=R_GEO, time_of_flight=2 * DAY_S,
                            isp=316.0, mass_min=1000.0, mass_max=5000.0)
        model = ht_model(q)
        assert model.kind == "high_thrust"
        frac = 1.0 - math.exp(-model.delta_v / (q.g0 * q.isp))
        for m0 in (1000.0, 2345.6, 5000.0):
            assert model.propellant(m0) == pytest.approx(m0 * frac, rel=1e-12)
        assert model.mass_upper_bound == 5000.0
        assert model.burn_fraction == pytest.approx(frac)


class TestLowThrust:
    def test_mass_upper_bound_reference(self):
        m_ub = lt_mass_upper_bound(**LT_REF)
        assert m_ub == pytest.approx(3138.0, abs=1.0)

    def test_zero_phase_unbounded(self):
        assert lt_mass_upper_bound(0.0, 8 * DAY_S, R_GEO, 1.16) \
            == UNBOUNDED_MASS

    def test_burn_time_at_bound_is_half_tof(self):
        m_ub = lt_mass_upper_bound(**LT_REF)
        tau = lt_burn_time(m_ub, **LT_REF)
        assert tau == pytest.approx(LT_REF["t_f"] / 2, rel=1e-6)

    def test_burn_time_reference_mass(self):
        tau = lt_burn_time(2000.0, **LT_REF)
        # smaller root of the thrust-duration quadratic, computed directly
        c = 4 * R_GEO * 2000.0 * math.pi / (3 * 1.16)
        expected = (LT_REF["t_f"] - math.sqrt(LT_REF["t_f"] ** 2 - c)) / 2
        assert tau == pytest.approx(expected, rel=1e-12)
        assert tau == pytest.approx(137485.0, abs=1.0)

    def test_propellant_reference_values(self):
        assert lt_propellant(2000.0, isp=LT_ISP, **LT_REF) \
            == pytest.approx(18.17, abs=0.01)
        assert lt_propellant(500.0, isp=LT_ISP, **LT_REF) \
            == pytest.approx(3.80, abs=0.01)

    def test_overweight_raises(self):
        m_ub = lt_mass_upper_bound(**LT_REF)
        with pytest.raises(TrajectoryError):
            lt_burn_time(m_ub * 1.01, **LT_REF)

    def test_model_overestimates_convex_curve(self):
        model = lt_model(lt_query(), n_breakpoints=20)
        for m0 in np.linspace(500.0, 2000.0, 200):
            exact = lt_propellant(float(m0), isp=LT_ISP, **LT_REF)
            assert model.propellant(float(m0)) >= exact - 1e-9

    def test_model_exact_at_breakpoints(self):
        model = lt_model(lt_query(), n_breakpoints=20)
        for m0, mp in model.breakpoints:
            assert mp == pytest.approx(
                lt_propellant(m0, isp=LT_ISP, **LT_REF), rel=1e-12)

    def test_zero_phase_flat_model(self):
        model = lt_model(lt_query(signed_phase=0.0, phase_angle=0.0))
        assert all(mp == 0.0 for _, mp in model.breakpoints)

    def test_infeasible_domain_raises(self):
        # upper bound far below the smallest mass in the range
        with pytest.raises(TrajectoryError):
            lt_model(lt_query(time_of_flight=0.2 * DAY_S,
                              mass_min=2000.0, mass_max=4000.0))


class TestModelAndRegistry:
    def test_linearize_endpoints_and_count(self):
        bps = linearize(lambda x: x * x, 1.0, 3.0, 5)
        assert len(bps) == 5
        assert bps[0] == (1.0, 1.0)
        assert bps[-1] == (3.0, 9.0)

    def test_linearize_exact_on_linear_fn(self):
        bps = linearize(lambda x: 2 * x + 1, 0.0, 10.0, 4)
        model = TrajectoryModel(breakpoints=bps, mass_upper_bound=10.0,
                                kind="low_thrust")
        for x in (0.0, 3.3, 7.7, 10.0):
            assert model.propellant(x) == pytest.approx(2 * x + 1, rel=1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TrajectoryModel(breakpoints=((1.0, 0.0),), mass_upper_bound=1.0,
                            kind="high_thrust")
        with pytest.raises(ValueError):
            TrajectoryModel(breakpoints=((2.0, 0.0), (1.0, 1.0)),
                            mass_upper_bound=1.0, kind="high_thrust")
        with pytest.raises(ValueError):
            TrajectoryModel(breakpoints=((1.0, 5.0), (2.0, 1.0)),
                            mass_upper_bound=1.0, kind="high_thrust")
        with pytest.raises(ValueError):
            TrajectoryModel(breakpoints=((1.0, 0.1), (2.0, 0.3)),
                            mass_upper_bound=2.0, kind="high_thrust",
                            burn_fraction=0.1)

    def test_query_refuses_non_finite_fields(self):
        # a NaN or infinite time of flight once made ht_enumerate's
        # candidate list grow without limit
        for f in fields(TrajectoryQuery):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError,
                                   match=f"{f.name} must be finite"):
                    lt_query(**{f.name: bad})

    def test_registry_default_and_unknown(self):
        reg = PluginRegistry.default()
        assert reg.get("high_thrust") is ht_model
        assert reg.get("low_thrust") is lt_model
        with pytest.raises(TrajectoryError):
            reg.get("warp_drive")
