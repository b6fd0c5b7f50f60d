import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petrocheck.barriers import (
    b_const,
    c_max,
    degenerate_family_member,
    degenerate_irregularity_barrier,
    degenerate_small_data_barrier,
    elementary_inequality_margin,
    find_family_threshold,
    m_const,
    make_barrier,
    singular_irregularity_barrier,
    singular_traditional_barrier,
    small_data_amplitude,
    small_data_bound_g,
)
from petrocheck.calculus import (
    SpaceTimeFunction,
    barenblatt_function,
    barenblatt_support_radius,
    check_derivatives,
    residual,
)
from petrocheck.domains import envelope_gauge, make_profile
from petrocheck.errors import DomainError


def interior_grid(profile, nt=48, ny=48):
    ts = profile.t0 * (1e-5) ** (np.arange(1, nt + 1) / nt)
    ys = (np.arange(1, ny + 1) - 0.5) / ny
    T, Y = np.meshgrid(ts, ys, indexing="ij")
    return Y * profile.zeta(T), T


class TestConstants:
    def test_b_value(self):
        assert b_const(1.5, 2) == 1.0  # min{sqrt(3), 1}

    def test_b_never_exceeds_one(self):
        for p in (1.1, 1.3, 1.5, 1.8, 1.95):
            for n in (1, 2, 5):
                assert b_const(p, n) <= 1.0

    def test_m_value(self):
        # B = 1, exponent 1 + 0.5/(1.5*0.25*0.5) = 11/3
        assert m_const(1.5, 0.25, 2) == pytest.approx(0.5 ** (11.0 / 3.0))

    def test_cmax_value(self):
        assert c_max(3.0, 2) == pytest.approx(1.0 / 45.0)

    def test_small_data_amplitude(self):
        assert small_data_amplitude(3.0, 2, 0.5) == pytest.approx(1.0 / 90.0)

    def test_range_guards(self):
        with pytest.raises(DomainError):
            b_const(2.5, 2)
        with pytest.raises(DomainError):
            m_const(1.5, 0.9, 2)   # q > 1/p
        with pytest.raises(DomainError):
            c_max(1.5, 2)


class TestSingularIrregularity:
    def test_axis_value(self):
        u = singular_irregularity_barrier(1.5, 0.25, 2)
        assert float(u(0.0, -1.0)) == pytest.approx(-3.2 * math.sqrt(3.0))
        assert float(u(0.0, 0.0)) == 1.0

    def test_axis_decays_to_zero(self):
        u = singular_irregularity_barrier(1.5, 0.25, 2)
        ts = -np.logspace(0, -8, 30)
        vals = np.asarray(u(np.zeros_like(ts), ts))
        assert np.all(np.diff(np.abs(vals)) < 0)
        assert abs(vals[-1]) < 1e-4

    def test_supersolution_on_grid(self):
        u = singular_irregularity_barrier(1.5, 0.25, 2)
        prof = make_profile("power", K=1.0, q=0.25, t0=-1.0)
        R, T = interior_grid(prof, 64, 64)
        res = residual(u, 1.5, 2, R, T)
        assert float(np.min(res)) >= -1e-12

    def test_borderline_q_rejected(self):
        with pytest.raises(DomainError):
            singular_irregularity_barrier(1.5, 2.0 / 3.0, 2)


class TestSingularTraditional:
    def test_paste_structure(self):
        p, q, n = 1.5, 0.25, 2
        u = singular_traditional_barrier(p, q, n)
        B, M = b_const(p, n), m_const(p, q, n)
        # outside the core the value is exactly M
        r_out = (0.6 * B) ** ((p - 1.0) / p) + 0.2
        assert float(u(r_out, -0.5)) == M
        # on the axis the value decays to 0 through min{v, M}
        ts = -np.logspace(0, -6, 20)
        axis = np.asarray(u(np.zeros_like(ts), ts))
        assert axis[0] == pytest.approx(min(B, M))
        assert np.all(np.diff(axis) <= 0)
        assert axis[-1] < 1e-3

    def test_supersolution_on_grid(self):
        u = singular_traditional_barrier(1.5, 0.25, 2)
        prof = make_profile("power", K=1.0, q=0.25, t0=-1.0)
        R, T = interior_grid(prof, 64, 64)
        res = residual(u, 1.5, 2, R, T)
        assert float(np.min(res)) >= -1e-12

    def test_core_residual_positive(self):
        # the unpasted profile is a supersolution with the stated margin
        p, q, n = 1.8, 0.4, 1
        u = singular_traditional_barrier(p, q, n)
        B = b_const(p, n)
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        R, T = interior_grid(prof)
        core = R ** (p / (p - 1.0)) < 0.5 * B
        res = np.asarray(residual(u, p, n, R, T))
        assert float(np.min(res[core])) >= -1e-12


class TestSmallDataBound:
    def test_clamped_constant_region(self):
        p, q, n = 1.5, 0.25, 2
        g = small_data_bound_g(p, q, n)
        B = b_const(p, n)
        thr = (B / 2.0) ** ((p - 1.0) / (p * q))
        assert float(g(0.3, -1.0)) == float(g(0.1, -0.9))        # clamped
        assert float(g(0.0, -1.0)) == pytest.approx(
            (B / 2.0) * thr ** (1.0 / (2.0 - p)))
        assert float(g(0.0, -thr * 1.01)) == float(g(0.0, -1.0))

    def test_vanishes_at_tip(self):
        g = small_data_bound_g(1.5, 0.25, 2)
        assert float(g(0.0, -1e-10)) < 1e-6

    def test_hand_value(self):
        # p=1.5, q=0.25, n=2, t=-1: g = 0.5 * (0.5^(4/3))^2 = 0.5^(11/3)
        g = small_data_bound_g(1.5, 0.25, 2)
        assert float(g(0.0, -1.0)) == pytest.approx(0.5 ** (11.0 / 3.0))


class TestDegenerateIrregularity:
    def test_admissibility(self):
        assert c_max(3.0, 2) == pytest.approx(1.0 / 45.0)
        degenerate_irregularity_barrier(3.0, 2, 1.0 / 45.0)
        with pytest.raises(DomainError) as err:
            degenerate_irregularity_barrier(3.0, 2, 0.03)
        assert "c_max" in str(err.value)

    def test_axis_is_zero(self):
        u = degenerate_irregularity_barrier(3.0, 2, 0.01)
        for t in (-0.9, -0.1, -1e-5):
            assert float(u(0.0, t)) == 0.0

    def test_supersolution_on_reference_cusp(self):
        for p, n in [(2.5, 1), (3.0, 2), (4.0, 3)]:
            C = 0.9 * c_max(p, n)
            u = degenerate_irregularity_barrier(p, n, C)
            prof = make_profile("power", K=1.0, q=1.0 / p, t0=-1.0)
            R, T = interior_grid(prof)
            res = residual(u, p, n, R, T)
            assert float(np.min(res)) >= -1e-12, (p, n)


class TestDegenerateSmallData:
    def test_amplitude_and_tip(self):
        u = degenerate_small_data_barrier(3.0, 1.0 / 3.0, 2, 0.5)
        assert float(u(0.0, 0.0)) == 0.0
        assert float(u(0.0, -0.5)) == 0.0

    def test_beta_guard(self):
        with pytest.raises(DomainError) as err:
            degenerate_small_data_barrier(3.0, 1.0 / 3.0, 2, 1.0)
        assert "discontinuous" in str(err.value)

    def test_supersolution(self):
        u = degenerate_small_data_barrier(3.0, 1.0 / 3.0, 2, 0.5)
        prof = make_profile("power", K=1.0, q=1.0 / 3.0, t0=-1.0)
        R, T = interior_grid(prof)
        res = residual(u, 3.0, 2, R, T)
        assert float(np.min(res)) >= -1e-12

    def test_lateral_continuity_to_tip(self):
        # along r = (-t)^q the value scales like (-t)^((pq - beta)/(p-2)) -> 0
        q, beta, p = 1.0 / 3.0, 0.5, 3.0
        u = degenerate_small_data_barrier(p, q, 2, beta)
        ts = -np.logspace(0, -10, 25)
        lateral = np.asarray(u((-ts) ** q, ts))
        assert np.all(np.diff(lateral) < 0)
        assert lateral[-1] < 1e-5


@pytest.fixture(scope="module")
def flagship():
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    gauge = envelope_gauge(prof, 3.0, 1)
    C0, details = find_family_threshold(3.0, 1, gauge)
    return prof, gauge, C0, details


class TestFamily:

    def test_threshold_terminates(self, flagship):
        _, _, C0, details = flagship
        assert C0 >= 1.0
        assert details["margin_residual"] >= -1e-12
        assert details["theta"] > 0

    def test_axis_value_is_rho(self, flagship):
        prof, gauge, C0, _ = flagship
        w = degenerate_family_member(3.0, 1, gauge, C0)
        ts = np.array([-0.9, -0.3, -0.01])
        dh = np.asarray(gauge.delta(ts))
        rho = C0 * dh ** 2.0 * (-ts) ** (-0.25)     # C^(1/(p-2)) dh^((p-1)/(p-2)) (-t)^(-n/lam)
        assert np.allclose(np.asarray(w(np.zeros_like(ts), ts)), rho, rtol=1e-12)
        assert np.all(rho > 0)

    def test_q_at_origin_is_C(self, flagship):
        prof, gauge, C0, _ = flagship
        kap = (3.0 - 2.0) / (3.0 * 4.0 ** 0.5)
        for t in (-0.9, -0.01):
            chi = 0.0
            assert C0 + kap * chi == C0

    def test_supersolution_and_positivity(self, flagship):
        prof, gauge, C0, _ = flagship
        w = degenerate_family_member(3.0, 1, gauge, C0)
        R, T = interior_grid(prof, 64, 64)
        res = residual(w, 3.0, 1, R, T)
        assert float(np.min(res)) >= -1e-12
        assert float(np.min(np.asarray(w(R, T)))) > 0

    def test_vanishes_at_tip_uniformly(self, flagship):
        prof, gauge, C0, _ = flagship
        w = degenerate_family_member(3.0, 1, gauge, C0)
        for eps, bound in [(1e-2, None), (1e-4, None)]:
            ts = -eps * np.linspace(0.2, 1.0, 8)
            ys = np.linspace(0.1, 0.9, 8)
            T, Y = np.meshgrid(ts, ys, indexing="ij")
            R = Y * prof.zeta(T)
            sup = float(np.max(np.asarray(w(R, T))))
            if bound is None:
                bound = 10 * eps ** 0.25
            assert sup < bound

    def test_gauge_without_derivative_rejected(self, flagship):
        prof, _, C0, _ = flagship
        from petrocheck.domains import gauge_of
        raw = gauge_of(prof, 3.0, 1)       # no envelope: no ddelta for power? has ddelta
        raw_no = raw.__class__(
            delta=raw.delta, beta=raw.beta, gamma=raw.gamma, t0=raw.t0,
            ddelta=None, monotone_flag=True,
        )
        with pytest.raises(DomainError):
            degenerate_family_member(3.0, 1, raw_no, C0)


class TestElementaryInequality:
    @given(p=st.floats(2.05, 12.0), s=st.floats(1e-6, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_strict_positivity(self, p, s):
        alpha = (p - 1.0) / (p - 2.0)
        assert alpha > 1.0
        assert elementary_inequality_margin(alpha, s) > 0.0

    def test_log_grid_sweep(self):
        s = np.logspace(-6, 1, 200)
        for p in (2.5, 3.0, 4.0, 7.0):
            alpha = (p - 1.0) / (p - 2.0)
            assert float(np.min(elementary_inequality_margin(alpha, s))) > 0.0


class TestBarrierSpec:
    def test_constants_reproduce_formulas(self):
        spec = make_barrier("singular_traditional", p=1.5, n=2, q=0.25)
        assert spec.constants["B"] == pytest.approx(b_const(1.5, 2), rel=1e-12)
        assert spec.constants["M"] == pytest.approx(m_const(1.5, 0.25, 2), rel=1e-12)
        spec2 = make_barrier("degenerate_small_data", p=3.0, n=2, q=1.0 / 3.0, beta=0.5)
        assert spec2.constants["A"] == pytest.approx(small_data_amplitude(3.0, 2, 0.5),
                                                     rel=1e-12)

    def test_json_serialization(self):
        spec = make_barrier("degenerate_irregularity", p=3.0, n=2, C=0.01)
        blob = spec.to_json_dict(grid_hash="abc123")
        parsed = json.loads(json.dumps(blob))
        assert parsed["kind"] == "degenerate_irregularity"
        assert parsed["verification_grid_hash"] == "abc123"

    def test_derivative_consistency_all_kinds(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        gauge = envelope_gauge(prof, 3.0, 1)
        C0, _ = find_family_threshold(3.0, 1, gauge)
        kinds = [
            make_barrier("singular_irregularity", p=1.5, n=2, q=0.25),
            make_barrier("singular_traditional", p=1.5, n=2, q=0.25),
            make_barrier("degenerate_irregularity", p=3.0, n=2, C=0.01),
            make_barrier("degenerate_small_data", p=3.0, n=2, q=1.0 / 3.0, beta=0.5),
            make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, C=C0, gauge=gauge),
        ]
        pts = [(0.05, -0.8), (0.02, -0.3), (0.01, -0.05)]
        fields = [(spec.kind, spec.fn, pts) for spec in kinds]
        # the smallness bound, on both sides of its clamp at -t = 0.397
        fields.append(("small_data_bound_g", small_data_bound_g(1.5, 0.25, 2), pts))
        for p, n in [(3.0, 2), (1.9, 2)]:
            rs = min(barenblatt_support_radius(1.0, p, n, 1.0), 3.0)
            fields.append((f"barenblatt(p={p})", barenblatt_function(p, n, 1.0),
                           [(0.1 * rs, 1.0), (0.5 * rs, 1.3), (0.8 * rs, 0.7)]))
        for name, u, points in fields:
            err = check_derivatives(u, points)
            assert err <= 1e-6, (name, err)

    def test_check_derivatives_sees_a_wrong_drr(self):
        u = make_barrier("degenerate_irregularity", p=3.0, n=2, C=0.01).fn
        wrong = SpaceTimeFunction(fn=u.fn, dt=u.dt, dr=u.dr,
                                  drr=lambda r, t: 1.01 * np.asarray(u.drr(r, t)))
        assert check_derivatives(wrong, [(0.5, -0.8)]) > 1e-4

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            make_barrier("nonsense", p=3.0, n=2)
