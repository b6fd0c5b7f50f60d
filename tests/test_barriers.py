import json
import math
from dataclasses import replace

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
from petrocheck.domains import Gauge, envelope_gauge, gauge_of, geometric_times, make_profile
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

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_small_data_amplitude_needs_positive_beta(self, beta):
        with pytest.raises(DomainError, match="beta > 0"):
            small_data_amplitude(3.0, 2, beta)


class TestSingularIrregularity:
    def test_axis_value(self):
        u = singular_irregularity_barrier(1.5, 0.25, 2)
        assert float(u(0.0, -1.0)) == pytest.approx(-3.2 * math.sqrt(3.0))
        # the tip datum is a declared constant, the limit of the lateral datum
        spec = make_barrier("singular_irregularity", p=1.5, n=2, q=0.25)
        assert spec.constants["tip_value"] == 1.0
        ts = np.array([-1e-2, -1e-4, -1e-8])
        lateral = np.asarray(singular_irregularity_barrier(1.5, 0.25, 1)((-ts) ** 0.25, ts))
        assert np.all(np.diff(lateral) > 0) and np.all(lateral < 1.0)
        np.testing.assert_allclose(lateral, [0.844, 0.991, 1.000], rtol=0, atol=5e-4)

    def test_tip_value_is_the_lateral_limit_on_any_cusp(self):
        # u(K(-t)^q, t) = K^(p/(p-1)) - c2 (-t)^(1-pq) on the cusp |x| < K(-t)^q
        p, q, K = 1.7, 0.4, 2.0
        spec = make_barrier("singular_irregularity", p=p, n=1, q=q, K=K)
        assert spec.constants["tip_value"] == 2.0 ** (1.7 / 0.7)
        t = -1e-8
        lateral = float(spec.fn(K * (-t) ** q, t))
        assert abs(lateral - spec.constants["tip_value"]) < 0.02

    def test_tip_value_that_overflows_is_a_precondition_error(self):
        with pytest.raises(DomainError, match="tip datum"):
            make_barrier("singular_irregularity", p=1.5, n=1, q=0.25, K=1e200)

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
        assert float(u(0.0, -0.5)) == 0.0

    def test_beta_guard(self):
        with pytest.raises(DomainError) as err:
            degenerate_small_data_barrier(3.0, 1.0 / 3.0, 2, 1.0)
        assert "discontinuous" in str(err.value)

    def test_q_above_one_over_p_rejected(self):
        with pytest.raises(DomainError, match="q <= 1/p"):
            degenerate_small_data_barrier(3.0, 0.4, 2, 0.5)

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


BUILDERS = {
    "b_const": lambda n, g: b_const(1.5, n),
    "m_const": lambda n, g: m_const(1.5, 0.25, n),
    "small_data_bound_g": lambda n, g: small_data_bound_g(1.5, 0.25, n),
    "singular_irregularity": lambda n, g: singular_irregularity_barrier(1.5, 0.25, n),
    "singular_traditional": lambda n, g: singular_traditional_barrier(1.5, 0.25, n),
    "c_max": lambda n, g: c_max(3.0, n),
    "small_data_amplitude": lambda n, g: small_data_amplitude(3.0, n, 0.5),
    "degenerate_irregularity": lambda n, g: degenerate_irregularity_barrier(3.0, n, 0.01),
    "degenerate_small_data": lambda n, g: degenerate_small_data_barrier(3.0, 0.3, n, 0.5),
    "degenerate_family_member": lambda n, g: degenerate_family_member(3.0, n, g, 4.0),
    "find_family_threshold": lambda n, g: find_family_threshold(3.0, n, g),
}


@pytest.mark.parametrize("n", [2.5, 0])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_dimension_must_be_a_positive_integer(flagship, name, n):
    _, gauge, _, _ = flagship
    with pytest.raises(DomainError, match="n must be a positive integer"):
        BUILDERS[name](n, gauge)


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
            delta=raw.delta, beta=raw.beta, t0=raw.t0,
            ddelta=None, monotone_flag=True, t_samples=raw.t_samples,
        )
        with pytest.raises(DomainError):
            degenerate_family_member(3.0, 1, raw_no, C0)

    def test_threshold_needs_a_gauge_derivative(self, flagship):
        raw = gauge_of(flagship[0], 3.0, 1)
        no_derivative = Gauge(delta=raw.delta, beta=raw.beta, t0=raw.t0,
                              ddelta=None, monotone_flag=True, t_samples=raw.t_samples)
        with pytest.raises(DomainError, match="derivative"):
            find_family_threshold(3.0, 1, no_derivative)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_nonpositive_C_rejected(self, flagship, C):
        with pytest.raises(DomainError, match="C > 0"):
            degenerate_family_member(3.0, 1, flagship[1], C)

    def test_non_monotone_gauge_rejected(self):
        # q = 0.6 > 1/lam + beta (p-1)/p: the weighted raw gauge decreases
        raw = gauge_of(make_profile("power", K=1.0, q=0.6, t0=-1.0), 3.0, 1)
        assert raw.ddelta is not None and not raw.monotone_flag
        with pytest.raises(DomainError, match="weighted-monotone"):
            degenerate_family_member(3.0, 1, raw, 4.0)

    def test_no_admissible_C(self):
        # kap delta = 1e30 / (3 sqrt 4) exceeds every doubling C < 2^60, so
        # the sandwich condition (a) never holds
        ts = geometric_times(-1.0)
        huge = Gauge(delta=lambda t: np.full_like(np.asarray(t, dtype=float), 1e30),
                     beta=0.25, t0=-1.0,
                     ddelta=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                     monotone_flag=True, t_samples=ts)
        with pytest.raises(DomainError, match="no admissible C"):
            find_family_threshold(3.0, 1, huge)

    def test_no_admissible_C_before_the_powers_overflow(self):
        # at p = 2.01 the search reaches C = 512, where the residual term
        # (2C)^(1/(p-2)) delta / (lam^(p/(p-1)) (-t)) = 1.07e301 delta / (...)
        # exceeds every double at the gauge's latest sample, -t = 7.1e-10
        gauge = envelope_gauge(make_profile("power", K=1.0, q=0.6, t0=-1.0), 2.01, 1)
        with pytest.raises(DomainError, match="no admissible C found: the powers of C = 512.0"):
            find_family_threshold(2.01, 1, gauge)


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

    def test_reference_profile_is_the_given_cusp(self):
        spec = make_barrier("singular_irregularity", p=1.5, n=2, q=0.25, K=2.0, t0=-0.5)
        prof = spec.reference_profile()
        assert (prof.kind, prof.K, prof.q, prof.t0) == ("power", 2.0, 0.25, -0.5)
        assert spec.to_json_dict("h")["parameters"] == {
            "p": 1.5, "n": 2, "q": 0.25, "K": 2.0, "t0": -0.5}

    @pytest.mark.parametrize("kind, kwargs", [
        ("singular_traditional", dict(p=1.5, q=0.25)),
        ("degenerate_irregularity", dict(p=3.0, C=0.01)),
        ("degenerate_small_data", dict(p=3.0, q=0.3, beta=0.5)),
    ])
    def test_unit_cusp_kinds_reject_other_K(self, kind, kwargs):
        make_barrier(kind, n=1, K=1.0, **kwargs)
        with pytest.raises(DomainError, match="K = 1 cusp, got K=3.0"):
            make_barrier(kind, n=1, K=3.0, **kwargs)

    def test_family_member_honours_K(self, flagship):
        # K comes with the gauge's cusp; a K = 2 member on the K = 1 gauge
        # would certify one cusp and report another
        prof = make_profile("power", K=2.0, q=0.5, t0=-1.0)
        gauge = envelope_gauge(prof, 3.0, 1)
        C0, _ = find_family_threshold(3.0, 1, gauge)
        spec = make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, K=2.0,
                            C=C0, gauge=gauge)
        assert spec.reference_profile() is prof and prof.K == 2.0
        with pytest.raises(DomainError, match="gauge was built on the power cusp K=1.0"):
            make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, K=2.0,
                         C=C0, gauge=flagship[1])

    def test_family_member_on_loglog_cusp(self):
        # no power q is needed, and the member reports the cusp its gauge
        # came from
        prof = make_profile("petrovskii_loglog", K=1.0, t0=-0.3)
        gauge = envelope_gauge(prof, 3.0, 1)
        C0, _ = find_family_threshold(3.0, 1, gauge)
        spec = make_barrier("degenerate_family_member", p=3.0, n=1, C=C0, gauge=gauge)
        assert spec.reference_profile() is prof
        assert spec.to_json_dict("h")["parameters"] == {
            "p": 3.0, "n": 1, "q": None, "K": 1.0, "t0": -0.3}
        with pytest.raises(DomainError, match="petrovskii_loglog cusp"):
            make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, t0=-0.3,
                         C=C0, gauge=gauge)

    def test_family_member_needs_the_gauge_profile(self, flagship):
        bare = replace(flagship[1], profile=None)
        with pytest.raises(DomainError, match="profile it was built from"):
            make_barrier("degenerate_family_member", p=3.0, n=1, C=flagship[2], gauge=bare)

    @pytest.mark.parametrize("kind, kwargs, with_gauge, needs", [
        ("degenerate_irregularity", dict(), False, "needs C"),
        ("degenerate_small_data", dict(q=0.3), False, "needs beta"),
        ("degenerate_family_member", dict(q=0.5, C=4.0), False, "needs C and a gauge"),
        ("degenerate_family_member", dict(q=0.5), True, "needs C and a gauge"),
    ])
    def test_missing_construction_input_rejected(self, flagship, kind, kwargs, with_gauge,
                                                 needs):
        gauge = flagship[1] if with_gauge else None
        with pytest.raises(DomainError, match=needs):
            make_barrier(kind, p=3.0, n=1, gauge=gauge, **kwargs)

    @pytest.mark.parametrize("kind", ["singular_irregularity", "degenerate_family_member"])
    def test_zero_K_rejected(self, flagship, kind):
        _, gauge, C0, _ = flagship
        with pytest.raises(DomainError, match="K must be positive"):
            make_barrier(kind, p=1.5 if kind.startswith("singular") else 3.0, n=1,
                         q=0.25, K=0.0, C=C0, gauge=gauge)
