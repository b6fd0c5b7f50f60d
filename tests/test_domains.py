import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petrocheck.domains import (
    envelope_gauge,
    gauge_of,
    geometric_times,
    make_profile,
    monotone_smooth_envelope,
    profile_from_csv,
    profile_from_samples,
    running_sup,
    scale_domain,
)
from petrocheck.errors import DomainError


class TestProfiles:
    def test_power_width(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        assert float(prof.zeta(-0.25)) == pytest.approx(0.5)

    def test_membership(self):
        prof = make_profile("power", K=2.0, q=1.0 / 3.0, t0=-1.0)
        assert prof.contains(0.9, -0.125)          # zeta = 2 * 0.5 = 1 > 0.9
        assert not prof.contains(1.1, -0.125)
        assert not prof.contains(0.0, 0.0)          # t = 0 excluded
        assert not prof.contains(0.1, -1.0)         # t = t0 excluded

    def test_loglog_domain_guard(self):
        with pytest.raises(DomainError):
            make_profile("petrovskii_loglog", K=1.0, t0=-1.0)
        with pytest.raises(DomainError):
            make_profile("petrovskii_loglog", K=1.0, t0=-1.0 / math.e)
        prof = make_profile("petrovskii_loglog", K=2.0, t0=-0.2)
        # at -t = e^-e the double log equals 1 exactly
        t = -math.exp(-math.e)
        assert float(prof.zeta(t)) == pytest.approx(2.0 * math.sqrt(-t))
        assert np.all(prof.zeta(geometric_times(-0.2)) > 0)

    def test_loglog_width_derivative(self):
        prof = make_profile("petrovskii_loglog", K=1.0, t0=-0.2)
        for t in (-0.1, -0.01, -1e-4):
            h = 1e-6 * abs(t)
            fd = (float(prof.zeta(t + h)) - float(prof.zeta(t - h))) / (2 * h)
            assert float(prof.dzeta(t)) == pytest.approx(fd, rel=1e-5)

    def test_tabulated_roundtrip(self, tmp_path):
        t = -np.logspace(0, -3, 40)
        z = 0.7 * (-t) ** 0.4
        path = tmp_path / "profile.csv"
        with open(path, "w") as fh:
            fh.write("t,zeta\n")
            for ti, zi in zip(t, z):
                fh.write(f"{ti},{zi}\n")
        prof = profile_from_csv(path)
        assert prof.kind == "tabulated"
        mid = -0.0317
        assert float(prof.zeta(mid)) == pytest.approx(0.7 * 0.0317 ** 0.4, rel=1e-3)

    def test_tabulated_guards(self):
        with pytest.raises(DomainError):
            profile_from_samples(np.array([-1.0, -0.5]), np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            profile_from_samples(np.array([-0.5, -1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("t, z", [
        ([-1.0, -0.5], [1.0, 1.0, 1.0]), ([-1.0], [1.0]), ([[-1.0, -0.5]], [[1.0, 1.0]])])
    def test_mismatched_samples_rejected(self, t, z):
        with pytest.raises(DomainError, match="matching 1-d arrays"):
            profile_from_samples(np.array(t), np.array(z))

    @pytest.mark.parametrize("t0", [0.0, 0.5])
    @pytest.mark.parametrize("build", [geometric_times,
                                       lambda t0: make_profile("power", K=1.0, q=0.5, t0=t0)])
    def test_nonnegative_t0_rejected(self, build, t0):
        with pytest.raises(DomainError, match="t0 must be negative"):
            build(t0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown profile kind"):
            make_profile("parabolic", K=1.0, q=0.5)

    def test_missing_K_rejected(self):
        with pytest.raises(DomainError, match="K must be positive, got None"):
            make_profile("power", K=None, q=0.5)

    @given(K=st.floats(0.1, 10.0), q=st.floats(0.05, 2.0), t0=st.floats(-10.0, -0.01),
           name=st.sampled_from(["K", "q", "t0"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_power_profile_rejects_non_finite_input(self, K, q, t0, name, bad):
        args = {"K": K, "q": q, "t0": t0}
        assert np.isfinite(make_profile("power", **args).zeta(t0 / 2.0))
        args[name] = bad
        with pytest.raises(DomainError, match="must be finite"):
            make_profile("power", **args)

    @given(m=st.integers(2, 40), data=st.data(),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_samples_reject_non_finite_values(self, m, data, bad):
        t = -np.logspace(0.0, -3.0, m)
        z = 0.7 * (-t) ** 0.4
        profile_from_samples(t, z)
        which = data.draw(st.sampled_from(["t", "z"]))
        i = data.draw(st.integers(0, m - 1))
        (t if which == "t" else z)[i] = bad
        with pytest.raises(DomainError, match="samples must be finite"):
            profile_from_samples(t, z)

    def test_csv_nan_sample_is_domain_error(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("t,zeta\n-1.0,1.0\n-0.5,nan\n-0.1,0.3\n")
        with pytest.raises(DomainError, match="samples must be finite"):
            profile_from_csv(path)

    @pytest.mark.parametrize("bad_row", ["-0.5,abc", "-0.5"])
    def test_csv_bad_row_is_domain_error_naming_the_line(self, tmp_path, bad_row):
        path = tmp_path / "profile.csv"
        path.write_text(f"t,zeta\n-1.0,1.0\n{bad_row}\n-0.1,0.3\n")
        with pytest.raises(DomainError, match="line 3"):
            profile_from_csv(path)


class TestGauge:
    def test_constant_gauge_when_exponents_cancel(self):
        # q = 1/lambda makes delta identically K^(p/(p-1))
        p, n = 3.0, 2
        prof = make_profile("power", K=1.0, q=0.2, t0=-1.0)  # 1/lambda = 1/5
        g = gauge_of(prof, p, n)
        ts = np.array([-0.9, -0.5, -0.01])
        assert np.allclose(g.delta(ts), 1.0)

    def test_value_at_minus_one(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.5)
        g = gauge_of(prof, 3.0, 2)
        assert float(g.delta(-1.0)) == pytest.approx(1.0)

    def test_gamma_limit_tracks_regularity_threshold(self):
        # (-t)^(-gamma) delta = ((-t)^(-1/p) zeta)^(p/(p-1)) exactly
        p, n = 3.0, 1
        for q, vanish in [(0.6, True), (0.5, True), (1.0 / 3.0, False), (0.2, False)]:
            prof = make_profile("power", K=1.0, q=q, t0=-1.0)
            g = gauge_of(prof, p, n)
            assert g.vanishes is vanish, (q, g.vanishes)
            ts = g.t_samples
            lhs = (-ts) ** (-g.gamma) * g.delta(ts)
            rhs = ((-ts) ** (-1.0 / p) * prof.zeta(ts)) ** (p / (p - 1.0))
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_dyadic_sequence_decreases_for_regular_exponents(self):
        p, n = 3.0, 1
        prof = make_profile("power", K=1.0, q=0.6, t0=-1.0)
        g = gauge_of(prof, p, n)
        tk = -2.0 ** -np.arange(1, 30)
        vals = (-tk) ** (-g.gamma) * np.asarray(g.delta(tk))
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-2 * vals[0]

    def test_lambda_guard(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        with pytest.raises(DomainError):
            gauge_of(prof, 1.2, 2)  # lambda = -0.4


class TestRunningSup:
    def test_examples(self):
        assert list(running_sup([3, 1, 2])) == [3, 3, 3]
        assert list(running_sup([1, 4, 2, 5])) == [1, 4, 4, 5]

    def test_monotone_input_unchanged(self):
        x = np.array([0.1, 0.4, 0.4, 2.0])
        assert np.array_equal(running_sup(x), x)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            running_sup([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_dominating_monotone(self, xs):
        h = running_sup(xs)
        assert np.array_equal(running_sup(h), h)       # idempotence, exact
        assert np.all(h >= np.asarray(xs))             # domination
        assert np.all(np.diff(h) >= 0)                 # monotone


class TestEnvelope:
    def test_power_gauge_gives_scaled_copy(self):
        prof = make_profile("power", K=1.0, q=0.3, t0=-1.0)   # e < beta: monotone
        p, n = 3.0, 2
        raw = gauge_of(prof, p, n)
        assert raw.monotone_flag
        env = envelope_gauge(prof, p, n)
        ts = raw.t_samples
        assert np.allclose(env.delta(ts), 1.5 * np.asarray(raw.delta(ts)), rtol=1e-12)
        w = env.weighted(ts)
        assert env.monotone_flag
        assert np.all(np.diff(w) >= -1e-12 * np.maximum(1.0, w[:-1]))

    def test_staircase_strict_sandwich(self):
        ts = -np.logspace(0, -4, 120)[1:]
        beta = 0.4
        stair = (-ts) ** beta * (1.0 + np.floor(np.linspace(0, 5, ts.size)))
        tilde = running_sup((-ts) ** (-beta) * stair)
        dtil = (-ts) ** beta * tilde
        env = monotone_smooth_envelope(ts, dtil, beta)
        dhat = np.asarray(env.delta(ts))
        assert np.all(dhat > dtil)
        assert np.all(dhat < 2.0 * dtil)
        w = (-ts) ** (-beta) * dhat
        assert np.all(np.diff(w) >= -1e-12 * np.maximum(1.0, w[:-1]))

    def test_envelope_derivative_consistency(self):
        ts = -np.logspace(0, -3, 80)[1:]
        beta = 0.3
        delta = (-ts) ** beta * (2.0 + np.sin(np.log(-ts)) ** 2)
        tilde = (-ts) ** beta * running_sup((-ts) ** (-beta) * delta)
        env = monotone_smooth_envelope(ts, tilde, beta)
        for t in (-0.5, -0.05, -0.005):
            h = 1e-6 * abs(t)
            fd = (float(env.delta(t + h)) - float(env.delta(t - h))) / (2 * h)
            assert float(env.ddelta(t)) == pytest.approx(fd, rel=1e-4)

    def test_perturbed_power_profile_envelope(self):
        # a tabulated width takes the sampled branch; the wiggle leaves the
        # weighted gauge nonmonotone, so the running sup has plateaus
        t = -np.logspace(0, -6, 400)
        prof = profile_from_samples(t, (-t) ** 0.3 * (1.0 + 0.05 * np.sin(3.0 * np.log(-t))))
        p, n = 3.0, 1
        env = envelope_gauge(prof, p, n)
        ts = env.t_samples
        tilde = (-ts) ** env.beta * running_sup(gauge_of(prof, p, n).weighted(ts))
        dhat = np.asarray(env.delta(ts))
        assert np.all(tilde < dhat) and np.all(dhat < 2.0 * tilde)
        w = env.weighted(ts)
        assert np.all(np.diff(w) >= -1e-12 * np.maximum(1.0, w[:-1]))
        assert env.monotone_flag
        # central differences between samples, where the envelope is one cubic
        for tm in -np.sqrt(ts[:-1] * ts[1:])[::10]:
            h = 1e-6 * abs(tm)
            fd = (float(env.delta(tm + h)) - float(env.delta(tm - h))) / (2 * h)
            assert float(env.ddelta(tm)) == pytest.approx(fd, rel=1e-6)
        assert env.theta == np.min(w[ts > prof.t0 / 2.0])

    def test_theta_falls_back_to_all_samples(self):
        # no sample lies in t0/2 < t < 0, so theta is the minimum over all of them
        ts = np.array([-1.0, -0.9, -0.8])
        env = monotone_smooth_envelope(ts, (-ts) ** 0.3, 0.3)
        assert env.theta == np.min(env.weighted(ts))
        assert env.vanishes is None           # the envelope alone has no gamma

    def test_nonmonotone_input_rejected(self):
        ts = -np.logspace(0, -2, 30)[1:]
        bad = (-ts) ** 0.9                 # weighted form decreasing for beta=0.2
        with pytest.raises(DomainError):
            monotone_smooth_envelope(ts, bad, 0.2)

    @pytest.mark.parametrize("ts, dt, message", [
        ([-1.0], [1.0], "matching sample arrays"),
        ([-1.0, -0.5], [1.0, 1.0, 1.0], "matching sample arrays"),
        ([-0.5, -1.0], [1.0, 1.0], "strictly increasing and negative"),
        ([-1.0, 0.0], [1.0, 1.0], "strictly increasing and negative"),
        ([-1.0, -0.5], [1.0, 0.0], "gauge samples must be positive"),
        # adjacent times one ulp apart near -e^10 have equal logarithms
        ([-math.exp(10), np.nextafter(-math.exp(10), 0), -1.0], [1.0, 1.0, 1.0],
         "duplicate sample times"),
    ])
    def test_malformed_samples_rejected(self, ts, dt, message):
        with pytest.raises(DomainError, match=message):
            monotone_smooth_envelope(np.array(ts), np.array(dt), 0.0)

    def test_weighted_monotonicity_invariant(self):
        # for every sampled pair t1 < t2 the weighted envelope is ordered
        prof = make_profile("power", K=2.0, q=0.5, t0=-1.0)
        env = envelope_gauge(prof, 3.0, 1)
        w = env.weighted(env.t_samples)
        assert np.all(w[:-1] <= w[1:] + 1e-12)


class TestScaleDomain:
    def test_identity(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        scaled, factor = scale_domain(prof, 1.0, 3.0)
        assert factor == 1.0
        assert float(scaled.zeta(-0.3)) == pytest.approx(float(prof.zeta(-0.3)))

    def test_amplitude_factors(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        _, f3 = scale_domain(prof, 2.0, 3.0)
        _, f4 = scale_domain(prof, 2.0, 4.0)
        assert f3 == pytest.approx(0.125)
        assert f4 == pytest.approx(0.25)

    def test_roundtrip(self):
        prof = make_profile("power", K=1.3, q=0.4, t0=-0.7)
        up, f1 = scale_domain(prof, 2.7, 3.5)
        back, f2 = scale_domain(up, 1.0 / 2.7, 3.5)
        t = -0.2
        assert float(back.zeta(t)) == pytest.approx(float(prof.zeta(t)), rel=1e-12)
        assert f1 * f2 == pytest.approx(1.0, rel=1e-12)

    def test_tabulated_profile_scales_width_and_derivative(self):
        t = -np.logspace(0, -3, 40)
        prof = profile_from_samples(t, 0.7 * (-t) ** 0.4)
        scaled, factor = scale_domain(prof, 2.0, 3.0)
        ts = np.array([-0.9, -0.1, -0.005])
        assert scaled.kind == "tabulated"
        assert np.allclose(scaled.zeta(ts), 2.0 * prof.zeta(ts), rtol=1e-15)
        assert np.allclose(scaled.dzeta(ts), 2.0 * prof.dzeta(ts), rtol=1e-15)
        assert factor == pytest.approx(2.0 ** -3.0)

    def test_p2_unsupported(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        with pytest.raises(DomainError):
            scale_domain(prof, 2.0, 2.0)

    @pytest.mark.parametrize("a, p, message", [
        (2.0, 1.0, "p must exceed 1"), (2.0, 0.5, "p must exceed 1"),
        (0.0, 3.0, "scale must be positive"), (-1.0, 3.0, "scale must be positive")])
    def test_bad_exponent_or_scale_rejected(self, a, p, message):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        with pytest.raises(DomainError, match=message):
            scale_domain(prof, a, p)
