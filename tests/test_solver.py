import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petrocheck.calculus import barenblatt_function
from petrocheck.domains import DomainProfile, make_profile, profile_from_samples
from petrocheck.errors import DomainError, SolverError
from petrocheck import solver as solver_mod
from petrocheck.solver import (
    SolverConfig,
    _Stepper,
    _UNCAPPED_C_STEP,
    _default_ladder,
    classify,
    default_probe,
    probe_origin,
    solve_dirichlet,
    time_grid,
)


@pytest.fixture(scope="module")
def power_profile():
    return make_profile("power", K=1.0, q=0.5, t0=-1.0)


class TestTransform:
    """The fixed-cylinder equation the stepper solves, checked through the
    solver against an exact solution."""

    # Of the singular range only (1.7, 1) is here.  Left out: (1.6, 1),
    # where Newton stalls at n_y = 129 (step 103, scaled |G| = 1.023e-11),
    # and (1.7, 2) and (1.8, 2), which converge at order 0.92 but whose
    # finest errors (5.1e-3, 3.8e-3) miss the 2e-3 gate.  Each cell runs
    # with the SolverConfig stiffness cap and without it, as the probe
    # ladder does.
    @pytest.mark.parametrize("p, n, c_step", [
        pytest.param(p, n, c_step, id=f"{p}-{n}{suffix}")
        for c_step, suffix in ((SolverConfig.c_step, ""), (_UNCAPPED_C_STEP, "-uncapped"))
        for p, n in [(3.0, 1), (3.0, 2), (2.5, 2), (1.7, 1)]
    ])
    def test_source_solution_converges_at_first_order(self, power_profile, p, n, c_step):
        # the time-shifted source solution B(r, t + 2) as data; the max error
        # over the whole field, relative to the largest value, halves with
        # each doubling of (n_y, n_t)
        B = barenblatt_function(p, n, 1.0)
        f = lambda r, t: B.fn(np.asarray(r, dtype=float), np.asarray(t, dtype=float) + 2.0)
        errors = []
        for n_y, n_t in [(33, 50), (65, 100), (129, 200)]:
            fld = solve_dirichlet(power_profile, p, n, f,
                                  SolverConfig(n_y=n_y, n_t=n_t, eps_min=1e-3, c_step=c_step))
            r = fld.y_nodes[None, :] * power_profile.zeta(fld.t_nodes)[:, None]
            exact = f(r, fld.t_nodes[:, None])
            errors.append(np.max(np.abs(fld.values - exact)) / np.max(np.abs(exact)))
        orders = np.log2(np.asarray(errors[:-1]) / errors[1:])
        assert orders[-1] >= 0.9
        assert errors[-1] <= 2e-3

    def test_missing_derivative_rejected(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        bare = prof.__class__(kind="tabulated", t0=-1.0, zeta=prof.zeta, dzeta=None)
        with pytest.raises(DomainError, match="no usable width derivative"):
            solve_dirichlet(bare, 3.0, 1, default_probe, SolverConfig(n_y=17, n_t=20))


class TestTimeGrid:
    def test_monotone_and_capped(self, power_profile):
        cfg = SolverConfig(n_t=100, eps_min=1e-3, c_step=0.5)
        ts = time_grid(power_profile, 3.0, cfg)
        assert ts[0] == -1.0 and ts[-1] == -1e-3
        dt = np.diff(ts)
        assert np.all(dt > 0)
        caps = 0.5 * np.asarray(power_profile.zeta(ts[1:])) ** 3.0
        assert np.all(dt <= caps * (1 + 1e-12))

    def test_eps_min_guard(self, power_profile):
        with pytest.raises(DomainError):
            time_grid(power_profile, 3.0, SolverConfig(eps_min=2.0))

    def test_overflowing_cap_keeps_every_interval(self):
        # c_step * zeta^p overflows to inf; each log-uniform interval still
        # takes its one step, with no division by zero
        wide = make_profile("power", K=10.0, q=0.5, t0=-1.0)
        cfg = SolverConfig(n_t=20, c_step=1e308)
        ts = time_grid(wide, 3.0, cfg)
        base = -np.logspace(0.0, np.log10(cfg.resolved_eps_min(-1.0)), 21)
        assert ts.size == 21
        np.testing.assert_array_equal(ts[:-1], base[:-1])

    def test_max_steps_guard(self, power_profile):
        # the first interval alone needs about 1e11 steps, so the guard
        # raises there, from the counts alone, before any grid is built
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match="max_steps") as err:
                time_grid(power_profile, 3.0, SolverConfig(c_step=1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert err.value.t == -np.logspace(0.0, -4.0, 401)[1]

    @pytest.mark.parametrize("max_steps", [400, 661, 662])
    def test_max_steps_guard_as_interval_by_interval(self, power_profile, monkeypatch,
                                                     max_steps):
        # 662 points under the cap: a guard of 400 trips mid-grid, one of
        # 661 at the last interval, and 662 lets the grid through
        monkeypatch.setattr(solver_mod, "_MAX_STEPS", max_steps)
        assert_same_grid(power_profile, 3.0, SolverConfig())

    @pytest.mark.parametrize("width", [np.nan, 0.0])
    def test_zero_or_nan_width_trips_the_guard(self, power_profile, width):
        t_bad = -np.logspace(0.0, -4.0, 401)[7]
        prof = DomainProfile(kind="tabulated", t0=-1.0, dzeta=power_profile.dzeta,
                             zeta=lambda t: np.where(t == t_bad, width, power_profile.zeta(t)))
        err = assert_same_grid(prof, 3.0, SolverConfig())
        assert err.t == t_bad

    @pytest.mark.parametrize("K, c_step, grid", [
        pytest.param(1.0, SolverConfig.c_step, dict(n_y=65, n_t=200, eps_min=1e-3),
                     id="criterion-8"),
        pytest.param(1.0, 0.01, dict(n_t=50, eps_min=1e-3), id="fine-cap"),
        *(pytest.param(1.0, rung["c_step"], rung, id=f"rung-{i + 1}")
          for i, rung in enumerate(_default_ladder(-1.0))),
        pytest.param(10.0, 1e308, dict(n_t=20), id="overflowing-cap"),
    ])
    def test_equals_the_per_interval_grid(self, K, c_step, grid):
        prof = make_profile("power", K=K, q=0.5, t0=-1.0)
        cfg = SolverConfig(**{**grid, "c_step": c_step})
        assert assert_same_grid(prof, 3.0, cfg) is None


def reference_time_grid(profile, p, cfg):
    """time_grid built interval by interval, each step count from the scalar
    width at the interval's right end."""
    eps = cfg.resolved_eps_min(profile.t0)
    base = -np.logspace(math.log10(abs(profile.t0)), math.log10(eps), cfg.n_t + 1)
    out = [base[0]]
    for a, b in zip(base[:-1], base[1:]):
        cap = cfg.c_step * float(profile.zeta(b)) ** p
        m = max(1, math.ceil((b - a) / cap)) if cap > 0 else solver_mod._MAX_STEPS
        if len(out) + m > solver_mod._MAX_STEPS:
            raise SolverError(f"time grid exceeds max_steps={solver_mod._MAX_STEPS}; "
                              f"raise c_step or eps_min", t=b)
        out.extend(a + (b - a) / m * np.arange(1, m + 1))
    grid = np.array(out)
    grid[-1] = -eps
    return grid


def assert_same_grid(profile, p, cfg):
    """time_grid and reference_time_grid build the same grid or raise the
    same SolverError; returns the error or None."""
    try:
        ref = reference_time_grid(profile, p, cfg)
    except SolverError as err:
        with pytest.raises(SolverError) as got:
            time_grid(profile, p, cfg)
        assert (str(got.value), got.value.t) == (str(err), err.t)
        return got.value
    np.testing.assert_array_equal(time_grid(profile, p, cfg), ref)
    return None


class TestSolveDirichlet:
    @pytest.mark.parametrize("p, n", [(0.9, 1), (3.0, 0)])
    def test_bad_p_or_n_rejected_before_any_step(self, power_profile, p, n):
        calls = []

        def f(r, t):
            calls.append(t)
            return 0.5 + 0.0 * np.asarray(r, dtype=float)

        with pytest.raises(DomainError):
            solve_dirichlet(power_profile, p, n, f, SolverConfig(n_y=17, n_t=20))
        assert calls == []

    @pytest.mark.parametrize("setting", [
        dict(n_y=2), dict(n_t=0), dict(n_t=-5), dict(eps_reg=0.0), dict(eps_reg=-1e-8),
        dict(eps_reg=np.nan), dict(c_step=0.0), dict(c_step=-1.0), dict(c_step=np.inf),
        dict(eps_min=0.0), dict(eps_min=-1e-3), dict(eps_min=np.nan),
        dict(n_y=65.0), dict(n_t=200.5),
    ])
    def test_config_rejects_bad_settings(self, setting):
        with pytest.raises(DomainError, match=next(iter(setting))):
            SolverConfig(**setting)

    def test_constants_are_exact(self, power_profile):
        cfg = SolverConfig(n_y=33, n_t=50, eps_min=1e-2)
        f = lambda r, t: 0.7 + 0.0 * np.asarray(r, dtype=float)
        fld = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        assert float(np.max(np.abs(fld.values - 0.7))) <= 1e-11

    def test_max_principle(self, power_profile):
        cfg = SolverConfig(n_y=49, n_t=80, eps_min=1e-2)
        fld = solve_dirichlet(power_profile, 3.0, 1, default_probe, cfg)
        ok = fld.check_max_principle()
        assert ok
        assert fld.y_nodes[0] == 0.0 and fld.y_nodes[-1] == 1.0

    def test_comparison_ordering(self, power_profile):
        cfg = SolverConfig(n_y=49, n_t=80, eps_min=1e-2)
        f1 = lambda r, t: np.sin(3 * np.asarray(r, dtype=float)) ** 2 * 0.5
        f2 = lambda r, t: np.asarray(f1(r, t)) + 0.25 * np.cos(np.asarray(t)) ** 2
        u1 = solve_dirichlet(power_profile, 3.0, 1, f1, cfg)
        u2 = solve_dirichlet(power_profile, 3.0, 1, f2, cfg)
        assert float(np.max(u1.values - u2.values)) <= 1e-10

    def test_singular_exponent_runs(self):
        prof = make_profile("power", K=1.0, q=0.25, t0=-1.0)
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=1e-2)
        fld = solve_dirichlet(prof, 1.5, 2, default_probe, cfg)
        assert np.all(np.isfinite(fld.values))

    def test_grid_convergence_in_space(self, power_profile):
        # successive dyadic refinements move the endpoint by a shrinking
        # amount; against a Richardson reference the observed order climbs
        # toward the scheme's asymptotic first order (the upwind advection
        # term is the order-limiting piece; it buys the discrete comparison
        # principle)
        f = lambda r, t: np.asarray(r, dtype=float) ** 2 + 0.1
        ends = []
        for ny in (17, 33, 65, 129):
            cfg = SolverConfig(n_y=ny, n_t=600, eps_min=1e-2)
            fld = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
            ends.append(float(fld.values[-1, 0]))
        diffs = np.abs(np.diff(ends))
        assert np.all(np.diff(diffs) < 0)
        ref = ends[-1] + (ends[-1] - ends[-2])
        err = np.abs(np.asarray(ends[:-1]) - ref)
        orders = np.log2(err[:-1] / err[1:])
        assert np.all(np.diff(orders) > 0)      # rising toward 1
        assert orders[-1] >= 0.85

    def test_regularization_insensitivity(self, power_profile):
        # results move far less than 1e-4 when eps_reg varies by 10x
        ends = []
        for eps_reg in (1e-8, 1e-7):
            cfg = SolverConfig(n_y=65, n_t=400, eps_min=1e-3, eps_reg=eps_reg)
            fld = solve_dirichlet(power_profile, 3.0, 1, default_probe, cfg)
            ends.append(float(fld.values[-1, 0]))
        assert abs(ends[1] - ends[0]) < 1e-4

    def test_tabulated_profile_solves(self):
        t = -np.logspace(0, -2.5, 60)
        prof = profile_from_samples(t, (-t) ** 0.5)
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=5e-3)
        fld = solve_dirichlet(prof, 3.0, 1, default_probe, cfg)
        ok = fld.check_max_principle()
        assert ok

    def test_loglog_profile_solves(self):
        # the double-log width is non-monotone near t0, flipping the advection
        # sign; the sign-aware upwinding must keep the scheme monotone
        prof = make_profile("petrovskii_loglog", K=1.0, t0=-0.3)
        cfg = SolverConfig(n_y=33, n_t=80, eps_min=3e-4)
        fld = solve_dirichlet(prof, 2.5, 2, default_probe, cfg)
        ok = fld.check_max_principle()
        assert ok

    def test_csv_export(self, power_profile, tmp_path):
        cfg = SolverConfig(n_y=9, n_t=10, eps_min=0.1)
        f = lambda r, t: 0.5 + 0.0 * np.asarray(r, dtype=float)
        fld = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        path = tmp_path / "field.csv"
        fld.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y,r,u"
        assert len(lines) == 1 + fld.t_nodes.size * fld.y_nodes.size


def smooth_data(r, t):
    return 0.3 + 0.4 * np.sin(2.0 * np.asarray(r, dtype=float) + 0.5) + 0.2 * np.asarray(t)


def assert_one_assembly_per_iterate(stats):
    assert stats["assemblies"] == (stats["steps"] - stats["settled_steps"]
                                   + stats["newton_iterations"] + stats["backtracks"])


def reference_march(profile, p, n, f, cfg, secant=True, per_level=False):
    """solve_dirichlet's field with Newton (`_Stepper.step`) at every level,
    started at the secant extrapolation of the last two levels or, with
    secant=False, at the previous level; and the stepper's stats.  zeta,
    zeta' and the lateral datum are read as the march reads them, one array
    call each over the time grid, or with per_level=True by one scalar call
    per level."""
    ts = time_grid(profile, p, cfg)
    st = _Stepper(p, n, cfg)
    if per_level:
        zs = [float(profile.zeta(t)) for t in ts]
        dzs = [float(profile.dzeta(t)) for t in ts]
        bcs = [float(f(z, t)) for z, t in zip(zs[1:], ts[1:])]
    else:
        zs = np.asarray(profile.zeta(ts), dtype=float)
        dzs = np.asarray(profile.dzeta(ts), dtype=float).tolist()
        bcs = np.asarray(f(zs[1:], ts[1:]), dtype=float).tolist()
    rows = [np.asarray(f(st.y * zs[0], ts[0]), dtype=float)]
    for k in range(1, ts.size):
        t_new = float(ts[k])
        dt = t_new - float(ts[k - 1])
        v = rows[-1]
        start = v if k == 1 or not secant else v + (dt / dt_prev) * (v - rows[-2])
        rows.append(st.step(v, start, t_new, dt, float(zs[k]), dzs[k], bcs[k - 1], k))
        dt_prev = dt
    return np.array(rows), st.stats


# the criterion-8 solve: p = 3 on the q = 0.5 cusp with smooth_data
CRIT8_GRID = SolverConfig(n_y=65, n_t=200, eps_min=1e-3)


@pytest.fixture(scope="module")
def crit8_field(power_profile):
    return solve_dirichlet(power_profile, 3.0, 1, smooth_data, CRIT8_GRID)


class TestSolverStats:
    def test_newton_assembles_once_per_iterate(self, crit8_field):
        fld = crit8_field
        stats = fld.meta["stats"]
        assert stats["steps"] == fld.t_nodes.size - 1
        assert stats["newton_iterations"] > stats["steps"]
        assert 0.0 < stats["worst_residual"] <= solver_mod.RESIDUAL_TOL
        assert_one_assembly_per_iterate(stats)

    def test_extrapolated_start_cuts_newton_iterations(self, power_profile, crit8_field):
        # started at the secant extrapolation of the last two levels, Newton
        # takes about 3.1 iterations a step here; started at the previous
        # level it took 4.9.  Both fields meet the same residual test, so
        # they differ by far less than 1e-9 (3.2e-12 measured).
        stats = crit8_field.meta["stats"]
        assert stats["newton_iterations"] / stats["steps"] <= 3.5
        old, old_stats = reference_march(power_profile, 3.0, 1, smooth_data, CRIT8_GRID,
                                        secant=False)
        assert old_stats["newton_iterations"] / old_stats["steps"] > 4.5
        assert float(np.max(np.abs(crit8_field.values - old))) <= 1e-9

    def test_stationary_field_keeps_the_previous_level_start(self):
        # on (3, 0.2, 1) rung 1 the datum is 1 throughout, so every level
        # settles, and Newton started at the previous level agrees: it
        # accepts each start without an iteration
        prof = make_profile("power", K=1.0, q=0.2, t0=-1.0)
        cfg = SolverConfig(**_default_ladder(prof.t0)[0])
        fld = solve_dirichlet(prof, 3.0, 1, default_probe, cfg)
        assert fld.meta["stats"]["newton_iterations"] == 0
        old, _ = reference_march(prof, 3.0, 1, default_probe, cfg, secant=False)
        np.testing.assert_array_equal(fld.values, old)

    def test_default_ladder_endpoints_within_solve_tolerance(self):
        # the endpoints of (3, 0.6, 1) as they were with the previous-level
        # start; the extrapolated start moves them by 2.2e-16 at most
        out = probe_origin(make_profile("power", K=1.0, q=0.6, t0=-1.0), 3.0, 1)
        assert out["trend"] == "attains"
        np.testing.assert_allclose(
            out["endpoints"],
            [0.7089595679075722, 0.17245888082293254, 0.04251562294589445],
            rtol=0, atol=1e-10)

    def test_default_probe_rung_converges_by_newton_alone(self):
        # third rung of the default probe ladder on (p, q, n) = (1.5, 0.3, 1),
        # the singular-range rung where Newton wandered near scaled
        # |G| = 1e-6 while trials could raise the residual
        prof = make_profile("power", K=1.0, q=0.3, t0=-1.0)
        fld = solve_dirichlet(prof, 1.5, 1, default_probe,
                              SolverConfig(**_default_ladder(prof.t0)[2]))
        stats = fld.meta["stats"]
        assert stats["worst_residual"] <= 1e-11
        assert_one_assembly_per_iterate(stats)
        assert fld.check_max_principle()
        assert fld.values[-1, 0] == pytest.approx(0.9989118710573514, rel=0, abs=1e-12)

    def test_failed_line_search_raises_solver_error(self, power_profile):
        class Blocked(_Stepper):
            """Reports a non-finite residual for the first Newton iteration's
            twelve line-search trials (assemblies 2 to 13)."""

            calls = 0

            def assemble(self, v, vold, c, bc):
                G, dphi, gnorm = super().assemble(v, vold, c, bc)
                self.calls += 1
                return G, dphi, (np.inf if 2 <= self.calls <= 13 else gnorm)

        cfg = SolverConfig(n_y=33)
        vold = smooth_data(np.linspace(0.0, 1.0, 33) * power_profile.zeta(-0.5), -0.5)
        bc = float(smooth_data(power_profile.zeta(-0.49), -0.49))
        blocked = Blocked(2.2, 1, cfg)
        with pytest.raises(SolverError, match="stalled at step 1") as err:
            blocked.step(vold, vold, -0.49, 0.01, float(power_profile.zeta(-0.49)),
                         float(power_profile.dzeta(-0.49)), bc, 1)
        assert err.value.step == 1 and err.value.t == -0.49
        assert err.value.residual > solver_mod.RESIDUAL_TOL
        stats = blocked.stats
        assert stats["newton_iterations"] == 1
        assert stats["backtracks"] == 11
        assert stats["steps"] == 0

    def test_newton_stall_raises_solver_error(self, power_profile, monkeypatch):
        # one Newton iteration does not converge step 1 of this grid
        monkeypatch.setattr(solver_mod, "_NEWTON_MAX", 1)
        cfg = SolverConfig(n_y=65, n_t=200, eps_min=1e-3)
        with pytest.raises(SolverError, match="stalled") as err:
            solve_dirichlet(power_profile, 3.0, 1, smooth_data, cfg)
        assert err.value.step == 1 and err.value.residual > solver_mod.RESIDUAL_TOL


def failure(march, *args):
    """Type, message, step and time of the exception march(*args) raises."""
    with pytest.raises(Exception) as err:
        march(*args)
    e = err.value
    return type(e), str(e), getattr(e, "step", None), getattr(e, "t", None)


def overflowing_at(profile, ts, k, zeta, dzeta=None):
    """profile, but with the width (and the derivative, if given) at the
    level ts[k] replaced in the march's reads over its time grid ts;
    time_grid reads the widths at its n_t interval ends, fewer points than
    ts, and still sees the profile's."""
    def at_bad(g, value):
        return lambda t: np.where(t == ts[k], value, g(t)) if np.shape(t) == ts.shape else g(t)
    return DomainProfile(kind="tabulated", t0=profile.t0,
                         zeta=at_bad(profile.zeta, zeta),
                         dzeta=profile.dzeta if dzeta is None else at_bad(profile.dzeta, dzeta))


class TestStillLevels:
    """Levels where the field equals a constant datum are written without
    Newton; they must be exactly what Newton gives, and fail where it fails."""

    @pytest.mark.parametrize("p, q, n", [(3.0, 0.6, 1), (1.5, 0.3, 1)])
    def test_settled_levels_are_bit_exact(self, p, q, n):
        # on the deepest default rung the datum is 1 until the lateral point
        # comes within 0.1 of the tip, so the march settles the first levels
        # and Newton takes the rest
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        cfg = SolverConfig(**_default_ladder(prof.t0)[2])
        fld = solve_dirichlet(prof, p, n, default_probe, cfg)
        ref, ref_stats = reference_march(prof, p, n, default_probe, cfg)
        np.testing.assert_array_equal(fld.values, ref)
        stats = fld.meta["stats"]
        assert 0 < stats["settled_steps"] < stats["steps"]
        assert_one_assembly_per_iterate(stats)
        assert stats["assemblies"] == ref_stats["assemblies"] - stats["settled_steps"]
        for key in ("steps", "newton_iterations", "backtracks", "worst_residual"):
            assert stats[key] == ref_stats[key]

    def test_datum_back_at_its_constant_does_not_settle(self, power_profile):
        # the datum leaves 0.5 for a while and comes back; the field has moved
        # by then, so only the levels before the first change may settle
        cfg = SolverConfig(n_y=33, n_t=40, eps_min=1e-2)
        f = lambda r, t: 0.5 + 0.2 * (abs(t + 0.3) < 0.05) + 0.0 * np.asarray(r, dtype=float)
        fld = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        ref, _ = reference_march(power_profile, 3.0, 1, f, cfg)
        np.testing.assert_array_equal(fld.values, ref)
        first_change = np.flatnonzero(np.abs(fld.t_nodes + 0.3) < 0.05)[0]
        assert fld.meta["stats"]["settled_steps"] == first_change - 1

    @pytest.mark.parametrize("c", [0.7, -0.0])
    def test_constant_datum_needs_no_assembly(self, power_profile, c):
        # the settled levels are Newton's to the sign of zero: with a datum
        # of -0 the secant start turns the interior to +0 from level 2 on
        cfg = SolverConfig(n_y=33, n_t=50, eps_min=1e-2)
        f = lambda r, t: np.full(np.shape(r), c)
        fld = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        ref, _ = reference_march(power_profile, 3.0, 1, f, cfg)
        np.testing.assert_array_equal(fld.values, c)
        np.testing.assert_array_equal(np.signbit(fld.values), np.signbit(ref))
        stats = fld.meta["stats"]
        assert stats["steps"] == stats["settled_steps"] == fld.t_nodes.size - 1
        assert stats["assemblies"] == stats["newton_iterations"] == 0

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_constant_datum_fails_as_newton_does(self, power_profile, c):
        cfg = SolverConfig(n_y=17, n_t=11, eps_min=0.1)
        f = lambda r, t: c + 0.0 * np.asarray(r, dtype=float)
        args = (power_profile, 3.0, 1, f, cfg)
        got = failure(solve_dirichlet, *args)
        assert got == failure(reference_march, *args)
        with np.errstate(invalid="ignore"):         # inf - inf is NaN, silently
            got = failure(solve_dirichlet, *args)
            assert got == failure(reference_march, *args)
        assert got[0] is SolverError and got[2] == 1

    # w = dt zeta^-p at one level sets the weights there; with n_y = 33 the
    # symmetry weight is 64 n w and the largest face weight 32 (1.5^(n-1)) w
    @pytest.mark.parametrize("p, n, w, dzeta, error", [
        # the symmetry weight overflows, the face weights do not
        (2.0, 1, 4e306, None, SolverError),
        # at n = 8 the face weight 547 w overflows, the symmetry weight 512 w not
        (2.0, 8, 3.4e305, None, SolverError),
        # zeta' / zeta overflows, so the advection weight does
        (3.0, 1, 1.0, 1e308, SolverError),
        # zeta^-3 itself overflows
        (3.0, 1, 1e308, None, OverflowError),
    ])
    def test_overflowing_weights_fail_as_newton_does(self, power_profile, p, n, w, dzeta,
                                                     error):
        cfg = SolverConfig(n_y=33, n_t=11, eps_min=0.1)
        ts = time_grid(power_profile, p, cfg)
        t_bad, dt = ts[5], float(ts[5] - ts[4])
        prof = overflowing_at(power_profile, ts, 5, (dt / w) ** (1.0 / p), dzeta)
        args = (prof, p, n, lambda r, t: 0.5 + 0.0 * np.asarray(r, dtype=float), cfg)
        got = failure(solve_dirichlet, *args)
        assert got == failure(reference_march, *args)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN, silently
            got = failure(solve_dirichlet, *args)
            assert got == failure(reference_march, *args)
        assert got[0] is error
        if error is SolverError:
            assert got[2] == 5 and got[3] == t_bad and "non-finite residual" in got[1]

    def test_non_finite_flat_flux_fails_as_newton_does(self, power_profile):
        # eps_reg^2 underflows to 0, so phi(0) = 0^(-1/4) * 0 is NaN at p = 1.5
        cfg = SolverConfig(n_y=17, n_t=11, eps_min=0.1, eps_reg=1e-200)
        args = (power_profile, 1.5, 1, lambda r, t: 0.5 + 0.0 * np.asarray(r, dtype=float), cfg)
        got = failure(solve_dirichlet, *args)
        assert got == failure(reference_march, *args)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = failure(solve_dirichlet, *args)
            assert got == failure(reference_march, *args)
        assert got[0] is SolverError and got[2] == 1


def gapped_data(r, t):
    """smooth_data plus a non-negative gap: the upper datum of a criterion-8 pair."""
    return smooth_data(r, t) + 0.3 * np.sin(3.0 * np.asarray(r, dtype=float)) ** 2 * np.cos(t) ** 2


class TestBoundaryReads:
    """The march reads zeta, zeta' and the datum over its whole time grid
    before the first step.  Those array reads may round a width or a rate
    one ulp away from a scalar call (numpy's array pow), which moves fields
    by roundoff and nothing else."""

    def test_one_call_of_each_per_solve(self, power_profile):
        shapes = {"zeta": [], "dzeta": [], "f": []}

        def counted(name, g):
            def read(first, *rest):
                shapes[name].append(np.shape(first))
                return g(first, *rest)
            return read

        prof = replace(power_profile, zeta=counted("zeta", power_profile.zeta),
                       dzeta=counted("dzeta", power_profile.dzeta))
        cfg = SolverConfig(n_y=33, n_t=50, eps_min=1e-2)
        fld = solve_dirichlet(prof, 3.0, 1, counted("f", default_probe), cfg)
        levels = fld.t_nodes.shape
        assert levels[0] > cfg.n_t + 1                  # the cap subdivides
        # time_grid reads the widths at its n_t interval ends; the march
        # reads zeta and zeta' at every level, the datum on the bottom slice
        # and at the lateral points of the later levels
        assert shapes["zeta"] == [(cfg.n_t,), levels]
        assert shapes["dzeta"] == [levels]
        assert shapes["f"] == [(cfg.n_y,), (levels[0] - 1,)]
        np.testing.assert_array_equal(
            fld.values, solve_dirichlet(power_profile, 3.0, 1, default_probe, cfg).values)

    @pytest.mark.parametrize("p, q, f, cfg", [
        pytest.param(3.0, 0.6, default_probe, SolverConfig(**_default_ladder(-1.0)[2]),
                     id="rung-3-(3, 0.6, 1)"),
        pytest.param(1.5, 0.3, default_probe, SolverConfig(**_default_ladder(-1.0)[2]),
                     id="rung-3-(1.5, 0.3, 1)"),
        pytest.param(3.0, 0.5, smooth_data, CRIT8_GRID, id="criterion-8-lower"),
        pytest.param(3.0, 0.5, gapped_data, CRIT8_GRID, id="criterion-8-upper"),
    ])
    def test_fields_within_roundoff_of_per_level_reads(self, p, q, f, cfg):
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        fld = solve_dirichlet(prof, p, 1, f, cfg)
        ref, ref_stats = reference_march(prof, p, 1, f, cfg, per_level=True)
        assert float(np.max(np.abs(fld.values - ref))) <= 1e-14
        stats = fld.meta["stats"]
        assert stats["assemblies"] == ref_stats["assemblies"] - stats["settled_steps"]
        for key in ("steps", "newton_iterations", "backtracks"):
            assert stats[key] == ref_stats[key]


class TestNewtonSystem:
    # ids of the (3, 2) cases are the time level alone
    @pytest.mark.parametrize("p, n, t_new, widening", [
        pytest.param(p, n, t_new, widening,
                     id=f"{t_new}-{widening}" + ("" if (p, n) == (3.0, 2) else f"-p{p}-n{n}"))
        for p in (1.5, 3.0) for n in (1, 2) for t_new, widening in ((-0.29, True), (-0.01, False))
    ])
    def test_solve_inverts_the_residual_derivative(self, p, n, t_new, widening):
        # the double-log width widens near t0 = -0.3 and shrinks near 0, so
        # the two levels upwind to opposite neighbours; on both, J x = rhs
        # for the x that solve returns, with J the central difference of G
        prof = make_profile("petrovskii_loglog", K=1.0, t0=-0.3)
        st = _Stepper(p, n, SolverConfig(n_y=17))
        c = st.coefficients(1e-3, float(prof.zeta(t_new)), float(prof.dzeta(t_new)))
        assert c.up == widening
        vold = smooth_data(st.y, t_new)
        v = vold + 0.05 * np.cos(3.0 * st.y)
        _, dphi, _ = st.assemble(v, vold, c, 0.5)
        rhs = np.sin(5.0 * st.y)
        x = st.solve(c, dphi(), rhs, 1, t_new)
        e = 1e-6
        dG = (st.assemble(v + e * x, vold, c, 0.5)[0]
              - st.assemble(v - e * x, vold, c, 0.5)[0]) / (2.0 * e)
        np.testing.assert_allclose(dG, rhs, rtol=0, atol=1e-7)


class TestNonFinite:
    def test_nan_data_at_one_level_raises_solver_error(self, power_profile):
        cfg = SolverConfig(n_y=17, n_t=11, eps_min=0.1)
        bad_t = time_grid(power_profile, 3.0, cfg)[5]
        f = lambda r, t: np.where(t == bad_t, np.nan, 0.5 + 0.0 * np.asarray(r, dtype=float))
        with pytest.raises(SolverError) as err:
            solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        assert err.value.step == 5
        assert err.value.t == bad_t

    def test_singular_system_raises_solver_error(self, power_profile):
        st = _Stepper(3.0, 1, SolverConfig(n_y=9))
        c = st.coefficients(0.01, float(power_profile.zeta(-0.5)),
                            float(power_profile.dzeta(-0.5)))
        zero = np.zeros_like(c.A)
        # first row becomes [0, 1, 0, ...] with nothing below it to pivot on
        c = c._replace(w0=-st.h, wm=zero, A=zero)
        d = np.zeros(8)
        d[0] = 1.0
        with pytest.raises(SolverError, match="singular") as err:
            st.solve(c, d, np.ones(9), 7, -0.5)
        assert err.value.step == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_raises_solver_error(self, power_profile, bad):
        st = _Stepper(3.0, 1, SolverConfig(n_y=9))
        d = np.ones(8)
        d[3] = bad
        c = st.coefficients(0.01, float(power_profile.zeta(-0.5)),
                            float(power_profile.dzeta(-0.5)))
        with pytest.raises(SolverError, match="non-finite Jacobian") as err:
            st.solve(c, d, np.ones(9), 4, -0.5)
        assert err.value.step == 4


def short_ladder(monkeypatch, rungs):
    """Make rungs the probe's ladder."""
    monkeypatch.setattr(solver_mod, "_default_ladder", lambda t0: rungs)


class TestProbe:
    def test_coarse_ladder_is_inconclusive(self, power_profile, monkeypatch):
        short_ladder(monkeypatch, [{"eps_min": 1e-1, "n_y": 17, "n_t": 30}])
        out = probe_origin(power_profile, 3.0, 1)
        assert out["trend"] == "inconclusive"

    def test_default_probe_reads_a_point_as_its_array_form(self):
        # called with two floats it must give the array form's value bit for
        # bit, signed zeros and NaN included
        pts = np.array([0.0, -0.0, 1e-3, 0.07071067811865475, 0.1, -0.3, 1e200,
                        np.inf, -np.inf, np.nan, 5e-324])
        pts = np.concatenate([pts, np.random.default_rng(0).uniform(-0.15, 0.15, 60)])
        r, t = np.meshgrid(pts, pts)
        with np.errstate(over="ignore"):            # 1e200^2 is inf either way
            grid = default_probe(r, t)
        one = np.array([[default_probe(float(a), float(b)) for a, b in zip(ra, ta)]
                        for ra, ta in zip(r, t)])
        np.testing.assert_array_equal(one, grid)
        np.testing.assert_array_equal(np.signbit(one), np.signbit(grid))

    def test_default_probe_on_a_wide_cusp_warns_of_nothing(self):
        # r^2 overflows to inf at r = 1e200, where min(1, inf) = 1 is exact;
        # the suite turns numpy's overflow warning into an error
        r = np.array([0.0, 0.05, 1e200, 1e300])
        t = np.full(4, -1e-3)
        with np.errstate(over="ignore"):
            expect = np.minimum(1.0, np.sqrt(r * r + t * t) / 0.1)
        np.testing.assert_array_equal(default_probe(r, t), expect)
        assert expect[2:].tolist() == [1.0, 1.0]
        out = classify(4.0, 0.5, K=1e200, with_probe=True)
        assert len(out.meta["probe"]["endpoints"]) == 3

    def test_thresholds_reported(self, power_profile, monkeypatch):
        short_ladder(monkeypatch, [{"eps_min": 1e-1, "n_y": 17, "n_t": 30}])
        out = probe_origin(power_profile, 3.0, 1)
        assert out["thresholds"]["attains_endpoint"] == 0.1
        assert out["thresholds"]["gap_floor"] == 0.2


def paper_table(p, q):
    """The regularity table for the power cusp, stated by range of p; q
    counts as 1/p within the classifier's declared tolerance."""
    inv_p = 1.0 / p
    on_threshold = math.isclose(q, inv_p, rel_tol=0.0,
                                abs_tol=solver_mod._BORDERLINE_RTOL * max(1.0, inv_p))
    if p > 2:
        return "Regular" if q > inv_p and not on_threshold else "Irregular"
    if p == 2:
        return "Regular" if q >= 0.5 or on_threshold else "Irregular"
    if on_threshold:
        return "Unknown"
    return "Regular" if q > inv_p else "Irregular"


@st.composite
def table_cells(draw):
    """(p, q) with q anywhere, or within a few tolerances of 1/p."""
    p = draw(st.one_of(st.just(2.0), st.floats(1.05, 8.0)))
    inv_p = 1.0 / p
    q = draw(st.one_of(
        st.floats(0.01, 3.0),
        st.floats(-3e-12, 3e-12).map(lambda d: inv_p + d),
        st.sampled_from([inv_p, np.nextafter(inv_p, 0.0), np.nextafter(inv_p, 1.0)]),
    ))
    return p, float(q)


class TestClassify:
    @given(cell=table_cells(), n=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_verdict_is_the_paper_table(self, cell, n):
        p, q = cell
        assert classify(p, q, n).theorem_verdict == paper_table(p, q)

    def test_table(self):
        cases = [
            (3.0, 0.2, "Irregular"), (3.0, 1.0 / 3.0, "Irregular"), (3.0, 0.5, "Regular"),
            (2.0, 0.4, "Irregular"), (2.0, 0.5, "Regular"), (2.0, 0.7, "Regular"),
            (1.5, 0.5, "Irregular"), (1.5, 2.0 / 3.0, "Unknown"), (1.5, 0.7, "Regular"),
        ]
        for p, q, expect in cases:
            assert classify(p, q).theorem_verdict == expect, (p, q)

    def test_unknown_only_on_singular_borderline(self):
        assert classify(3.0, 1.0 / 3.0).theorem_verdict != "Unknown"
        assert classify(2.0, 0.5).theorem_verdict != "Unknown"
        assert classify(1.7, 1.0 / 1.7).theorem_verdict == "Unknown"

    def test_k_irrelevant_flag(self):
        assert classify(3.0, 0.5, K=17.0).meta["K_irrelevant"]
        assert not classify(2.0, 0.5).meta["K_irrelevant"]

    def test_preconditions(self):
        with pytest.raises(DomainError):
            classify(1.0, 0.5)
        with pytest.raises(DomainError):
            classify(3.0, -0.1)
        for p, q, K in [(np.nan, 0.5, 1.0), (np.inf, 0.5, 1.0),
                        (3.0, np.nan, 1.0), (3.0, 0.5, np.inf)]:
            with pytest.raises(DomainError, match="finite"):
                classify(p, q, K=K)

    def test_stiff_cell_marches_n_t_steps_per_rung(self):
        # q p = 2.4 > 1: under the stiffness cap the deepest rung needed
        # 577,098 steps; the default ladder has none, so each rung takes n_t
        out = classify(3.0, 0.8, 1, with_probe=True)
        assert out.numeric_trend == "attains"
        assert out.meta["probe"]["endpoints"] == pytest.approx(
            [0.28331, 0.04203, 0.00646], abs=1e-5)
        steps = [r["n_steps"] for r in out.meta["probe"]["rungs"]]
        assert steps == [r["n_t"] for r in _default_ladder(-1.0)]

    def test_failed_rung_error_is_reported(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("nonlinear solve stalled at step 3", step=3, t=-0.5)
        monkeypatch.setattr(solver_mod, "solve_dirichlet", fail)
        v = classify(3.0, 0.6, with_probe=True)
        assert v.numeric_trend == "inconclusive"
        assert v.meta["probe"]["error"] == "nonlinear solve stalled at step 3"
        assert v.to_dict()["meta"]["probe"]["error"] == "nonlinear solve stalled at step 3"

    def test_verdict_dict(self):
        v = classify(3.0, 0.34)
        d = v.to_dict()
        assert d["theorem_verdict"] == "Regular"
        assert d["numeric_trend"] is None

    def test_borderline_probe_is_inconclusive_by_policy(self, monkeypatch):
        short_ladder(monkeypatch, [{"eps_min": 1e-1, "n_y": 17, "n_t": 30},
                                   {"eps_min": 3e-2, "n_y": 17, "n_t": 40}])
        v = classify(1.5, 1.0 / 1.5, with_probe=True)
        assert v.theorem_verdict == "Unknown"
        assert v.numeric_trend == "inconclusive"
        assert "borderline_policy" in v.meta["probe"]
