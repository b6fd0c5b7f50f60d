import numpy as np
import pytest

from petrocheck.calculus import barenblatt_function
from petrocheck.domains import make_profile, profile_from_samples
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

    # p < 2 is left out until Newton accepts iterates at their roundoff
    # floor: there it stalls just above its residual tolerance (scaled
    # |G| ~ 1.1e-11 at p = 1.5, n = 2, n_y = 33).  Each cell runs with the
    # SolverConfig stiffness cap and without it, as the probe ladder does.
    @pytest.mark.parametrize("p, n, c_step", [
        pytest.param(p, n, c_step, id=f"{p}-{n}{suffix}")
        for c_step, suffix in ((SolverConfig.c_step, ""), (_UNCAPPED_C_STEP, "-uncapped"))
        for p, n in [(3.0, 1), (3.0, 2), (2.5, 2)]
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
            assert fld.meta["stats"]["picard_iterations"] == 0
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

    def test_max_steps_guard(self, power_profile):
        # the first interval alone needs more steps than the guard allows,
        # so it raises before it builds the grid
        with pytest.raises(SolverError, match="max_steps"):
            time_grid(power_profile, 3.0, SolverConfig(c_step=1e-12))


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
    ])
    def test_config_rejects_bad_settings(self, setting):
        with pytest.raises(DomainError, match=next(iter(setting))):
            SolverConfig(**setting)

    @pytest.mark.parametrize("t_nodes", [
        [-1.0], [-0.5, -1.0], [-1.0, -0.5, 0.0], [[-1.0, -0.5]]])
    def test_bad_t_nodes_rejected(self, power_profile, t_nodes):
        with pytest.raises(DomainError, match="t_nodes"):
            solve_dirichlet(power_profile, 3.0, 1, default_probe, SolverConfig(n_y=9),
                            t_nodes=np.array(t_nodes))

    def test_initial_values_shape_mismatch_rejected(self, power_profile):
        with pytest.raises(DomainError, match="initial_values"):
            solve_dirichlet(power_profile, 3.0, 1, default_probe, SolverConfig(n_y=9),
                            t_nodes=np.array([-1.0, -0.5]), initial_values=np.zeros(8))

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

    def test_restriction_consistency(self, power_profile):
        # re-running on the tail of the time grid from the mid-slice state
        # reproduces the long run on the common region
        cfg = SolverConfig(n_y=49, n_t=120, eps_min=1e-2)
        f = lambda r, t: np.asarray(default_probe(r, t))
        full = solve_dirichlet(power_profile, 3.0, 1, f, cfg)
        k_half = int(np.searchsorted(full.t_nodes, power_profile.t0 / 2.0))
        sub = solve_dirichlet(
            power_profile, 3.0, 1, f, cfg,
            t_nodes=full.t_nodes[k_half:],
            initial_values=full.values[k_half],
        )
        diff = np.max(np.abs(sub.values - full.values[k_half:]))
        assert diff <= 1e-8

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
    assert stats["assemblies"] == (stats["steps"] + stats["newton_iterations"]
                                   + stats["backtracks"] + stats["picard_iterations"])


class TestSolverStats:
    def test_newton_assembles_once_per_iterate(self, power_profile):
        cfg = SolverConfig(n_y=65, n_t=200, eps_min=1e-3)
        fld = solve_dirichlet(power_profile, 3.0, 1, smooth_data, cfg)
        stats = fld.meta["stats"]
        assert stats["steps"] == fld.t_nodes.size - 1
        assert stats["newton_iterations"] > stats["steps"]
        assert stats["picard_iterations"] == 0
        assert 0.0 < stats["worst_residual"] <= solver_mod.RESIDUAL_TOL
        assert_one_assembly_per_iterate(stats)

    def test_picard_fallback_matches_newton(self, power_profile, monkeypatch):
        cfg = SolverConfig(n_y=33, n_t=40, eps_min=0.3)
        newton = solve_dirichlet(power_profile, 2.2, 1, smooth_data, cfg)
        monkeypatch.setattr(solver_mod, "_NEWTON_MAX", 0)
        picard = solve_dirichlet(power_profile, 2.2, 1, smooth_data, cfg)
        stats = picard.meta["stats"]
        assert stats["newton_iterations"] == 0
        assert stats["picard_iterations"] > stats["steps"]
        assert stats["worst_residual"] <= 1e-11
        assert_one_assembly_per_iterate(stats)
        assert np.max(np.abs(picard.values - newton.values)) < 1e-10

    def test_default_probe_rung_reaches_picard(self):
        # third rung of the default probe ladder on (p, q, n) = (1.5, 0.3, 1):
        # Newton oscillates near scaled |G| = 1e-6 at one step and Picard
        # converges there
        prof = make_profile("power", K=1.0, q=0.3, t0=-1.0)
        fld = solve_dirichlet(prof, 1.5, 1, default_probe,
                              SolverConfig(**_default_ladder(prof.t0)[2]))
        stats = fld.meta["stats"]
        assert stats["picard_iterations"] > 0
        assert stats["worst_residual"] <= 1e-11
        assert_one_assembly_per_iterate(stats)
        assert fld.check_max_principle()
        assert fld.values[-1, 0] == pytest.approx(0.9989118710573514, rel=0, abs=1e-12)

    def test_failed_line_search_hands_the_step_to_picard(self, power_profile):
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
        blocked = Blocked(power_profile, 2.2, 1, cfg)
        v = blocked.step(vold, -0.49, 0.01, bc, 1)
        stats = blocked.stats
        assert stats["newton_iterations"] == 1
        assert stats["backtracks"] == 11
        assert stats["picard_iterations"] > 0
        assert stats["worst_residual"] <= solver_mod.RESIDUAL_TOL
        assert_one_assembly_per_iterate(stats)
        plain = _Stepper(power_profile, 2.2, 1, cfg).step(vold, -0.49, 0.01, bc, 1)
        assert np.max(np.abs(v - plain)) < 1e-10

    def test_picard_stall_raises_solver_error(self, power_profile, monkeypatch):
        # Picard alone does not converge at step 1 of this grid within its
        # iteration budget
        monkeypatch.setattr(solver_mod, "_NEWTON_MAX", 0)
        cfg = SolverConfig(n_y=65, n_t=200, eps_min=1e-3)
        with pytest.raises(SolverError, match="stalled") as err:
            solve_dirichlet(power_profile, 3.0, 1, smooth_data, cfg)
        assert err.value.step == 1 and err.value.residual > solver_mod.RESIDUAL_TOL


class TestNonFinite:
    def test_nan_data_at_one_level_raises_solver_error(self, power_profile):
        ts = -np.logspace(0.0, -1.0, 12)
        bad_t = ts[5]
        f = lambda r, t: np.nan if t == bad_t else 0.5 + 0.0 * np.asarray(r, dtype=float)
        with pytest.raises(SolverError) as err:
            solve_dirichlet(power_profile, 3.0, 1, f, SolverConfig(n_y=17), t_nodes=ts)
        assert err.value.step == 5
        assert err.value.t == bad_t

    def test_singular_system_raises_solver_error(self, power_profile):
        st = _Stepper(power_profile, 3.0, 1, SolverConfig(n_y=9))
        c = st.coefficients(-0.5, 0.01)
        zero = np.zeros_like(c.Ap)
        # first row becomes [0, 1, 0, ...] with nothing below it to pivot on
        c = c._replace(axis_jac=-st.axis_h, jac_minus=zero, Ap=zero, Am=zero)
        d = np.zeros(8)
        d[0] = 1.0
        with pytest.raises(SolverError, match="singular") as err:
            st.solve(c, d, np.ones(9), 7, -0.5)
        assert err.value.step == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_raises_solver_error(self, power_profile, bad):
        st = _Stepper(power_profile, 3.0, 1, SolverConfig(n_y=9))
        d = np.ones(8)
        d[3] = bad
        with pytest.raises(SolverError, match="non-finite Jacobian") as err:
            st.solve(st.coefficients(-0.5, 0.01), d, np.ones(9), 4, -0.5)
        assert err.value.step == 4


class TestProbe:
    def test_coarse_ladder_is_inconclusive(self, power_profile):
        out = probe_origin(power_profile, 3.0, 1, ladder=[
            {"eps_min": 1e-1, "n_y": 17, "n_t": 30},
        ])
        assert out["trend"] == "inconclusive"

    def test_thresholds_reported(self, power_profile):
        out = probe_origin(power_profile, 3.0, 1, ladder=[
            {"eps_min": 1e-1, "n_y": 17, "n_t": 30},
        ])
        assert out["thresholds"]["attains_endpoint"] == 0.1
        assert out["thresholds"]["gap_floor"] == 0.2


class TestClassify:
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

    @pytest.mark.parametrize("rung", [{"eps_min": 1e-1, "n_y": 2, "n_t": 30},
                                      {"eps_min": 2.0, "n_y": 17, "n_t": 30}])
    def test_malformed_ladder_raises_domain_error(self, rung):
        with pytest.raises(DomainError):
            classify(3.0, 0.6, with_probe=True, ladder=[rung])

    def test_verdict_dict(self):
        v = classify(3.0, 0.34)
        d = v.to_dict()
        assert d["theorem_verdict"] == "Regular"
        assert d["numeric_trend"] is None

    def test_borderline_probe_is_inconclusive_by_policy(self):
        ladder = [{"eps_min": 1e-1, "n_y": 17, "n_t": 30},
                  {"eps_min": 3e-2, "n_y": 17, "n_t": 40}]
        v = classify(1.5, 1.0 / 1.5, with_probe=True, ladder=ladder)
        assert v.theorem_verdict == "Unknown"
        assert v.numeric_trend == "inconclusive"
        assert "borderline_policy" in v.meta["probe"]
