import json
from dataclasses import replace

import numpy as np
import pytest

from petrocheck import calculus
from petrocheck.barriers import BARRIER_KINDS, find_family_threshold, make_barrier
from petrocheck.calculus import Params, SpaceTimeFunction, barenblatt_function
from petrocheck.domains import envelope_gauge, make_profile
from petrocheck.errors import DomainError
from petrocheck.solver import SolverConfig
from petrocheck.verify import (
    CertGrid,
    _boundary_samples,
    canonical_json,
    check_barrier_family,
    check_comparison,
    check_scaling_equivariance,
    check_sign,
    make_cert_grid,
    stamp,
)


def negate(u):
    return SpaceTimeFunction(
        fn=lambda r, t: -np.asarray(u.fn(r, t)),
        dt=lambda r, t: -np.asarray(u.dt(r, t)),
        dr=lambda r, t: -np.asarray(u.dr(r, t)),
        drr=lambda r, t: -np.asarray(u.drr(r, t)),
        label=f"-({u.label})",
    )


@pytest.fixture(scope="module")
def singular_case():
    spec = make_barrier("singular_irregularity", p=1.5, n=2, q=0.25)
    return spec, spec.reference_profile()


class TestCheckSign:
    def test_barrier_passes(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, n_t=64, n_y=64)
        rep = check_sign(spec.fn, prof, 1.5, 2, grid=grid)
        assert rep.passed
        assert rep.worst_violation >= -1e-10
        # worst location lies inside the declared grid
        r, t = rep.worst_location
        assert prof.contains(r, t)

    def test_zero_function_passes_with_zero_violation(self, singular_case):
        _, prof = singular_case
        zero = lambda r, t: np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)
        u0 = SpaceTimeFunction(fn=zero, dt=zero, dr=zero, drr=zero, label="zero")
        rep = check_sign(u0, prof, 1.5, 2, grid=make_cert_grid(prof, 32, 32))
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_negated_supersolution_fails_with_witness(self, singular_case):
        spec, prof = singular_case
        rep = check_sign(negate(spec.fn), prof, 1.5, 2,
                         grid=make_cert_grid(prof, 64, 64))
        assert not rep.passed
        assert rep.worst_violation < -1e-6
        r, t = rep.worst_location
        assert prof.contains(r, t)

    def test_empty_grid_rejected(self, singular_case):
        spec, prof = singular_case
        from petrocheck.verify import CertGrid
        empty = CertGrid(t_levels=np.array([]), y_levels=np.array([]))
        with pytest.raises(DomainError):
            check_sign(spec.fn, prof, 1.5, 2, grid=empty)

    def test_default_grid(self, singular_case):
        spec, prof = singular_case
        rep = check_sign(spec.fn, prof, 1.5, 2)
        assert rep.passed
        assert (rep.grid["n_t"], rep.grid["n_y"], rep.grid["points"]) == (128, 128, 128 * 128)

    def test_points_outside_the_cusp_are_skipped(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, 16, 16)
        wide = CertGrid(t_levels=grid.t_levels, y_levels=np.append(grid.y_levels, [1.5, 2.0]))
        rep = check_sign(spec.fn, prof, 1.5, 2, grid=wide)
        assert rep.passed and rep.grid["points"] == 16 * 16
        assert rep.details == {}
        assert rep.worst_violation == check_sign(spec.fn, prof, 1.5, 2, grid=grid).worst_violation

    def test_grid_wholly_outside_the_cusp_rejected(self, singular_case):
        spec, prof = singular_case
        outside = CertGrid(t_levels=np.array([-0.5, -0.1]), y_levels=np.array([1.5, 2.0]))
        with pytest.raises(DomainError, match="no valid grid points"):
            check_sign(spec.fn, prof, 1.5, 2, grid=outside)

    def test_non_finite_residual_inside_domain_fails(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, 128, 128)
        t_split = float(np.median(grid.t_levels))

        def half_nan(g):
            return lambda r, t: np.where(np.asarray(t) < t_split, np.nan, g(r, t))

        u = spec.fn
        broken = SpaceTimeFunction(fn=half_nan(u.fn), dt=half_nan(u.dt),
                                   dr=half_nan(u.dr), drr=half_nan(u.drr), label="half-NaN")
        assert check_sign(u, prof, 1.5, 2, grid=grid).passed
        rep = check_sign(broken, prof, 1.5, 2, grid=grid)
        assert not rep.passed
        assert rep.grid["points"] == 64 * 128
        assert rep.details["non_finite_points"] == 64 * 128
        r, t = rep.details["first_non_finite_location"]
        assert prof.contains(r, t) and t < t_split

    def test_deterministic_reports(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, 32, 32)
        a = canonical_json(check_sign(spec.fn, prof, 1.5, 2, grid=grid).to_dict())
        b = canonical_json(check_sign(spec.fn, prof, 1.5, 2, grid=grid).to_dict())
        assert a == b


class TestAxisEvaluation:
    """Certificate grids keep t as a column; the values and derivatives must
    be those of the fully materialized mesh, bit for bit."""

    @pytest.mark.parametrize("kind", BARRIER_KINDS + ("barenblatt",))
    def test_column_matches_full_mesh(self, kind, family_setup, monkeypatch):
        # a small jet block makes the pass run several row blocks
        monkeypatch.setattr(calculus, "_JET_BLOCK", 100)
        kw = {"singular_irregularity": dict(p=1.5, n=2, q=0.25),
              "singular_traditional": dict(p=1.5, n=1, q=0.5),
              "degenerate_irregularity": dict(p=3.0, n=2, C=0.01),
              "degenerate_small_data": dict(p=3.0, n=1, q=0.3, beta=0.5)}
        prof = family_setup[0]
        R, T = make_cert_grid(prof, n_t=23, n_y=17).meshes(prof)
        if kind == "barenblatt":
            u, T = barenblatt_function(3.0, 2, 1.0), T + 2.0
        elif kind == "degenerate_family_member":
            u = family_setup[3][0].fn
        else:
            u = make_barrier(kind, **kw[kind]).fn
        assert T.shape == (23, 1) and R.shape == (23, 17)
        T_full = np.broadcast_to(T, R.shape).copy()
        for r, t, r_full in ((R, T, R), (R[0], T, np.broadcast_to(R[0], R.shape).copy())):
            np.testing.assert_array_equal(np.asarray(u(r, t)), u(r_full, T_full))
            for axis, full in zip(u.derivatives(r, t), u.derivatives(r_full, T_full)):
                assert axis.shape == R.shape
                np.testing.assert_array_equal(axis, full)

    def test_gauge_is_evaluated_once_per_time_level(self, family_setup):
        prof, gauge, C0, _ = family_setup
        sizes = []

        def counting_delta(t):
            sizes.append(np.size(t))
            return gauge.delta(t)

        counted = replace(gauge, delta=counting_delta)
        w = make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, C=C0, gauge=counted)
        sizes.clear()           # make_barrier samples the gauge for theta
        rep = check_sign(w.fn, prof, 3.0, 1, grid=make_cert_grid(prof, n_t=40, n_y=30))
        assert rep.passed
        assert sizes and max(sizes) <= 40


@pytest.fixture(scope="module")
def family_setup():
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    gauge = envelope_gauge(prof, 3.0, 1)
    C0, _ = find_family_threshold(3.0, 1, gauge)
    ladder = [
        make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, K=1.0,
                     C=C0 * 2 ** j, gauge=gauge)
        for j in range(9)
    ]
    return prof, gauge, C0, ladder


class TestBarrierFamily:
    def test_flagship_passes(self, family_setup):
        prof, _, _, ladder = family_setup
        rep = check_barrier_family(ladder, prof, 3.0, 1, k_max=4,
                                   grid=make_cert_grid(prof, 64, 64))
        assert rep.passed
        jk = rep.details["condition_iii_j_of_k"]
        js = [jk[str(k)] for k in range(1, 5)]
        assert all(a <= b for a, b in zip(js, js[1:]))   # j(k) nondecreasing
        assert rep.details["theta"] > 0

    def test_short_ladder_inconclusive_not_fail(self, family_setup):
        prof, gauge, C0, _ = family_setup
        short = [make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5,
                              C=C0, gauge=gauge)]
        rep = check_barrier_family(short, prof, 3.0, 1, k_max=30,
                                   grid=make_cert_grid(prof, 32, 32))
        assert not rep.passed
        assert rep.details["condition_iii_inconclusive"]
        assert "INCONCLUSIVE" in rep.condition
        # condition (i) itself still holds for the single member
        assert rep.details["condition_i_members"][0]["pass"]

    def test_nonpositive_member_fails_condition_i(self, family_setup):
        prof, gauge, C0, ladder = family_setup
        orig = make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5,
                            C=C0, gauge=gauge)
        base_fn = orig.fn.fn
        shifted = SpaceTimeFunction(
            fn=lambda r, t: np.asarray(base_fn(r, t)) - 1e3,
            dt=orig.fn.dt, dr=orig.fn.dr, drr=orig.fn.drr, label="shifted",
        )
        bad = replace(orig, fn=shifted)
        rep = check_barrier_family([bad], prof, 3.0, 1, k_max=1,
                                   grid=make_cert_grid(prof, 32, 32))
        assert not rep.passed
        assert not rep.details["condition_i_members"][0]["pass"]

    def test_decay_below_envelope(self, family_setup):
        prof, _, _, ladder = family_setup
        rep = check_barrier_family(ladder[:3], prof, 3.0, 1, k_max=2,
                                   grid=make_cert_grid(prof, 32, 32))
        for entry in rep.details["condition_ii_decay"]:
            assert entry["below_envelope_margin"] >= -1e-10
            assert entry["envelope_vanishing"]

    def test_rays_and_levels_match_one_loop_each(self, family_setup):
        # reference: each member on one ray, and on the samples of one level,
        # at a time; the minima are exact, so the results are equal
        prof, gauge, _, ladder = family_setup
        rep = check_barrier_family(ladder, prof, 3.0, 1, k_max=6,
                                   grid=make_cert_grid(prof, 16, 16))
        t_ray = prof.t0 * (1e-8) ** (np.arange(1, 65) / 64)
        rb, tb = _boundary_samples(prof, n_each=256)
        dist = np.sqrt(rb * rb + tb * tb)
        for spec, entry in zip(ladder, rep.details["condition_ii_decay"]):
            rho = Params(p=3.0, n=1).envelope(spec.constants["C"], gauge.delta(t_ray), t_ray)
            below = min(np.min(rho - spec.fn(y * prof.zeta(t_ray), t_ray))
                        for y in np.arange(1, 9) / 9.0)
            assert entry["below_envelope_margin"] == below
        for k in range(1, 7):
            far = dist >= 1.0 / k
            j = next((j for j, spec in enumerate(ladder)
                      if np.min(spec.fn(rb[far], tb[far])) >= k), None)
            assert rep.details["condition_iii_j_of_k"][str(k)] == j

    def test_nan_near_the_tip_fails_decay(self, family_setup):
        # NaN only for t > -1e-7: the grid stops at -1e-6, the rays reach -1e-8
        prof, _, _, ladder = family_setup

        def nan_near_tip(fn):
            return lambda r, t: np.where(np.asarray(t) > -1e-7, np.nan, fn(r, t))

        broken = [replace(spec, fn=replace(spec.fn, fn=nan_near_tip(spec.fn.fn)))
                  for spec in ladder]
        rep = check_barrier_family(broken, prof, 3.0, 1, k_max=4,
                                   grid=make_cert_grid(prof, 32, 32))
        assert not rep.passed
        assert all(m["pass"] for m in rep.details["condition_i_members"])
        for entry in rep.details["condition_ii_decay"]:
            assert np.isnan(entry["below_envelope_margin"]) and not entry["pass"]

    def test_nan_near_the_tip_report_is_strict_json(self, family_setup):
        # RFC 8259 has no NaN token: the report quotes it, and stays failed
        prof, _, _, ladder = family_setup

        def nan_near_tip(fn):
            return lambda r, t: np.where(np.asarray(t) > -1e-7, np.nan, fn(r, t))

        broken = [replace(spec, fn=replace(spec.fn, fn=nan_near_tip(spec.fn.fn)))
                  for spec in ladder]
        rep = check_barrier_family(broken, prof, 3.0, 1, k_max=4,
                                   grid=make_cert_grid(prof, 32, 32))

        def no_constants(token):
            raise ValueError(f"non-standard JSON token {token}")

        parsed = json.loads(canonical_json(rep.to_dict()), parse_constant=no_constants)
        assert parsed["pass"] is False
        for entry in parsed["details"]["condition_ii_decay"]:
            assert entry["below_envelope_margin"] == "NaN" and entry["pass"] is False

    def test_default_grid(self, family_setup):
        prof, _, _, ladder = family_setup
        rep = check_barrier_family(ladder[:2], prof, 3.0, 1, k_max=1)
        assert (rep.grid["n_t"], rep.grid["n_y"]) == (128, 128)
        assert len(rep.details["condition_i_members"]) == 2

    @pytest.mark.parametrize("pick, message", [
        (lambda ladder: [], "empty family"),
        (lambda ladder: [ladder[1], ladder[0]], "strictly increasing C"),
        (lambda ladder: [ladder[0], ladder[0]], "strictly increasing C"),
    ])
    def test_malformed_ladder_rejected(self, family_setup, pick, message):
        prof, _, _, ladder = family_setup
        with pytest.raises(DomainError, match=message):
            check_barrier_family(pick(ladder), prof, 3.0, 1, grid=make_cert_grid(prof, 8, 8))

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_rejected(self, family_setup, k_max):
        # condition (iii) would be vacuous
        prof, _, _, ladder = family_setup
        with pytest.raises(DomainError, match="k_max"):
            check_barrier_family(ladder, prof, 3.0, 1, k_max=k_max,
                                 grid=make_cert_grid(prof, 8, 8))

    def test_level_without_far_samples_is_inconclusive(self):
        # at t0 = -0.1 every boundary sample lies within 0.34 of the tip, so
        # levels k = 1..3 have no sample at distance >= 1/k
        prof = make_profile("power", K=1.0, q=0.5, t0=-0.1)
        gauge = envelope_gauge(prof, 3.0, 1)
        C0, _ = find_family_threshold(3.0, 1, gauge)
        ladder = [make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, K=1.0,
                               t0=-0.1, C=C0 * 2 ** j, gauge=gauge) for j in range(9)]
        rep = check_barrier_family(ladder, prof, 3.0, 1, k_max=4,
                                   grid=make_cert_grid(prof, 32, 32))
        jk = rep.details["condition_iii_j_of_k"]
        assert [jk[str(k)] for k in (1, 2, 3)] == [None, None, None]
        assert isinstance(jk["4"], int)
        assert rep.details["condition_iii_inconclusive"]
        assert not rep.passed and "INCONCLUSIVE" in rep.condition


class TestSolverChecks:
    def test_comparison_identical_data(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        f = lambda r, t: 0.3 + 0.1 * np.sin(2 * np.asarray(r, dtype=float))
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=1e-2)
        rep = check_comparison(prof, 3.0, 1, f, f, cfg=cfg)
        assert rep.passed
        assert abs(rep.worst_violation) <= 1e-12

    def test_comparison_constants(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        f0 = lambda r, t: 0.0 * np.asarray(r, dtype=float)
        f1 = lambda r, t: 1.0 + 0.0 * np.asarray(r, dtype=float)
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=1e-2)
        rep = check_comparison(prof, 3.0, 1, f0, f1, cfg=cfg)
        assert rep.passed
        assert rep.worst_violation == pytest.approx(-1.0)

    def test_comparison_rejects_unordered(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        f0 = lambda r, t: np.ones_like(np.asarray(r, dtype=float))
        f1 = lambda r, t: np.zeros_like(np.asarray(r, dtype=float))
        with pytest.raises(DomainError):
            check_comparison(prof, 3.0, 1, f0, f1,
                             cfg=SolverConfig(n_y=17, n_t=20, eps_min=0.1))

    def test_scaling_identity(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=1e-2)
        rep = check_scaling_equivariance(prof, 3.0, 1.0, cfg=cfg)
        assert rep.passed
        assert rep.worst_violation <= 1e-11        # same run up to roundoff

    def test_scaling_constant_data(self):
        # constant data map through the amplitude factor back to themselves
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        cfg = SolverConfig(n_y=33, n_t=60, eps_min=1e-2)
        fc = lambda r, t: 0.7 + 0.0 * np.asarray(r, dtype=float)
        rep = check_scaling_equivariance(prof, 3.0, 2.0, cfg=cfg, f=fc)
        assert rep.passed
        assert rep.worst_violation <= 1e-12

    def test_p2_rejected(self):
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        with pytest.raises(DomainError):
            check_scaling_equivariance(prof, 2.0, 2.0,
                                       cfg=SolverConfig(n_y=17, n_t=20, eps_min=0.1))


class TestSerialization:
    def test_json_has_hash_and_17_digits(self, singular_case):
        spec, prof = singular_case
        rep = check_sign(spec.fn, prof, 1.5, 2, grid=make_cert_grid(prof, 16, 16))
        blob = rep.to_dict()
        assert "report_hash" in blob and len(blob["report_hash"]) == 64
        import json as _json
        payload = {k: v for k, v in blob.items() if k != "report_hash"}
        parsed = _json.loads(canonical_json(stamp(payload, with_timestamp=True)))
        assert "generated_at" in parsed
        assert parsed["report_hash"] == blob["report_hash"]  # timestamp excluded

    def test_canonical_json_quotes_non_finite_floats(self):
        blob = canonical_json({"a": float("nan"), "b": np.float64(np.inf), "c": -np.inf})
        assert blob == '{"a": "NaN", "b": "Infinity", "c": "-Infinity"}'

    def test_canonical_json_numpy_values_match_python(self):
        as_numpy = {"i": np.int64(7), "b": np.bool_(True), "f": np.float32(0.1),
                    "a": np.array([[0.5, 1.0], [2.0, 3.0]])}
        as_python = {"i": 7, "b": True, "f": float(np.float32(0.1)),
                     "a": [[0.5, 1.0], [2.0, 3.0]]}
        assert canonical_json(as_numpy) == canonical_json(as_python)
