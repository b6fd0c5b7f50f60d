import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from petrocheck import calculus
from petrocheck import verify as verify_module
from petrocheck.barriers import (
    BARRIER_KINDS,
    FamilyFormula,
    find_family_threshold,
    make_barrier,
)
from petrocheck.calculus import (
    Params,
    SpaceTimeFunction,
    _closed_residual,
    barenblatt_function,
    residual,
    where,
)
from petrocheck.domains import envelope_gauge, make_profile
from petrocheck.errors import DomainError
from petrocheck.solver import SolverConfig
from petrocheck.verify import (
    SIGN_TOL,
    CertGrid,
    _boundary_samples,
    _ladder_jets,
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


def grid_point(grid, prof, loc):
    """(i, j) of the grid point at the location loc = (r, t) of a report."""
    R, T = grid.meshes(prof)
    (i,), = np.nonzero(T[:, 0] == loc[1])
    (j,), = np.nonzero(R[i] == loc[0])
    return i, j


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
        # worst location is a point of the declared grid
        grid_point(grid, prof, rep.worst_location)

    def test_zero_function_passes_with_zero_violation(self, singular_case):
        _, prof = singular_case
        zero = lambda r, t: np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)
        u0 = SpaceTimeFunction(fn=zero, dt=zero, dr=zero, drr=zero, label="zero")
        rep = check_sign(u0, prof, 1.5, 2, grid=make_cert_grid(prof, 32, 32))
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_negated_supersolution_fails_with_witness(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, 64, 64)
        rep = check_sign(negate(spec.fn), prof, 1.5, 2, grid=grid)
        assert not rep.passed
        assert rep.worst_violation < -1e-6
        grid_point(grid, prof, rep.worst_location)

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

    @pytest.mark.parametrize("kind, params", [
        ("degenerate_irregularity", dict(p=3.0, n=1, C=0.02)),
        ("singular_irregularity", dict(p=1.5, n=1, q=0.5)),
        ("degenerate_small_data", dict(p=3.0, n=1, q=0.3, beta=0.5)),
    ])
    def test_field_without_closed_forms_is_rejected(self, kind, params):
        # values alone: a certificate must not fall back to finite
        # differences, which step past t = 0 and report spurious violations
        spec = make_barrier(kind, **params)
        prof = spec.reference_profile()
        bare = SpaceTimeFunction(fn=spec.fn.fn, label=spec.fn.label)
        with pytest.raises(DomainError, match="no closed-form derivatives"):
            check_sign(bare, prof, params["p"], params["n"], grid=make_cert_grid(prof, 64, 64))

    @pytest.mark.parametrize("y, t", [(0.0, -0.5), (1.0, -0.5), (1.5, -0.5),
                                      (0.5, -1.0), (0.5, -1.5), (0.5, 0.0), (0.5, 0.1)])
    def test_grid_outside_the_cusp_rejected(self, family_setup, y, t):
        # one point on the axis, on or past the lateral boundary, at t0, below
        # t0, at the tip's time or after it: every certificate refuses the grid
        prof, _, _, ladder = family_setup
        assert prof.t0 == -1.0
        grid = CertGrid(t_levels=np.array([-0.5, t]), y_levels=np.array([0.5, y]))
        with pytest.raises(DomainError, match="open cusp"):
            check_sign(ladder[0].fn, prof, 3.0, 1, grid=grid)
        with pytest.raises(DomainError, match="open cusp"):
            check_barrier_family(ladder, prof, 3.0, 1, grid=grid)

    def test_residual_non_finite_everywhere_rejected(self, singular_case):
        _, prof = singular_case
        nan = lambda r, t: np.full(np.broadcast(np.asarray(r), np.asarray(t)).shape, np.nan)
        u = SpaceTimeFunction(fn=nan, dt=nan, dr=nan, drr=nan, label="NaN")
        with pytest.raises(DomainError, match="not finite at any grid point"):
            check_sign(u, prof, 1.5, 2, grid=make_cert_grid(prof, 8, 8))

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
        assert grid_point(grid, prof, (r, t)) == (0, 0) and t < t_split

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_fails(self, bad):
        # half the grid's values are non-finite while every residual is
        # finite (0 there, 1 elsewhere): the values alone fail the certificate
        prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
        grid = make_cert_grid(prof, 64, 64)
        u = SpaceTimeFunction.from_formula(lambda r, t: where(t > -1e-3, bad, t + 0.0 * r))
        rep = check_sign(u, prof, 3.0, 1, grid=grid)
        R, T = grid.meshes(prof)
        first = int(np.argmax(T[:, 0] > -1e-3))
        assert (rep.worst_violation, rep.grid["points"]) == (0.0, 64 * 64)
        assert not rep.passed
        assert rep.details == {"non_finite_values": 32 * 64,
                               "first_non_finite_value_location": [float(R[first, 0]),
                                                                   float(T[first, 0])]}

    def test_deterministic_reports(self, singular_case):
        spec, prof = singular_case
        grid = make_cert_grid(prof, 32, 32)
        a = canonical_json(check_sign(spec.fn, prof, 1.5, 2, grid=grid).to_dict())
        b = canonical_json(check_sign(spec.fn, prof, 1.5, 2, grid=grid).to_dict())
        assert a == b


class TestAxisEvaluation:
    """Certificate grids keep t as a column, and formula fields run a block
    of rows at a time on every CPU; the values, derivatives and residuals
    must be those of the fully materialized mesh run whole, bit for bit."""

    KW = {"singular_irregularity": dict(p=1.5, n=2, q=0.25),
          "singular_traditional": dict(p=1.5, n=1, q=0.5),
          "degenerate_irregularity": dict(p=3.0, n=2, C=0.01),
          "degenerate_small_data": dict(p=3.0, n=1, q=0.3, beta=0.5)}

    def field(self, kind, family_setup):
        """(u, p, n, R, T) on a 23 x 17 grid of the family cusp."""
        prof = family_setup[0]
        R, T = make_cert_grid(prof, n_t=23, n_y=17).meshes(prof)
        if kind == "barenblatt":
            return barenblatt_function(3.0, 2, 1.0), 3.0, 2, R, T + 2.0
        if kind == "degenerate_family_member":
            return family_setup[3][0].fn, 3.0, 1, R, T
        kw = self.KW[kind]
        return make_barrier(kind, **kw).fn, kw["p"], kw["n"], R, T

    @pytest.mark.parametrize("kind", BARRIER_KINDS + ("barenblatt",))
    def test_column_matches_full_mesh(self, kind, family_setup, monkeypatch):
        # a small block makes the pass run several row blocks
        monkeypatch.setattr(calculus, "_BLOCK", 100)
        u, _, _, R, T = self.field(kind, family_setup)
        assert T.shape == (23, 1) and R.shape == (23, 17)
        T_full = np.broadcast_to(T, R.shape).copy()
        for r, t, r_full in ((R, T, R), (R[0], T, np.broadcast_to(R[0], R.shape).copy())):
            np.testing.assert_array_equal(np.asarray(u(r, t)), u(r_full, T_full))
            for axis, full in zip(u.derivatives(r, t), u.derivatives(r_full, T_full)):
                assert axis.shape == R.shape
                np.testing.assert_array_equal(axis, full)

    @pytest.mark.parametrize("kind", BARRIER_KINDS + ("barenblatt",))
    def test_split_and_scheduling_change_no_value(self, kind, family_setup, monkeypatch):
        u, p, n, R, T = self.field(kind, family_setup)

        def evaluate():
            return (u(R, T), residual(u, p, n, R, T), *u.derivatives(R, T))

        whole = evaluate()                               # one block, inline
        monkeypatch.setattr(calculus, "_BLOCK", 40)      # 12 blocks of 2 rows, the last of 1
        pooled = evaluate()
        monkeypatch.setattr(calculus, "_pool", lambda: None)
        inline = evaluate()                              # the same blocks in turn
        for a, b, c in zip(whole, pooled, inline):
            assert a.shape == R.shape
            assert np.array_equal(a, b, equal_nan=True) and np.array_equal(a, c, equal_nan=True)

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

    def test_report_does_not_depend_on_the_blocks(self, family_setup, monkeypatch):
        prof, _, _, ladder = family_setup
        grid = make_cert_grid(prof, 64, 64)

        def report_hash():
            return check_barrier_family(ladder, prof, 3.0, 1, grid=grid).to_dict()["report_hash"]

        whole = report_hash()
        monkeypatch.setattr(calculus, "_BLOCK", 500)     # 9 blocks of 7 rows, then 1
        assert report_hash() == report_hash() == whole
        monkeypatch.setattr(calculus, "_pool", lambda: None)
        assert report_hash() == whole

    @pytest.mark.parametrize("p, q, n, nan_after", [
        (3.0, 0.5, 1, None), (4.0, 0.4, 2, None), (3.0, 0.5, 1, -1e-3)])
    def test_margins_match_full_arrays(self, p, q, n, nan_after):
        # reference: every member's margins as minima of full-size arrays
        # and its residual through check_sign; the report's are bit for bit
        # the same, NaN values (on the grid's last time levels) included
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        gauge = envelope_gauge(prof, p, n)
        C0, _ = find_family_threshold(p, n, gauge)
        ladder = [make_barrier("degenerate_family_member", p=p, n=n, q=q, C=C0 * 2 ** j,
                               gauge=gauge) for j in range(4)]
        if nan_after is not None:
            fn = ladder[1].fn.fn
            ladder[1] = replace(ladder[1], fn=replace(ladder[1].fn, fn=lambda r, t: np.where(
                np.asarray(t) > nan_after, np.nan, fn(r, t))))
        grid = make_cert_grid(prof, 48, 40)
        rep = check_barrier_family(ladder, prof, p, n, k_max=2, grid=grid)
        pars = Params(p=p, n=n)
        R, T = grid.meshes(prof)
        signs = []
        for spec, entry in zip(ladder, rep.details["condition_i_members"]):
            C = spec.constants["C"]
            vals = spec.fn(R, T)
            Q = C + pars.kap * pars.chi(R, -T)
            lower = pars.envelope(C, gauge.delta(T), T, scale=1.0 / p)
            signs.append(check_sign(spec.fn, prof, p, n, grid=grid))
            reference = [signs[-1].worst_violation, vals.min(), (Q - C).min(),
                         (2.0 * C - Q).min(), (vals - lower).min()]
            reported = [entry[k] for k in ("residual_worst", "positivity_min",
                                           "sandwich_margin_low", "sandwich_margin_high",
                                           "lower_bound_margin")]
            np.testing.assert_array_equal(reported, reference)
            assert np.signbit(reported).tolist() == np.signbit(reference).tolist()
        worst = min(signs, key=lambda sign: sign.worst_violation)
        assert (rep.worst_violation, rep.worst_location) == (worst.worst_violation,
                                                             worst.worst_location)
        if nan_after is not None:
            assert np.isnan(rep.details["condition_i_members"][1]["lower_bound_margin"])
            assert not rep.details["condition_i_members"][1]["pass"] and not rep.passed

    def test_grid_meshes_are_built_once(self, family_setup, monkeypatch):
        prof, _, _, ladder = family_setup
        calls = []
        meshes = CertGrid.meshes

        def counting(grid, profile):
            calls.append(grid)
            return meshes(grid, profile)

        monkeypatch.setattr(CertGrid, "meshes", counting)
        check_barrier_family(ladder, prof, 3.0, 1, grid=make_cert_grid(prof, 16, 16))
        assert len(calls) == 1

    def test_growth_levels_allocate_little(self, family_setup):
        # condition (iii) at k_max = 2000 holds per level a ladder's worth of
        # numbers, not a copy of every boundary sample (75 MB at 9 members)
        prof, _, _, ladder = family_setup
        grid = make_cert_grid(prof, 16, 16)
        check_barrier_family(ladder, prof, 3.0, 1, k_max=2000, grid=grid)    # warm caches
        tracemalloc.start()
        try:
            rep = check_barrier_family(ladder, prof, 3.0, 1, k_max=2000, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.details["condition_iii_j_of_k"]) == 2000
        assert peak < 4e6

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

    @pytest.mark.parametrize("low_within, j", [(np.less_equal, None), (np.less, 0)])
    def test_growth_level_keeps_samples_at_exactly_one_over_k(self, family_setup,
                                                              low_within, j):
        # the bottom sample (0, t0) lies at distance exactly 1 from the tip,
        # the least distance among the samples level k = 1 keeps; a member
        # below 1 there fails level 1, and one below 1 only nearer passes it
        prof, _, _, ladder = family_setup
        rb, tb = _boundary_samples(prof, n_each=256)
        dist = np.sqrt(rb * rb + tb * tb)
        assert np.count_nonzero(dist == 1.0) == 1 and dist[dist >= 1.0].min() == 1.0
        low = lambda r, t: np.where(low_within(np.sqrt(r * r + t * t), 1.0), 0.5, 5.0)
        member = replace(ladder[0], fn=replace(ladder[0].fn, fn=low))
        rep = check_barrier_family([member], prof, 3.0, 1, k_max=1,
                                   grid=make_cert_grid(prof, 8, 8))
        assert rep.details["condition_iii_j_of_k"] == {"1": j}

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

    @pytest.mark.parametrize("where_bad, bad, count", [
        ("grid", np.inf, 32),           # t > -1e-3 and 0.40 < y < 0.42: one grid column
        ("ray", -np.inf, 64),           # the ray y = 4/9, which no grid point lies on
        ("boundary", np.nan, 257),      # the lateral boundary and the bottom's rim
    ])
    def test_non_finite_member_value_fails(self, family_setup, where_bad, bad, count):
        prof, _, _, ladder = family_setup
        grid = make_cert_grid(prof, 64, 64)
        spec = ladder[2]
        lo, hi = {"grid": (0.40, 0.42), "ray": (0.444, 0.445), "boundary": (0.999, 2.0)}[where_bad]

        def fn(r, t):
            y = np.asarray(r) / prof.zeta(t)
            hit = (lo < y) & (y < hi) & ((np.asarray(t) > -1e-3) | (where_bad != "grid"))
            return np.where(hit, bad, spec.fn(r, t))

        broken = ladder[:2] + [replace(spec, fn=replace(spec.fn, fn=fn))] + ladder[3:]
        assert check_barrier_family(ladder, prof, 3.0, 1, grid=grid).passed
        rep = check_barrier_family(broken, prof, 3.0, 1, grid=grid)
        assert not rep.passed
        entries = {"grid": rep.details["condition_i_members"][2],
                   "ray": rep.details["condition_ii_decay"][2],
                   "boundary": rep.details.get("condition_iii_non_finite", [{}])[0]}
        for name, entry in entries.items():
            assert ("non_finite_values" in entry) == (name == where_bad)
        entry = entries[where_bad]
        assert entry["non_finite_values"] == count and entry.get("pass") in (None, False)
        r, t = entry["first_non_finite_value_location"]
        assert lo < r / float(prof.zeta(t)) < hi

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


class TestLadderPass:
    """The family certificate evaluates its whole ladder in one block pass:
    members on one gauge share kappa chi and the C-free time factors, and
    each member's value is its jet's."""

    @staticmethod
    def signed(r, t):
        # -0.0 near the axis, NaN on the latest time levels, else r^2 t
        return where(t > -1e-4, r * np.nan, where(r < 0.1 * (-t) ** 0.5, -0.0 * r, r * r * t))

    @pytest.mark.parametrize("p, q, n", [(3.0, 0.5, 1), (4.0, 0.4, 2), (2.5, 0.6, 1)])
    def test_members_match_a_lone_evaluation(self, monkeypatch, p, q, n):
        # nine members of a ladder, a formula with signed zeros and NaN, and
        # a hand-built field, in blocks of 2 rows
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        gauge = envelope_gauge(prof, p, n)
        C0, _ = find_family_threshold(p, n, gauge)
        ladder = [make_barrier("degenerate_family_member", p=p, n=n, q=q, C=C0 * 2 ** j,
                               gauge=gauge).fn for j in range(9)]
        fields = ladder + [SpaceTimeFunction.from_formula(self.signed), negate(ladder[0])]
        monkeypatch.setattr(calculus, "_BLOCK", 600)
        R, T = make_cert_grid(prof, 37, 256).meshes(prof)
        pars = Params(p=p, n=n)

        def block(rb, tb):
            kap_chi, jet_of = _ladder_jets(rb, tb, (pars, gauge))
            out = [np.broadcast_to(kap_chi.v, rb.shape)]
            for u in fields:
                jet = jet_of(u)
                out += [np.broadcast_to(jet.v, rb.shape), _closed_residual(jet, rb, p, n)]
            return out

        kap_chi, *arrays = calculus._run_blocks(block, R, T, 1 + 2 * len(fields))
        pairs = [(kap_chi, pars.kap * pars.chi(R, -T))]
        for u, value, res in zip(fields, arrays[::2], arrays[1::2]):
            pairs += [(value, u(R, T)), (res, residual(u, p, n, R, T))]
        for got, lone in pairs:
            nan = np.isnan(lone)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got, lone, equal_nan=True)
            assert np.array_equal(np.signbit(got[~nan]), np.signbit(lone[~nan]))
        value = arrays[2 * len(ladder)]
        assert np.isnan(value).any() and (np.signbit(value) & (value == 0.0)).any()

    def test_members_share_one_evaluation_of_the_factors(self, family_setup, monkeypatch):
        # 19 blocks of 2 rows: the factors are built once per block, and no
        # member runs its whole formula on the grid; each runs it only for
        # its rays and its boundary samples
        prof, _, _, ladder = family_setup
        monkeypatch.setattr(calculus, "_BLOCK", 600)
        shared, whole = [], []
        factors, call = verify_module.family_factors, FamilyFormula.__call__
        monkeypatch.setattr(verify_module, "family_factors",
                            lambda *args: shared.append(1) or factors(*args))
        monkeypatch.setattr(FamilyFormula, "__call__",
                            lambda self, r, t: whole.append(1) or call(self, r, t))
        rep = check_barrier_family(ladder, prof, 3.0, 1, grid=make_cert_grid(prof, 37, 256))
        assert rep.passed
        assert (len(shared), len(whole)) == (19, 2 * len(ladder))

    def test_changed_member_is_certified_from_its_own_formula(self, family_setup):
        prof, _, _, ladder = family_setup
        grid = make_cert_grid(prof, 32, 32)
        formula = ladder[2].fn.formula
        changed = SpaceTimeFunction.from_formula(lambda r, t: -formula(r, t))
        broken = ladder[:2] + [replace(ladder[2], fn=changed)] + ladder[3:]
        rep = check_barrier_family(broken, prof, 3.0, 1, grid=grid)
        members = rep.details["condition_i_members"]
        assert not rep.passed and not members[2]["pass"]
        assert all(m["pass"] for i, m in enumerate(members) if i != 2)
        R, T = grid.meshes(prof)
        alone = check_sign(changed, prof, 3.0, 1, grid=grid)
        assert members[2]["residual_worst"] == alone.worst_violation < -1e-6
        assert members[2]["positivity_min"] == changed(R, T).min() < 0.0
        assert (rep.worst_violation, rep.worst_location) == (alone.worst_violation,
                                                             alone.worst_location)

    def test_ladder_holds_no_full_size_array_per_member(self, family_setup, monkeypatch):
        # residuals, values and kappa chi are reduced inside each block, so
        # the grid's radii are the one full-size array of a certificate; on
        # one CPU one block's working set comes on top, whatever the grid.
        # From 256^2 to 512^2 the peak grows by less than two grid arrays
        prof, _, _, ladder = family_setup
        monkeypatch.setattr(calculus, "_pool", lambda: None)
        check_barrier_family(ladder, prof, 3.0, 1, grid=make_cert_grid(prof, 256, 256))  # warm
        peaks = []
        for size in (256, 512):
            grid = make_cert_grid(prof, size, size)
            tracemalloc.start()
            try:
                assert check_barrier_family(ladder, prof, 3.0, 1, grid=grid).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 8 * (512 ** 2 - 256 ** 2)


class TestResidualReduction:
    """Both certificates reduce the residual block by block with one rule:
    NaN counts as +inf, the first of equal values counts, and every
    non-finite value is counted and fails.  Where some residual is finite,
    that gives np.nanargmin's worst over the whole grid."""

    def field(self, grid, prof, res_full):
        """A hand-built field whose residual on the grid is res_full: dt
        reads it by time level, and u_r = u_rr = 0, so Lap_p u = 0."""
        R, T = grid.meshes(prof)

        def dt(r, t):
            return res_full[np.searchsorted(grid.t_levels, np.asarray(t)[:, 0])]

        def zero(r, t):
            return np.zeros(np.broadcast(np.asarray(r), np.asarray(t)).shape)

        return SpaceTimeFunction(fn=lambda r, t: 1.0 + zero(r, t), dt=dt, dr=zero, drr=zero,
                                 label="pattern"), R, T

    @pytest.mark.parametrize("block", [16, 1 << 15])
    def test_inf_and_nan_residuals(self, family_setup, monkeypatch, block):
        # 8 blocks of 2 rows: NaN and +inf in block 1, block 2 all NaN, -inf
        # in block 3 and finite values everywhere else; or one block
        prof, _, _, ladder = family_setup
        monkeypatch.setattr(calculus, "_BLOCK", block)
        grid = make_cert_grid(prof, 16, 8)
        res = np.linspace(-2.0, 3.0, 16 * 8).reshape(16, 8)
        res[2, 3], res[3, 1], res[4:6] = np.nan, np.inf, np.nan
        res[7, 5] = -np.inf
        u, R, T = self.field(grid, prof, res)
        location = [float(R[7, 5]), float(T[7, 0])]
        assert int(np.nanargmin(res)) == 7 * 8 + 5
        sign = check_sign(u, prof, 3.0, 1, grid=grid)
        family = check_barrier_family([replace(ladder[0], fn=u)], prof, 3.0, 1, k_max=1,
                                      grid=grid)
        for rep in (sign, family):
            assert rep.worst_violation == -np.inf and list(rep.worst_location) == location
            assert not rep.passed
        assert sign.grid["points"] == 16 * 8 - 19
        assert sign.details == {"non_finite_points": 19,
                                "first_non_finite_location": [float(R[2, 3]), float(T[2, 0])]}
        member = family.details["condition_i_members"][0]
        assert member["residual_worst"] == -np.inf and not member["pass"]

    def test_nan_is_skipped(self, family_setup, monkeypatch):
        # without -inf the worst is the least finite value, not the +inf
        # nor the NaN that np.argmin would have returned
        prof, _, _, ladder = family_setup
        monkeypatch.setattr(calculus, "_BLOCK", 16)
        grid = make_cert_grid(prof, 16, 8)
        res = np.linspace(3.0, -2.0, 16 * 8).reshape(16, 8)
        res[0, 0], res[9, 2], res[15, 7] = np.inf, np.nan, np.nan
        u, R, T = self.field(grid, prof, res)
        for rep in (check_sign(u, prof, 3.0, 1, grid=grid),
                    check_barrier_family([replace(ladder[0], fn=u)], prof, 3.0, 1, k_max=1,
                                         grid=grid)):
            assert rep.worst_violation == res[15, 6]
            assert list(rep.worst_location) == [float(R[15, 6]), float(T[15, 0])]
            assert not rep.passed

    def test_no_finite_residual_raises(self, family_setup, monkeypatch):
        prof, _, _, ladder = family_setup
        monkeypatch.setattr(calculus, "_BLOCK", 16)
        grid = make_cert_grid(prof, 16, 8)
        res = np.full((16, 8), np.nan)
        res[3, 3], res[12, 0] = np.inf, -np.inf
        u, _, _ = self.field(grid, prof, res)
        with pytest.raises(DomainError, match="not finite at any grid point"):
            check_sign(u, prof, 3.0, 1, grid=grid)
        with pytest.raises(DomainError, match="not finite at any grid point"):
            check_barrier_family([replace(ladder[0], fn=u)], prof, 3.0, 1, grid=grid)


    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 9)),
           block=st.integers(1, 40), data=st.data())
    def test_random_layout_matches_the_whole_grid(self, family_setup, shape, block, data):
        # NaN, +inf, -inf and tied finite values at random places, reduced
        # in blocks of at most `block` points, against one whole-grid
        # reduction: np.nanargmin for the worst, np.isfinite for the counts
        prof, _, _, ladder = family_setup
        n_t, n_y = shape
        entries = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -1e-11, 0.0, 2.0])
        res = np.array(data.draw(st.lists(entries, min_size=n_t * n_y, max_size=n_t * n_y)))
        res = res.reshape(n_t, n_y)
        grid = make_cert_grid(prof, n_t, n_y)
        u, R, T = self.field(grid, prof, res)
        member = replace(ladder[0], fn=u)
        finite = np.isfinite(res)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calculus, "_BLOCK", block)
            if not finite.any():
                with pytest.raises(DomainError, match="not finite at any grid point"):
                    check_sign(u, prof, 3.0, 1, grid=grid)
                return
            sign = check_sign(u, prof, 3.0, 1, grid=grid)
            family = check_barrier_family([member], prof, 3.0, 1, k_max=1, grid=grid)
        locate = lambda index: [float(R.flat[index]), float(T[index // n_y, 0])]
        worst = int(np.nanargmin(res))
        bad = np.flatnonzero(~finite)
        details = ({"non_finite_points": int(bad.size),
                    "first_non_finite_location": locate(bad[0])} if bad.size else {})
        assert sign.worst_violation == res.flat[worst]
        assert list(sign.worst_location) == locate(worst)
        assert sign.grid["points"] == int(finite.sum())
        assert sign.details == details
        assert sign.passed == (res.flat[worst] >= -SIGN_TOL and not bad.size)
        assert family.worst_violation == res.flat[worst]
        assert list(family.worst_location) == locate(worst)
        assert family.details["condition_i_members"][0]["residual_worst"] == res.flat[worst]


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
    def test_report_hash_is_64_hex_and_leaves_out_generated_at(self, singular_case):
        spec, prof = singular_case
        rep = check_sign(spec.fn, prof, 1.5, 2, grid=make_cert_grid(prof, 16, 16))
        blob = rep.to_dict()
        assert "report_hash" in blob and len(blob["report_hash"]) == 64
        import json as _json
        payload = {k: v for k, v in blob.items() if k != "report_hash"}
        parsed = _json.loads(canonical_json(stamp(payload, with_timestamp=True)))
        assert "generated_at" in parsed
        assert parsed["report_hash"] == blob["report_hash"]  # timestamp excluded

    def test_canonical_json_writes_the_shortest_round_trip_repr(self):
        # repr's digits read back as the same double, so nothing is rounded
        blob = canonical_json({"a": 1.0 / 3.0, "b": np.float64(0.1), "c": 2.0 ** -1074,
                               "d": 1e22, "e": -0.0, "f": np.float32(0.1)})
        assert blob == ('{"a": 0.3333333333333333, "b": 0.1, "c": 5e-324, "d": 1e+22, '
                        '"e": -0.0, "f": 0.10000000149011612}')

    def test_canonical_json_quotes_non_finite_floats(self):
        blob = canonical_json({"a": float("nan"), "b": np.float64(np.inf), "c": -np.inf})
        assert blob == '{"a": "NaN", "b": "Infinity", "c": "-Infinity"}'

    def test_canonical_json_numpy_values_match_python(self):
        as_numpy = {"i": np.int64(7), "b": np.bool_(True), "f": np.float32(0.1),
                    "a": np.array([[0.5, 1.0], [2.0, 3.0]])}
        as_python = {"i": 7, "b": True, "f": float(np.float32(0.1)),
                     "a": [[0.5, 1.0], [2.0, 3.0]]}
        assert canonical_json(as_numpy) == canonical_json(as_python)
