"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from petrocheck.barriers import (
    c_max,
    find_family_threshold,
    make_barrier,
)
from petrocheck.calculus import (
    SpaceTimeFunction,
    barenblatt_function,
    barenblatt_support_radius,
    p_laplacian_radial_fd,
    p_laplacian_radial_power,
    residual,
)
from petrocheck.domains import (
    DomainProfile,
    envelope_gauge,
    gauge_of,
    geometric_times,
    make_profile,
    monotone_smooth_envelope,
    running_sup,
)
from petrocheck.solver import SolverConfig, classify, probe_origin, solve_dirichlet
from petrocheck.verify import (
    check_barrier_family,
    check_scaling_equivariance,
    check_sign,
    make_cert_grid,
)


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_lemma_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(431)
    worst = 0.0
    n_samples = 200
    for _ in range(n_samples):
        p = float(rng.uniform(1.2, 5.0))
        n = int(rng.integers(1, 4))
        C = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(0.6, 3.0))
        r = float(rng.uniform(0.3, 2.0))
        closed = p_laplacian_radial_power(C, alpha, p, n, r)
        u = SpaceTimeFunction(
            fn=lambda rr, tt, C=C, alpha=alpha: C * np.asarray(rr, dtype=float) ** alpha)
        oracle = p_laplacian_radial_fd(u, p, n, r, -1.0)
        worst = max(worst, abs(closed - oracle) / (1.0 + abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, "lemma agreement", ok,
           f"{n_samples} tuples, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_barenblatt_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(432)
    worst = 0.0
    for p, n in [(3.0, 2), (4.0, 1), (1.9, 2)]:
        B = barenblatt_function(p, n, 1.0)
        points = []
        for _ in range(100):
            t = float(rng.uniform(0.5, 2.0))
            if p > 2:
                rs = barenblatt_support_radius(t, p, n, 1.0)
                points.append((float(rng.uniform(0.02 * rs, 0.95 * rs)), t))
            else:
                points.append((float(rng.uniform(0.05, 3.0)), t))
        r, t = np.array(points).T
        worst = max(worst, float(np.max(np.abs(residual(B, p, n, r, t, method="fd")))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(2, "self-similar solution residual", ok,
           f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_sign_certificates():
    t0 = time.perf_counter()
    cases = []
    for p, q, n in [(1.3, 0.2, 1), (1.5, 0.25, 2), (1.8, 0.3, 3),
                    (1.5, 0.4, 1), (1.8, 0.5, 2)]:
        cases.append(make_barrier("singular_irregularity", p=p, n=n, q=q))
    for p, q, n in [(1.3, 1.0 / 1.3, 2), (1.5, 0.25, 1), (1.5, 2.0 / 3.0, 2),
                    (1.8, 0.5, 1), (1.8, 0.35, 3)]:
        cases.append(make_barrier("singular_traditional", p=p, n=n, q=q))
    for p, n, frac in [(2.5, 1, 0.5), (3.0, 2, 0.9), (4.0, 3, 0.3),
                       (3.0, 1, 1.0), (2.5, 2, 0.7)]:
        cases.append(make_barrier("degenerate_irregularity", p=p, n=n,
                                  C=frac * c_max(p, n)))
    for p, q, n, beta in [(2.5, 0.4, 1, 0.6), (3.0, 1.0 / 3.0, 2, 0.5),
                          (4.0, 0.25, 1, 0.8), (3.0, 0.3, 3, 0.4),
                          (4.0, 0.2, 2, 0.5)]:
        cases.append(make_barrier("degenerate_small_data", p=p, n=n, q=q, beta=beta))
    for p, n, q in [(2.5, 1, 0.5), (3.0, 1, 0.5), (4.0, 1, 0.3),
                    (3.0, 2, 0.4), (2.5, 2, 0.45)]:
        prof = make_profile("power", K=1.0, q=q, t0=-1.0)
        gauge = envelope_gauge(prof, p, n)
        C0, _ = find_family_threshold(p, n, gauge)
        cases.append(make_barrier("degenerate_family_member", p=p, n=n, q=q,
                                  C=C0, gauge=gauge))
    worst = np.inf
    for spec in cases:
        prof = spec.reference_profile()
        rep = check_sign(spec.fn, prof, spec.params.p, spec.params.n,
                         grid=make_cert_grid(prof, n_t=128, n_y=128))
        worst = min(worst, rep.worst_violation)
        assert rep.passed, f"{spec.kind} p={spec.params.p} failed: {rep.worst_violation}"
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 60.0
    report(3, "sign certificates for all barrier kinds", ok,
           f"{len(cases)} tuples on 128x128, worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_degenerate_family_certificate():
    t0 = time.perf_counter()
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    gauge = envelope_gauge(prof, 3.0, 1)
    C0, details = find_family_threshold(3.0, 1, gauge)
    ladder = [make_barrier("degenerate_family_member", p=3.0, n=1, q=0.5, K=1.0,
                           C=C0 * 2 ** j, gauge=gauge) for j in range(9)]
    rep = check_barrier_family(ladder, prof, 3.0, 1, k_max=4,
                               grid=make_cert_grid(prof, n_t=128, n_y=128))
    members = rep.details["condition_i_members"]
    sandwich_ok = all(m["sandwich_margin_low"] >= -1e-10
                      and m["sandwich_margin_high"] >= -1e-10 for m in members)
    lower_ok = all(m["lower_bound_margin"] >= -1e-10 for m in members)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and sandwich_ok and lower_ok and elapsed < 120.0
    report(4, "degenerate family certificate", ok,
           f"C0={C0}, j(k)={rep.details['condition_iii_j_of_k']}, {elapsed:.1f}s")


def _witness(profile, p, n, barrier, cfg):
    fld = solve_dirichlet(profile, p, n, lambda r, t: barrier.fn(r, t), cfg)
    # the barrier on the field's mesh (y zeta(t), t), in one evaluation
    R = fld.y_nodes[None, :] * np.asarray(profile.zeta(fld.t_nodes))[:, None]
    T = np.broadcast_to(fld.t_nodes[:, None], R.shape)
    worst = float(np.max(fld.values - np.asarray(barrier.fn(R, T))))
    return worst, float(fld.values[-1, 0])


def test_criterion_5_irregularity_witness():
    t0 = time.perf_counter()
    cfg = SolverConfig(n_y=129, n_t=2000, eps_min=1e-4)

    prof_s = make_profile("power", K=1.0, q=0.25, t0=-1.0)
    bar_s = make_barrier("singular_irregularity", p=1.5, n=2, q=0.25)
    worst_s, end_s = _witness(prof_s, 1.5, 2, bar_s, cfg)
    tip_s = bar_s.constants["tip_value"]       # f(0,0) = 1

    prof_d = make_profile("power", K=1.0, q=1.0 / 3.0, t0=-1.0)
    C = 0.5 * c_max(3.0, 2)
    bar_d = make_barrier("degenerate_irregularity", p=3.0, n=2, C=C)
    worst_d, end_d = _witness(prof_d, 3.0, 2, bar_d, cfg)
    tip_d = bar_d.constants["C"]               # f(0,0) = C

    elapsed = time.perf_counter() - t0
    ok = (worst_s <= 1e-6 and end_s <= 0.5 * tip_s
          and worst_d <= 1e-6 and end_d <= 0.5 * tip_d)
    report(5, "irregularity witness (solution stays under the barrier)", ok,
           f"singular: sup(u-bar)={worst_s:.1e}, u(0,-1e-4)={end_s:.3f} vs tip 1; "
           f"degenerate: sup={worst_d:.1e}, u(0,-1e-4)={end_d:.1e} vs tip {tip_d:.3e}; "
           f"{elapsed:.1f}s")


def test_criterion_6_dichotomy_trend():
    t0 = time.perf_counter()
    # the default ladder, the one `classify --with-probe` runs
    out_reg = probe_origin(make_profile("power", K=1.0, q=0.6, t0=-1.0), 3.0, 1)
    out_irr = probe_origin(make_profile("power", K=1.0, q=0.2, t0=-1.0), 3.0, 1)
    elapsed = time.perf_counter() - t0
    ok = out_reg["trend"] == "attains" and out_irr["trend"] == "gap" and elapsed < 600.0
    report(6, "tip-attainment dichotomy trend", ok,
           f"q=0.6 -> {out_reg['trend']} {np.round(out_reg['endpoints'], 4).tolist()}, "
           f"q=0.2 -> {out_irr['trend']} {np.round(out_irr['endpoints'], 4).tolist()}, "
           f"{elapsed:.1f}s")


def test_criterion_7_scaling_equivariance():
    t0 = time.perf_counter()
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    base = check_scaling_equivariance(
        prof, 3.0, 2.0, cfg=SolverConfig(n_y=65, n_t=200, eps_min=1e-3))
    refined = check_scaling_equivariance(
        prof, 3.0, 2.0,
        cfg=SolverConfig(n_y=129, n_t=400, eps_min=1e-3, c_step=0.25))
    elapsed = time.perf_counter() - t0
    ok = (base.worst_violation <= 1e-3
          and refined.worst_violation < base.worst_violation)
    report(7, "scaling equivariance", ok,
           f"mismatch {base.worst_violation:.2e} -> {refined.worst_violation:.2e} "
           f"under refinement, {elapsed:.1f}s")


def test_criterion_8_comparison_and_max_principle():
    t0 = time.perf_counter()
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    cfg = SolverConfig(n_y=65, n_t=200, eps_min=1e-3)
    rng = np.random.default_rng(433)
    worst = -np.inf
    for _ in range(20):
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(0.5, 3.0))
        c = float(rng.uniform(-1.0, 1.0))
        amp = float(rng.uniform(0.05, 0.6))
        w = float(rng.uniform(1.0, 4.0))

        def f1(r, t, a=a, b=b, c=c):
            return a + 0.4 * np.sin(b * np.asarray(r, dtype=float) + c) + 0.2 * np.asarray(t)

        def f2(r, t, f1=f1, amp=amp, w=w):
            gap = amp * np.sin(w * np.asarray(r, dtype=float)) ** 2 * np.cos(np.asarray(t)) ** 2
            return np.asarray(f1(r, t)) + gap

        u1 = solve_dirichlet(prof, 3.0, 1, f1, cfg)
        u2 = solve_dirichlet(prof, 3.0, 1, f2, cfg)
        worst = max(worst, float(np.max(u1.values - u2.values)))
    fc = lambda r, t: 0.37 + 0.0 * np.asarray(r, dtype=float)
    const_field = solve_dirichlet(prof, 3.0, 1, fc, cfg)
    const_dev = float(np.max(np.abs(const_field.values - 0.37)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and const_dev <= 1e-10
    report(8, "comparison and max principle", ok,
           f"20 ordered pairs, worst violation {worst:.2e}, "
           f"constant deviation {const_dev:.2e}, {elapsed:.1f}s")


def test_criterion_9_classifier_table():
    cells = {
        (1.5, 0.5): "Irregular", (1.5, 2.0 / 3.0): "Unknown", (1.5, 0.8): "Regular",
        (2.0, 0.4): "Irregular", (2.0, 0.5): "Regular", (2.0, 0.6): "Regular",
        (3.0, 0.2): "Irregular", (3.0, 1.0 / 3.0): "Irregular", (3.0, 0.5): "Regular",
    }
    got = {key: classify(*key).theorem_verdict for key in cells}
    ok = got == cells
    report(9, "regularity classifier table (exact)", ok,
           "9-cell table, zero tolerance")


def test_criterion_10_envelope_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(434)
    p, n = 3.0, 2
    failures = []
    for trial in range(50):
        q = float(rng.uniform(0.25, 0.8))
        K = float(rng.uniform(0.5, 2.0))
        a1 = float(rng.uniform(0.0, 0.35))
        w1 = float(rng.uniform(0.5, 3.0))
        ph = float(rng.uniform(0.0, 6.28))

        def zeta(t, K=K, q=q, a1=a1, w1=w1, ph=ph):
            tau = -np.asarray(t, dtype=float)
            return K * tau ** q * (1.0 + a1 * np.sin(w1 * np.log(tau) + ph))

        prof = DomainProfile(kind="perturbed-power", t0=-1.0, zeta=zeta)
        gauge = gauge_of(prof, p, n)
        ts = gauge.t_samples
        h = gauge.weighted(ts)
        h_tilde = running_sup(h)
        if not np.array_equal(running_sup(h_tilde), h_tilde):
            failures.append((trial, "idempotence"))
            continue
        if np.any(np.diff(h_tilde) < 0):
            failures.append((trial, "monotonization"))
            continue
        delta_tilde = (-ts) ** gauge.beta * h_tilde
        env = monotone_smooth_envelope(ts, delta_tilde, gauge.beta)
        dhat = np.asarray(env.delta(ts))
        if not (np.all(dhat > delta_tilde) and np.all(dhat < 2.0 * delta_tilde)):
            failures.append((trial, "sandwich"))
            continue
        wh = env.weighted(ts)
        if np.any(np.diff(wh) < -1e-12 * np.maximum(1.0, wh[:-1])):
            failures.append((trial, "weighted monotonicity"))
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(10, "envelope pipeline on randomized gauges", ok,
           f"50 gauges, failures={failures!r}, {elapsed:.1f}s")
