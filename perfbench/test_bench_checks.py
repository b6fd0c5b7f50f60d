"""The benchmark's correctness checks must flag deliberately wrong outputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench_checks.py
"""

import contextlib
import io
import json

import numpy as np
import pytest

import checks
from petrocheck import SolverConfig, SpaceTimeFunction, make_barrier, make_profile, solve_dirichlet
from petrocheck import cli
from petrocheck.verify import check_sign, make_cert_grid


@pytest.fixture(scope="module")
def ordered_pair():
    prof = make_profile("power", K=1.0, q=0.5, t0=-1.0)
    cfg = SolverConfig(n_y=17, n_t=20, eps_min=1e-1)
    f1 = lambda r, t: 0.2 + 0.3 * np.sin(2.0 * np.asarray(r, dtype=float)) + 0.1 * np.asarray(t)
    f2 = lambda r, t: f1(r, t) + 0.2 * np.cos(np.asarray(t)) ** 2
    return solve_dirichlet(prof, 3.0, 1, f1, cfg), solve_dirichlet(prof, 3.0, 1, f2, cfg)


@pytest.fixture(scope="module")
def irregular_report():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["classify", "--p", "1.8", "--q", "0.3", "--n", "2", "--with-probe"])
    assert code == 0
    return json.loads(buf.getvalue())


def test_ordered_pair_passes_and_swapped_pair_is_flagged(ordered_pair):
    u1, u2 = ordered_pair
    assert checks.check_comparison(u1.values, u2.values) == []
    assert checks.check_comparison(u2.values, u1.values)


def test_max_principle_flags_a_field_outside_its_data(ordered_pair):
    u1 = ordered_pair[0]
    zeta = lambda t: (-np.asarray(t, dtype=float)) ** 0.5
    f1 = lambda r, t: 0.2 + 0.3 * np.sin(2.0 * np.asarray(r, dtype=float)) + 0.1 * np.asarray(t)
    lo, hi = checks.boundary_range(f1, u1.y_nodes, u1.t_nodes, zeta)
    assert checks.check_max_principle(u1.values, lo, hi) == []
    assert checks.check_max_principle(u1.values + 1e-6, lo, hi)


def test_report_passes_and_trend_contradicting_verdict_is_flagged(irregular_report):
    text = json.dumps(irregular_report)
    assert checks.check_classify_report(text, 1.8, 0.3, 2) == []
    bad = json.loads(text)
    bad["verdict"]["numeric_trend"] = "attains"
    bad["report_hash"] = checks.report_hash(bad)       # only the trend is wrong
    problems = checks.check_classify_report(json.dumps(bad), 1.8, 0.3, 2)
    assert any("contradicts" in msg for msg in problems)


def test_tampered_report_hash_is_flagged(irregular_report):
    bad = dict(irregular_report)
    bad["report_hash"] = ("0" if bad["report_hash"][0] != "0" else "1") + bad["report_hash"][1:]
    problems = checks.check_classify_report(json.dumps(bad), 1.8, 0.3, 2)
    assert problems == ["report_hash does not match the report"]


def test_dichotomy_table():
    assert checks.dichotomy(3.0, 0.34) == "Regular"
    assert checks.dichotomy(3.0, 1.0 / 3.0) == "Irregular"
    assert checks.dichotomy(2.0, 0.5) == "Regular"
    assert checks.dichotomy(2.0, 0.49) == "Irregular"
    assert checks.dichotomy(1.5, 0.8) == "Regular"
    assert checks.dichotomy(1.5, 0.5) == "Irregular"


def test_certificate_with_nan_residual_on_part_of_the_grid_is_flagged():
    spec = make_barrier("degenerate_irregularity", p=3.0, n=1, C=0.02)
    profile = spec.reference_profile()
    grid = make_cert_grid(profile, n_t=64, n_y=64)
    n_t, n_y = 64, 64
    good = check_sign(spec.fn, profile, 3.0, 1, grid=grid).to_dict()
    assert checks.check_certificate(good, n_t, n_y) == []

    def nan_outer(g):
        def h(r, t):
            r = np.asarray(r, dtype=float)
            return np.where(r < 0.5 * profile.zeta(t), g(r, t), np.nan)
        return h

    u = spec.fn
    broken = SpaceTimeFunction(fn=nan_outer(u.fn), dt=nan_outer(u.dt), dr=nan_outer(u.dr),
                               drr=nan_outer(u.drr), label="half NaN")
    cert = check_sign(broken, profile, 3.0, 1, grid=grid).to_dict()
    assert checks.check_certificate(cert, n_t, n_y)
    t_levels, y_levels = checks.cert_grid(-1.0, n_t, n_y)
    t = np.repeat(t_levels, n_y)
    r = np.tile(y_levels, n_t) * profile.zeta(t)
    assert checks.check_residual_floor(broken, 3.0, 1, r, t, cert["worst_violation"])
    assert checks.check_residual_floor(u, 3.0, 1, r, t, good["worst_violation"]) == []


def test_exact_solution_error_that_does_not_shrink_is_flagged():
    assert checks.check_convergence([1.60e-2, 8.1e-3]) == []
    assert checks.check_convergence([1.60e-2, 1.55e-2])
    assert checks.check_convergence([1.60e-2, float("nan")])


def test_residual_floor_flags_a_minimum_above_the_true_residual():
    # the closed form is an exact solution: its residual is 0 everywhere
    p, n = 3.0, 1
    u = checks.exact_solution(p, n)
    t = np.linspace(-0.9, -0.1, 5)
    r = 0.5 * (-t) ** (1.0 / p)
    assert checks.check_residual_floor(u, p, n, r, t, 0.0) == []
    assert checks.check_residual_floor(u, p, n, r, t, 1e-3)
