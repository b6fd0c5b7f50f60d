"""Correctness checks of the benchmark, written apart from petrocheck.

Every check compares a program output against a computation made here
(the dichotomy table, a sha256 over the parsed report, the closed-form
exact solution, a central-difference residual) or against a property the
method must have (discrete comparison, maximum principle, convergence
order).  None of them imports petrocheck, and none compares against a
stored copy of earlier output.  Each returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

COMPARISON_TOL = 1e-10     # u1 <= u2 + tol everywhere (discrete comparison)
MAX_PRINCIPLE_TOL = 1e-10  # fields stay within [min data - tol, max data + tol]
CONSTANT_TOL = 1e-10       # constant data are reproduced to this
MIN_ORDER = 0.9            # observed order of the exact-solution error


# ---------------------------------------------------------------- probe_ladder

def dichotomy(p: float, q: float) -> str:
    """Regularity of the tip of |x| < K(-t)^q, restated from the paper.

    p > 2: regular iff q > 1/p; p = 2: regular iff q >= 1/2; p < 2: regular
    if q > 1/p, irregular if q < 1/p (the borderline is never a benchmark
    cell, so it is refused here).
    """
    if p > 2:
        return "Regular" if q > 1.0 / p else "Irregular"
    if p == 2:
        return "Regular" if q >= 0.5 else "Irregular"
    if q == 1.0 / p:
        raise ValueError("borderline cell q = 1/p with p < 2 has no verdict")
    return "Regular" if q > 1.0 / p else "Irregular"


def report_hash(report: dict) -> str:
    """sha256 of the report without its hash and timestamp, keys sorted."""
    body = {k: v for k, v in report.items() if k not in ("report_hash", "generated_at")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_classify_report(text: str, p: float, q: float, n: int) -> list:
    """Problems in the output of `petrocheck classify --with-probe` for one cell."""
    try:
        report = json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        return [f"output is not one JSON report: {err}"]
    problems = []
    if report.get("report_hash") != report_hash(report):
        problems.append("report_hash does not match the report")
    cfg = report.get("config", {})
    if (cfg.get("p"), cfg.get("q"), cfg.get("n"), cfg.get("with_probe")) != (p, q, n, True):
        problems.append(f"config {cfg} is not the requested cell")
    if "warning" in report:
        problems.append(f"probe warning: {report['warning']}")
    verdict = report.get("verdict", {})
    expected = dichotomy(p, q)
    if verdict.get("theorem_verdict") != expected:
        problems.append(f"verdict {verdict.get('theorem_verdict')} != table {expected}")
    trend = verdict.get("numeric_trend")
    want_trend = "attains" if expected == "Regular" else "gap"
    if trend != want_trend:
        problems.append(f"trend {trend} contradicts verdict {expected}")
    ends = verdict.get("meta", {}).get("probe", {}).get("endpoints")
    if not isinstance(ends, list) or len(ends) < 2:
        problems.append(f"probe endpoints missing: {ends}")
        return problems
    if not all(isinstance(e, float) and 0.0 <= e <= 1.0 for e in ends):
        problems.append(f"endpoints {ends} leave [0, 1], the range of the probe datum")
    if trend == "attains" and not all(b < a for a, b in zip(ends, ends[1:])):
        problems.append(f"attains endpoints {ends} do not strictly decrease")
    return problems


# ----------------------------------------------------------------- solve_batch

def check_comparison(u1: np.ndarray, u2: np.ndarray) -> list:
    """Ordered data must give ordered fields: u1 <= u2 + COMPARISON_TOL everywhere."""
    if u1.shape != u2.shape:
        return [f"pair shapes differ: {u1.shape} vs {u2.shape}"]
    worst = float(np.max(u1 - u2))
    if not worst <= COMPARISON_TOL:
        return [f"comparison violated: max(u1 - u2) = {worst:.3e} > {COMPARISON_TOL:.0e}"]
    return []


def boundary_range(f, y: np.ndarray, t_nodes: np.ndarray, zeta) -> tuple:
    """Min and max of the data f on the discrete parabolic boundary.

    Bottom slice: r = y zeta(t0) at t0; lateral nodes: r = zeta(t_k), k >= 1.
    """
    t0 = float(t_nodes[0])
    bottom = np.asarray(f(y * zeta(t0), t0), dtype=float)
    lateral = np.array([float(f(zeta(float(t)), float(t))) for t in t_nodes[1:]])
    vals = np.concatenate([np.ravel(bottom), lateral])
    return float(vals.min()), float(vals.max())


def check_max_principle(values: np.ndarray, lo: float, hi: float) -> list:
    vmin, vmax = float(values.min()), float(values.max())
    if not (vmin >= lo - MAX_PRINCIPLE_TOL and vmax <= hi + MAX_PRINCIPLE_TOL):
        return [f"field range [{vmin:.12g}, {vmax:.12g}] leaves data range "
                f"[{lo:.12g}, {hi:.12g}]"]
    return []


def check_constant(values: np.ndarray, c: float) -> list:
    dev = float(np.max(np.abs(values - c)))
    if not dev <= CONSTANT_TOL:
        return [f"constant data {c} reproduced only to {dev:.3e}"]
    return []


def c_max(p: float, n: int) -> float:
    """((p-2)^(p-1) / (lam p^(p-1)))^(1/(p-2)), lam = n(p-2)+p."""
    lam = n * (p - 2.0) + p
    return ((p - 2.0) ** (p - 1.0) / (lam * p ** (p - 1.0))) ** (1.0 / (p - 2.0))


def exact_solution(p: float, n: int):
    """C (r^p/(-t))^(1/(p-2)) at C = c_max(p, n): exact on |x| < (-t)^(1/p)."""
    C = c_max(p, n)

    def u(r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        return C * (r ** p / (-t)) ** (1.0 / (p - 2.0))

    return u


def exact_error(values: np.ndarray, y: np.ndarray, t_nodes: np.ndarray, u, zeta) -> float:
    """Max error over the space-time grid relative to the max of the exact field."""
    R = y[None, :] * zeta(t_nodes)[:, None]
    E = u(R, t_nodes[:, None])
    return float(np.max(np.abs(values - E)) / np.max(np.abs(E)))


def check_convergence(errors: list) -> list:
    """Errors at successively doubled n_y must fall at an order >= MIN_ORDER."""
    problems = []
    for coarse, fine in zip(errors, errors[1:]):
        if not (math.isfinite(coarse) and math.isfinite(fine) and fine > 0.0):
            problems.append(f"exact-solution errors {errors} are not finite and positive")
            continue
        order = math.log2(coarse / fine)
        if not order >= MIN_ORDER:
            problems.append(f"observed order {order:.3f} < {MIN_ORDER} (errors {errors})")
    return problems


# ---------------------------------------------------------------- certify_fine

def cert_grid(t0: float, n_t: int, n_y: int):
    """The certificate sample grid, as the certificates declare it.

    Geometric time levels t0 * 1e-6^(k/n_t), k = 1..n_t (1e-6 is
    make_cert_grid's default t_min_frac), and midpoint relative radii
    (i - 1/2)/n_y, i = 1..n_y.
    """
    t = t0 * 1e-6 ** (np.arange(1, n_t + 1) / n_t)
    y = (np.arange(1, n_y + 1) - 0.5) / n_y
    return t, y


def fd_residual(u, p: float, n: int, r: np.ndarray, t: np.ndarray, h_rel: float):
    """Central-difference du/dt - Lap_p u of a radial field u(r, t), and a
    bound on its roundoff error.

    The p-Laplacian is taken in conservative form,
    r^(1-n) d/dr (r^(n-1) |u_r|^(p-2) u_r), with fluxes at r +- h/2.  The
    roundoff bound carries an error of 64 ulp in each value of u through
    the differences; for p < 2 the flux is not Lipschitz at zero slope, so
    slopes at roundoff level leave the difference Laplacian undetermined.
    """
    hr = h_rel * r
    ht = h_rel * np.abs(t)
    du = 64.0 * np.finfo(float).eps * np.abs(u(r, t))
    ut = (u(r, t + ht) - u(r, t - ht)) / (2.0 * ht)
    dg = 2.0 * du / hr

    def flux(s):
        g = (u(s + hr / 2.0, t) - u(s - hr / 2.0, t)) / hr
        ag = np.abs(g)
        phi = np.sign(g) * ag ** (p - 1.0)
        phi_err = (ag + dg) ** (p - 1.0) - np.maximum(ag - dg, 0.0) ** (p - 1.0)
        return s ** (n - 1) * phi, s ** (n - 1) * phi_err

    f_plus, e_plus = flux(r + hr / 2.0)
    f_minus, e_minus = flux(r - hr / 2.0)
    lap = r ** (1 - n) * (f_plus - f_minus) / hr
    lap_err = r ** (1 - n) * (e_plus + e_minus) / hr
    return ut - lap, du / ht + lap_err


def check_residual_floor(u, p: float, n: int, r: np.ndarray, t: np.ndarray,
                         worst: float) -> list:
    """A ">=0" certificate's worst violation is the minimum residual on its
    grid, so at every sampled grid point the difference residual must be at
    least worst minus the difference error.

    The truncation error is bounded by the spread between relative steps of
    8e-3, 4e-3 and 2e-3; the roundoff error by `fd_residual`.
    """
    with np.errstate(all="ignore"):
        r8, _ = fd_residual(u, p, n, r, t, 8e-3)
        r4, _ = fd_residual(u, p, n, r, t, 4e-3)
        r2, rounding = fd_residual(u, p, n, r, t, 2e-3)
        err = 2.0 * np.maximum(np.abs(r8 - r4), np.abs(r4 - r2)) + rounding + 1e-12
        ok = r2 >= worst - err
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} of {r.size} sampled points fall below the certified "
                f"minimum {worst:.3e}: at (r={r[i]:.6g}, t={t[i]:.6g}) the difference "
                f"residual is {r2[i]:.6g} +- {err[i]:.3g}"]
    return []


def check_certificate(cert: dict, n_t: int, n_y: int, need_points: bool = True) -> list:
    """Pass flag, grid size, point count and a finite worst violation.

    Sign certificates report the points they evaluated, which must be all
    n_t * n_y grid points; family certificates report a grid without a count.
    """
    problems = []
    if cert.get("pass") is not True:
        problems.append(f"certificate failed: {cert.get('condition')}, "
                        f"worst {cert.get('worst_violation')}")
    grid = cert.get("grid", {})
    if (grid.get("n_t"), grid.get("n_y")) != (n_t, n_y):
        problems.append(f"grid {grid.get('n_t')}x{grid.get('n_y')}, want {n_t}x{n_y}")
    if need_points and grid.get("points") != n_t * n_y:
        problems.append(f"certificate covers {grid.get('points')} of {n_t * n_y} grid points")
    worst = cert.get("worst_violation")
    if not (isinstance(worst, float) and math.isfinite(worst)):
        problems.append(f"worst violation {worst} is not finite")
    return problems
