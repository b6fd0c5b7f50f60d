"""Grid-sampled certification of barrier inequalities and solver laws.

Certificates are FINITE-SAMPLE: they evaluate pointwise inequalities on
declared tensor grids (geometric time levels x uniform relative-radius
levels strictly inside the cusp) and record the worst signed violation with
its location.  They never claim a proof; limits (decay at the tip, growth at
the far boundary) are checked along finitely many declared approach
sequences.  Identical inputs produce bit-identical reports: grids are
deterministic, reductions are index-ordered, and the JSON form is

    canonically sorted with 17-significant-digit floats; the report hash
    excludes the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierSpec
from .calculus import SpaceTimeFunction, lambda_of, residual
from .domains import DomainProfile
from .errors import DomainError

__all__ = [
    "CertificateReport",
    "CertGrid",
    "make_cert_grid",
    "check_sign",
    "check_barrier_family",
    "check_scaling_equivariance",
    "check_comparison",
    "reports_to_csv",
    "canonical_json",
]

SIGN_TOL = 1e-10          # default absolute tolerance of sign certificates
SOLVER_CHECK_TOL = 1e-6   # default tolerance of solver-based checks


def _fmt_float(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    return x


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""

    def walk(o):
        if isinstance(o, dict):
            return {k: walk(o[k]) for k in sorted(o)}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        if isinstance(o, (np.floating, float)):
            return _fmt_float(float(o))
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return [walk(v) for v in o.tolist()]
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return o

    return json.dumps(walk(obj), sort_keys=True)


@dataclass(frozen=True)
class CertGrid:
    """Tensor sample grid strictly inside a cusp domain.

    n_t geometric time levels t_k spanning (t0, 0) down to t_min_frac*|t0|,
    n_y uniform relative radii at cell midpoints y_i = (i - 1/2)/n_y in (0, 1)
    (the y = 0 axis row is excluded; radial formulas are singular there and
    axis behavior is certified separately through the symmetry limit).
    """

    t_levels: np.ndarray
    y_levels: np.ndarray

    def meshes(self, profile: DomainProfile):
        T, Y = np.meshgrid(self.t_levels, self.y_levels, indexing="ij")
        R = Y * profile.zeta(T)
        return R, T

    def describe(self) -> dict:
        return {
            "n_t": int(self.t_levels.size),
            "n_y": int(self.y_levels.size),
            "t_range": [float(self.t_levels[0]), float(self.t_levels[-1])],
            "y_range": [float(self.y_levels[0]), float(self.y_levels[-1])],
            "spacing": "geometric in t, uniform midpoint in y = r/zeta(t)",
        }

    def hash(self) -> str:
        payload = self.describe()
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def make_cert_grid(profile: DomainProfile, n_t: int = 128, n_y: int = 128,
                   t_min_frac: float = 1e-6) -> CertGrid:
    t0 = profile.t0
    ratio = t_min_frac ** (np.arange(1, n_t + 1) / n_t)
    t_levels = t0 * ratio
    y_levels = (np.arange(1, n_y + 1) - 0.5) / n_y
    return CertGrid(t_levels=t_levels, y_levels=y_levels)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one grid-sampled condition check."""

    subject: str
    condition: str
    grid: dict
    worst_violation: float
    worst_location: Optional[tuple]
    passed: bool
    tolerance: float
    sense: str = ">=0"
    finite_sample: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self, with_timestamp: bool = False) -> dict:
        out = {
            "subject": self.subject,
            "condition": self.condition,
            "grid": self.grid,
            "worst_violation": self.worst_violation,
            "worst_location": list(self.worst_location) if self.worst_location else None,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "sense": self.sense,
            "finite_sample": self.finite_sample,
            "details": self.details,
        }
        out["report_hash"] = hashlib.sha256(canonical_json(out).encode()).hexdigest()
        if with_timestamp:
            out["generated_at"] = _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())
        return out

    def to_json(self, with_timestamp: bool = False) -> str:
        return canonical_json(self.to_dict(with_timestamp=with_timestamp))

    def csv_row(self) -> dict:
        return {
            "subject": self.subject,
            "condition": self.condition,
            "pass": int(self.passed),
            "worst_violation": f"{self.worst_violation:.17g}",
            "tolerance": f"{self.tolerance:.17g}",
            "sense": self.sense,
        }


def reports_to_csv(reports: Sequence[CertificateReport], path):
    cols = ["subject", "condition", "pass", "worst_violation", "tolerance", "sense"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in reports:
            row = rep.csv_row()
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


def check_sign(
    u: SpaceTimeFunction,
    profile: DomainProfile,
    p: float,
    n: int,
    grid: Optional[CertGrid] = None,
    sense: str = ">=0",
    tol: float = SIGN_TOL,
    subject: str = "",
) -> CertificateReport:
    """Residual sign certificate of du/dt - Lap_p u over a cusp sample grid.

    sense ">=0" certifies supersolution behavior (worst_violation is the grid
    minimum of the residual; pass iff it is >= -tol); sense "<=0" is the dual.
    """
    if grid is None:
        grid = make_cert_grid(profile)
    if grid.t_levels.size == 0 or grid.y_levels.size == 0:
        raise DomainError("empty certification grid")
    R, T = grid.meshes(profile)
    inside = profile.contains(R, T)
    if not np.all(inside):
        R = np.where(inside, R, np.nan)
    res = np.asarray(residual(u, p, n, R, T), dtype=float)
    res = np.where(inside, res, np.nan)
    flat = res.reshape(-1)
    valid = np.isfinite(flat)
    if not np.any(valid):
        raise DomainError("no valid grid points inside the domain")
    # a non-finite residual inside the domain fails the certificate; only
    # points outside the domain are skipped
    non_finite = np.flatnonzero(inside.reshape(-1) & ~valid)
    if sense == ">=0":
        idx = int(np.nanargmin(flat))
        worst = float(flat[idx])
        passed = worst >= -tol
    elif sense == "<=0":
        idx = int(np.nanargmax(flat))
        worst = float(flat[idx])
        passed = worst <= tol
    else:
        raise DomainError(f"sense must be '>=0' or '<=0', got {sense!r}")
    loc = (float(R.reshape(-1)[idx]), float(T.reshape(-1)[idx]))
    details = {}
    if non_finite.size:
        passed = False
        first = non_finite[0]
        details = {"non_finite_points": int(non_finite.size),
                   "first_non_finite_location": [float(R.reshape(-1)[first]),
                                                 float(T.reshape(-1)[first])]}
    return CertificateReport(
        subject=subject or u.label,
        condition=f"residual {sense}",
        grid=grid.describe() | {"hash": grid.hash(), "points": int(valid.sum())},
        worst_violation=worst,
        worst_location=loc,
        passed=bool(passed),
        tolerance=tol,
        sense=sense,
        details=details,
    )


def _boundary_samples(profile: DomainProfile, n_each: int = 256):
    """Parabolic boundary: bottom disk {t = t0} plus lateral {r = zeta(t)}."""
    t0 = profile.t0
    rb = np.linspace(0.0, float(profile.zeta(t0)), n_each)
    tb = np.full_like(rb, t0)
    tl = t0 * (1e-8) ** (np.arange(1, n_each + 1) / n_each)
    rl = np.asarray(profile.zeta(tl), dtype=float)
    r = np.concatenate([rb, rl])
    t = np.concatenate([tb, tl])
    return r, t


def check_barrier_family(
    family: Sequence[BarrierSpec],
    profile: DomainProfile,
    p: float,
    n: int,
    k_max: int = 4,
    grid: Optional[CertGrid] = None,
    n_boundary: int = 256,
    n_rays: int = 8,
    tol: float = SIGN_TOL,
) -> CertificateReport:
    """Finite-sample barrier-family certificate at the tip (0, 0).

    For the indexed ladder w_{C_0} < ... < w_{C_m} this checks, on declared
    samples:

    (i)   each member is positive and a supersolution on the grid, and the
          bracketing inequalities hold at every grid point:
          C <= Q <= 2C and w_C >= (1/p) C^(1/(p-2)) delta_hat^((p-1)/(p-2))
          (-t)^(-n/lam);
    (ii)  decay at the tip: along n_rays radial rays (fixed y, t -> 0-) the
          values stay below the closed-form envelope rho_C(t), whose sampled
          tail decreases to 0;
    (iii) growth away from the tip: for each k <= k_max some member's
          infimum over boundary samples with |(r, t)| >= 1/k is >= k; the
          selected index j(k) is recorded (nondecreasing in k).  A ladder too
          short for some k is reported inconclusive, not failed.

    Member continuity in the open cylinder (closed formulas) is recorded as
    trivially satisfied; the strong-family gauge condition is out of scope
    because its gauge function is existential.
    """
    if not family:
        raise DomainError("empty family")
    Cs = [spec.constants["C"] for spec in family]
    if any(c2 <= c1 for c1, c2 in zip(Cs, Cs[1:])):
        raise DomainError("family ladder must have strictly increasing C")
    if grid is None:
        grid = make_cert_grid(profile)
    lam = lambda_of(p, n)
    details: dict = {"ladder_C": Cs, "k_max": k_max}
    worst_overall = np.inf
    worst_loc = None
    all_pass = True
    inconclusive = False

    R, T = grid.meshes(profile)

    # (i) positivity + supersolution + sandwich + lower bound per member
    member_reports = []
    for spec in family:
        w = spec.fn
        gauge = spec.gauge
        C = spec.constants["C"]
        rep = check_sign(w, profile, p, n, grid=grid, tol=tol, subject=spec.fn.label)
        vals = np.asarray(w(R, T), dtype=float)
        pos_min = float(vals.min())
        kap = (p - 2.0) / (p * lam ** (1.0 / (p - 1.0)))
        chi = R ** (p / (p - 1.0)) * (-T) ** (-(p / (p - 1.0)) / lam)
        Q = C + kap * chi
        sandwich_lo = float((Q - C).min())
        sandwich_hi = float((2.0 * C - Q).min())
        dh = np.asarray(gauge.delta(T), dtype=float)
        lower = (1.0 / p) * C ** (1.0 / (p - 2.0)) * dh ** ((p - 1.0) / (p - 2.0)) * (-T) ** (-n / lam)
        lower_margin = float((vals - lower).min())
        ok = (rep.passed and pos_min > 0.0 and sandwich_lo >= -tol
              and sandwich_hi >= -tol and lower_margin >= -tol)
        member_reports.append({
            "C": C, "residual_worst": rep.worst_violation,
            "positivity_min": pos_min, "sandwich_margin_low": sandwich_lo,
            "sandwich_margin_high": sandwich_hi, "lower_bound_margin": lower_margin,
            "pass": bool(ok),
        })
        all_pass = all_pass and ok
        if rep.worst_violation < worst_overall:
            worst_overall = rep.worst_violation
            worst_loc = rep.worst_location
    details["condition_i_members"] = member_reports

    # (ii) decay along rays below the vanishing envelope rho_C
    t_ray = profile.t0 * (1e-8) ** (np.arange(1, 65) / 64)
    y_ray = (np.arange(1, n_rays + 1)) / (n_rays + 1.0)
    decay = []
    for spec in family:
        w, gauge, C = spec.fn, spec.gauge, spec.constants["C"]
        dh = np.asarray(gauge.delta(t_ray), dtype=float)
        rho = C ** (1.0 / (p - 2.0)) * dh ** ((p - 1.0) / (p - 2.0)) * (-t_ray) ** (-n / lam)
        below = np.inf
        for y in y_ray:
            rv = y * np.asarray(profile.zeta(t_ray), dtype=float)
            below = min(below, float((rho - np.asarray(w(rv, t_ray), dtype=float)).min()))
        tail = rho[-16:]
        vanishing = bool(np.all(np.diff(tail) < 0) and tail[-1] < 0.5 * rho[0])
        ok = below >= -tol and vanishing
        decay.append({"C": C, "below_envelope_margin": below,
                      "envelope_tail_value": float(tail[-1]),
                      "envelope_vanishing": vanishing, "pass": bool(ok)})
        all_pass = all_pass and ok
    details["condition_ii_decay"] = decay

    # (iii) growth: ladder member beating level k away from the tip
    rb, tb = _boundary_samples(profile, n_each=n_boundary)
    dist = np.sqrt(rb * rb + tb * tb)
    j_of_k = {}
    for k in range(1, k_max + 1):
        mask = dist >= 1.0 / k
        if not np.any(mask):
            j_of_k[k] = None
            inconclusive = True
            continue
        found = None
        for j, spec in enumerate(family):
            inf_val = float(np.min(np.asarray(spec.fn(rb[mask], tb[mask]), dtype=float)))
            if inf_val >= k:
                found = j
                break
        if found is None:
            inconclusive = True
        j_of_k[k] = found
    details["condition_iii_j_of_k"] = {str(k): v for k, v in j_of_k.items()}
    details["condition_iii_inconclusive"] = inconclusive
    if not inconclusive:
        js = [j_of_k[k] for k in range(1, k_max + 1)]
        all_pass = all_pass and all(a <= b for a, b in zip(js, js[1:]))
    details["condition_iv_continuity"] = "closed formulas; continuous in the open domain"
    details["condition_v_strong_gauge"] = "out of scope (existential gauge function)"
    details["theta"] = family[0].gauge.theta

    passed = bool(all_pass and not inconclusive)
    return CertificateReport(
        subject=f"barrier-family(p={p}, n={n}, ladder={len(family)})",
        condition="barrier family conditions (i)-(iii)" + (" [INCONCLUSIVE]" if inconclusive else ""),
        grid=grid.describe() | {"hash": grid.hash(), "n_boundary": 2 * n_boundary,
                                "n_rays": n_rays},
        worst_violation=float(worst_overall),
        worst_location=worst_loc,
        passed=passed,
        tolerance=tol,
        details=details,
    )


def _default_solve():
    from .solver import solve_dirichlet
    return solve_dirichlet


def check_scaling_equivariance(
    solve: Optional[Callable],
    profile: DomainProfile,
    p: float,
    a: float,
    cfg=None,
    f: Optional[Callable] = None,
    n: int = 1,
    tol: float = 1e-3,
) -> CertificateReport:
    """Dilation equivariance of the discrete solver (p != 2).

    Solves on Theta and on the dilated domain (width a zeta) with boundary
    data mapped by the amplitude factor a^(-p/(p-2)), then compares the
    mapped fields on the shared final time slice (the relative-radius grids
    coincide, the time grids differ through the stiffness cap, so the
    mismatch is a genuine discretization quantity that shrinks under
    refinement).
    """
    from .domains import scale_domain
    from .solver import SolverConfig

    if p == 2:
        raise DomainError("p = 2 has no scaling invariance")
    solve = solve or _default_solve()
    cfg = cfg or SolverConfig(n_y=65, n_t=200, eps_min=1e-3 * abs(profile.t0))
    if f is None:
        f = lambda r, t: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2) + 0.5 * np.asarray(t, dtype=float)
    scaled, factor = scale_domain(profile, a, p)

    def f_scaled(r, t):
        return np.asarray(f(np.asarray(r, dtype=float) / a, t), dtype=float) / factor

    fld = solve(profile, p, n, f, cfg)
    fld_s = solve(scaled, p, n, f_scaled, cfg)
    uA = fld.values[-1]
    uB = factor * fld_s.values[-1]
    scale_ref = max(1.0, float(np.max(np.abs(uA))))
    diff = np.abs(uA - uB) / scale_ref
    idx = int(np.argmax(diff))
    worst = float(diff[idx])
    t_end = float(fld.t_nodes[-1])
    loc = (float(fld.y_nodes[idx] * profile.zeta(t_end)), t_end)
    return CertificateReport(
        subject=f"scaling(a={a}, p={p}, factor={factor})",
        condition="mapped-solution mismatch <= tol",
        grid={"n_y": int(cfg.n_y), "n_t": int(cfg.n_t),
              "eps_min": float(cfg.resolved_eps_min(profile.t0)),
              "steps_base": fld.meta["n_steps"], "steps_scaled": fld_s.meta["n_steps"]},
        worst_violation=worst,
        worst_location=loc,
        passed=bool(worst <= tol),
        tolerance=tol,
        sense="<=tol",
        details={"factor": factor, "a": a},
    )


def check_comparison(
    solve: Optional[Callable],
    profile: DomainProfile,
    p: float,
    n: int,
    f1: Callable,
    f2: Callable,
    cfg=None,
    tol: float = 1e-10,
) -> CertificateReport:
    """Discrete comparison: ordered boundary data give ordered solutions."""
    from .solver import SolverConfig

    solve = solve or _default_solve()
    cfg = cfg or SolverConfig(n_y=65, n_t=200, eps_min=1e-3 * abs(profile.t0))
    rb, tb = _boundary_samples(profile, n_each=128)
    gap = np.asarray(f2(rb, tb), dtype=float) - np.asarray(f1(rb, tb), dtype=float)
    if np.any(gap < -1e-14):
        raise DomainError("boundary data not ordered: f1 <= f2 fails on samples")
    u1 = solve(profile, p, n, f1, cfg)
    u2 = solve(profile, p, n, f2, cfg)
    viol = u1.values - u2.values
    k, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[k, i])
    loc = (float(u1.y_nodes[i] * profile.zeta(u1.t_nodes[k])), float(u1.t_nodes[k]))
    return CertificateReport(
        subject=f"comparison(p={p}, n={n})",
        condition="u1 <= u2 + tol",
        grid={"n_y": int(cfg.n_y), "n_t": int(cfg.n_t),
              "eps_min": float(cfg.resolved_eps_min(profile.t0))},
        worst_violation=worst,
        worst_location=loc,
        passed=bool(worst <= tol),
        tolerance=tol,
        sense="<=0",
    )
