"""Grid-sampled certification of barrier inequalities and solver laws.

Certificates are FINITE-SAMPLE: they evaluate pointwise inequalities on
declared tensor grids (geometric time levels x uniform relative-radius
levels strictly inside the cusp) and record the worst signed violation with
its location.  They never claim a proof; limits (decay at the tip, growth at
the far boundary) are checked along finitely many declared approach
sequences.  The barrier-family certificate evaluates each member once per
sample set (grid, decay rays, boundary samples) and reduces with numpy, so
a NaN anywhere fails the condition it enters.  A formula field's values and
residuals on a large grid are computed a block of rows at a time on every
CPU the process may use (`calculus._run_blocks`), each block writing only
its own rows; every reduction is made here, on the whole array, after all
blocks end.  Identical inputs therefore produce bit-identical reports,
whatever the number of CPUs or the scheduling: grids are deterministic,
reductions are index-ordered, and the JSON form is canonically sorted with
17-significant-digit floats; the report hash excludes the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierSpec
from .calculus import Params, SpaceTimeFunction, residual
from .domains import DomainProfile, scale_domain
from .errors import DomainError
from .solver import SolverConfig, solve_dirichlet

__all__ = [
    "CertificateReport",
    "CertGrid",
    "make_cert_grid",
    "check_sign",
    "check_barrier_family",
    "check_scaling_equivariance",
    "check_comparison",
    "canonical_json",
    "stamp",
]

SIGN_TOL = 1e-10          # absolute tolerance of sign certificates
_T_MIN_FRAC = 1e-6        # certificate grids reach down to t = _T_MIN_FRAC * t0
_N_BOUNDARY = 256         # family certificate: samples on each boundary part
_N_RAYS = 8               # family certificate: decay rays


def canonical_json(obj) -> str:
    """Deterministic RFC 8259 JSON: sorted keys, floats at 17 significant
    digits, and a non-finite float as the string "NaN", "Infinity" or
    "-Infinity"."""

    def walk(o):
        if isinstance(o, dict):
            return {k: walk(o[k]) for k in sorted(o)}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        if isinstance(o, (np.floating, float)):
            x = float(o)
            return float(f"{x:.17g}") if math.isfinite(x) else json.dumps(x)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return [walk(v) for v in o.tolist()]
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return o

    return json.dumps(walk(obj), sort_keys=True, allow_nan=False)


def stamp(payload: dict, with_timestamp: bool = False) -> dict:
    """payload with its report_hash, the sha256 of canonical_json(payload),
    and, when asked, a generated_at timestamp the hash does not cover."""
    out = dict(payload)
    out["report_hash"] = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    if with_timestamp:
        out["generated_at"] = _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())
    return out


@dataclass(frozen=True)
class CertGrid:
    """Tensor sample grid strictly inside a cusp domain.

    n_t geometric time levels t_k spanning (t0, 0) down to 1e-6*|t0|,
    n_y uniform relative radii at cell midpoints y_i = (i - 1/2)/n_y in (0, 1)
    (the y = 0 axis row is excluded; radial formulas are singular there and
    axis behavior is certified separately through the symmetry limit).
    """

    t_levels: np.ndarray
    y_levels: np.ndarray

    def meshes(self, profile: DomainProfile):
        """(R, T): R = y * zeta(t) of shape (n_t, n_y), and T the column
        (n_t, 1) of time levels, left unexpanded so that zeta, membership and
        every t-only factor of a formula are evaluated once per time level."""
        T = self.t_levels[:, None]
        return self.y_levels * profile.zeta(T), T

    def describe(self) -> dict:
        return {
            "n_t": int(self.t_levels.size),
            "n_y": int(self.y_levels.size),
            "t_range": [float(self.t_levels[0]), float(self.t_levels[-1])],
            "y_range": [float(self.y_levels[0]), float(self.y_levels[-1])],
            "spacing": "geometric in t, uniform midpoint in y = r/zeta(t)",
        }

    def hash(self) -> str:
        return stamp(self.describe())["report_hash"][:16]


def make_cert_grid(profile: DomainProfile, n_t: int = 128, n_y: int = 128) -> CertGrid:
    t0 = profile.t0
    ratio = _T_MIN_FRAC ** (np.arange(1, n_t + 1) / n_t)
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
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return stamp({
            "subject": self.subject,
            "condition": self.condition,
            "grid": self.grid,
            "worst_violation": self.worst_violation,
            "worst_location": list(self.worst_location) if self.worst_location else None,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "sense": self.sense,
            "finite_sample": True,
            "details": self.details,
        })


def check_sign(
    u: SpaceTimeFunction,
    profile: DomainProfile,
    p: float,
    n: int,
    grid: Optional[CertGrid] = None,
) -> CertificateReport:
    """Residual sign certificate of du/dt - Lap_p u over a cusp sample grid.

    Certifies supersolution behavior: worst_violation is the grid minimum of
    the residual, and the certificate passes iff it is >= -SIGN_TOL.
    """
    if grid is None:
        grid = make_cert_grid(profile)
    if grid.t_levels.size == 0 or grid.y_levels.size == 0:
        raise DomainError("empty certification grid")
    R, T = grid.meshes(profile)
    inside = profile.contains(R, T)
    everywhere = bool(np.all(inside))
    if not everywhere:
        R = np.where(inside, R, np.nan)
    res = np.asarray(residual(u, p, n, R, T), dtype=float)
    if not everywhere:
        res = np.where(inside, res, np.nan)
    flat = res.reshape(-1)
    valid = np.isfinite(flat)
    points = int(np.count_nonzero(valid))
    if points == 0:
        raise DomainError("no valid grid points inside the domain")
    # a non-finite residual inside the domain fails the certificate; only
    # points outside the domain are skipped
    non_finite = np.flatnonzero(inside.reshape(-1) & ~valid)
    idx = int(np.argmin(flat) if points == flat.size else np.nanargmin(flat))
    worst = float(flat[idx])
    passed = worst >= -SIGN_TOL
    T = np.broadcast_to(T, R.shape)
    loc = (float(R.reshape(-1)[idx]), float(T.reshape(-1)[idx]))
    details = {}
    if non_finite.size:
        passed = False
        first = non_finite[0]
        details = {"non_finite_points": int(non_finite.size),
                   "first_non_finite_location": [float(R.reshape(-1)[first]),
                                                 float(T.reshape(-1)[first])]}
    return CertificateReport(
        subject=u.label,
        condition="residual >=0",
        grid=grid.describe() | {"hash": grid.hash(), "points": points},
        worst_violation=worst,
        worst_location=loc,
        passed=bool(passed),
        tolerance=SIGN_TOL,
        details=details,
    )


def _boundary_samples(profile: DomainProfile, n_each: int):
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
) -> CertificateReport:
    """Finite-sample barrier-family certificate at the tip (0, 0).

    For the indexed ladder w_{C_0} < ... < w_{C_m} this checks, on declared
    samples:

    (i)   each member is positive and a supersolution on the grid, and the
          bracketing inequalities hold at every grid point:
          C <= Q <= 2C and w_C >= (1/p) C^(1/(p-2)) delta_hat^((p-1)/(p-2))
          (-t)^(-n/lam);
    (ii)  decay at the tip: along 8 radial rays (fixed y, t -> 0-) the
          values stay below the closed-form envelope rho_C(t), whose sampled
          tail decreases to 0;
    (iii) growth away from the tip: for each k <= k_max some member's
          infimum over boundary samples with |(r, t)| >= 1/k is >= k; the
          selected index j(k) is recorded (nondecreasing in k).  A ladder too
          short for some k, or a level k with no sample that far out, is
          reported inconclusive, not failed.

    Besides check_sign's derivative pass, each member is evaluated once on
    each sample set (grid, rays, boundary) and every minimum is numpy's, so
    a NaN anywhere fails its condition.  Member continuity in the open
    cylinder (closed formulas) is recorded as trivially satisfied; the
    strong-family gauge condition is out of scope because its gauge
    function is existential.
    """
    if not family:
        raise DomainError("empty family")
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    Cs = [spec.constants["C"] for spec in family]
    if any(c2 <= c1 for c1, c2 in zip(Cs, Cs[1:])):
        raise DomainError("family ladder must have strictly increasing C")
    if grid is None:
        grid = make_cert_grid(profile)
    pars = Params(p=p, n=n)
    tol = SIGN_TOL
    R, T = grid.meshes(profile)
    kap_chi = pars.kap * pars.chi(R, -T)
    t_ray = profile.t0 * (1e-8) ** (np.arange(1, 65) / 64)
    y_ray = (np.arange(1, _N_RAYS + 1)) / (_N_RAYS + 1.0)
    r_ray = y_ray[:, None] * np.asarray(profile.zeta(t_ray), dtype=float)
    rb, tb = _boundary_samples(profile, n_each=_N_BOUNDARY)

    member_reports, decay, reps, on_boundary = [], [], [], []
    for spec in family:
        w, delta, C = spec.fn, spec.gauge.delta, spec.constants["C"]
        # (i) positivity + supersolution + sandwich + lower bound
        rep = check_sign(w, profile, p, n, grid=grid)
        vals = np.asarray(w(R, T), dtype=float)
        pos_min = float(vals.min())
        Q = C + kap_chi
        sandwich_lo = float((Q - C).min())
        sandwich_hi = float((2.0 * C - Q).min())
        lower = pars.envelope(C, np.asarray(delta(T), dtype=float), T, scale=1.0 / p)
        lower_margin = float((vals - lower).min())
        ok = (rep.passed and pos_min > 0.0 and sandwich_lo >= -tol
              and sandwich_hi >= -tol and lower_margin >= -tol)
        member_reports.append({
            "C": C, "residual_worst": rep.worst_violation,
            "positivity_min": pos_min, "sandwich_margin_low": sandwich_lo,
            "sandwich_margin_high": sandwich_hi, "lower_bound_margin": lower_margin,
            "pass": bool(ok),
        })
        reps.append(rep)
        # (ii) decay along the rays below the vanishing envelope rho_C
        rho = pars.envelope(C, np.asarray(delta(t_ray), dtype=float), t_ray)
        below = float(np.min(rho - np.asarray(w(r_ray, t_ray), dtype=float)))
        tail = rho[-16:]
        vanishing = bool(np.all(np.diff(tail) < 0) and tail[-1] < 0.5 * rho[0])
        decay.append({"C": C, "below_envelope_margin": below,
                      "envelope_tail_value": float(tail[-1]),
                      "envelope_vanishing": vanishing,
                      "pass": bool(below >= -tol and vanishing)})
        on_boundary.append(np.asarray(w(rb, tb), dtype=float))
    all_pass = all(m["pass"] for m in member_reports + decay)
    worst = min(reps, key=lambda rep: rep.worst_violation)
    details: dict = {"ladder_C": Cs, "k_max": k_max,
                     "condition_i_members": member_reports, "condition_ii_decay": decay}

    # (iii) growth: j(k) is the first member whose infimum over the boundary
    # samples at distance >= 1/k is at least k
    levels = np.arange(1, k_max + 1)
    far = np.sqrt(rb * rb + tb * tb) >= 1.0 / levels[:, None]             # (k_max, samples)
    inf_far = np.where(far[:, None], np.array(on_boundary), np.inf).min(axis=2)
    beats = inf_far >= levels[:, None]                                  # (k_max, members)
    js = [int(np.argmax(b)) if f.any() and b.any() else None for f, b in zip(far, beats)]
    inconclusive = None in js
    details["condition_iii_j_of_k"] = {str(k): j for k, j in zip(levels, js)}
    details["condition_iii_inconclusive"] = inconclusive
    if not inconclusive:
        all_pass = all_pass and all(a <= b for a, b in zip(js, js[1:]))
    details["condition_iv_continuity"] = "closed formulas; continuous in the open domain"
    details["condition_v_strong_gauge"] = "out of scope (existential gauge function)"
    details["theta"] = family[0].gauge.theta

    passed = bool(all_pass and not inconclusive)
    return CertificateReport(
        subject=f"barrier-family(p={p}, n={n}, ladder={len(family)})",
        condition="barrier family conditions (i)-(iii)" + (" [INCONCLUSIVE]" if inconclusive else ""),
        grid=grid.describe() | {"hash": grid.hash(), "n_boundary": 2 * _N_BOUNDARY,
                                "n_rays": _N_RAYS},
        worst_violation=float(worst.worst_violation),
        worst_location=worst.worst_location,
        passed=passed,
        tolerance=tol,
        details=details,
    )


def check_scaling_equivariance(
    profile: DomainProfile,
    p: float,
    a: float,
    cfg: SolverConfig,
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
    if p == 2:
        raise DomainError("p = 2 has no scaling invariance")
    if f is None:
        f = lambda r, t: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2) + 0.5 * np.asarray(t, dtype=float)
    scaled, factor = scale_domain(profile, a, p)

    def f_scaled(r, t):
        return np.asarray(f(np.asarray(r, dtype=float) / a, t), dtype=float) / factor

    fld = solve_dirichlet(profile, p, n, f, cfg)
    fld_s = solve_dirichlet(scaled, p, n, f_scaled, cfg)
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
              "steps_base": fld.meta["stats"]["steps"],
              "steps_scaled": fld_s.meta["stats"]["steps"]},
        worst_violation=worst,
        worst_location=loc,
        passed=bool(worst <= tol),
        tolerance=tol,
        sense="<=tol",
        details={"factor": factor, "a": a},
    )


def check_comparison(
    profile: DomainProfile,
    p: float,
    n: int,
    f1: Callable,
    f2: Callable,
    cfg: SolverConfig,
) -> CertificateReport:
    """Discrete comparison: ordered boundary data give ordered solutions."""
    rb, tb = _boundary_samples(profile, n_each=128)
    gap = np.asarray(f2(rb, tb), dtype=float) - np.asarray(f1(rb, tb), dtype=float)
    if np.any(gap < -1e-14):
        raise DomainError("boundary data not ordered: f1 <= f2 fails on samples")
    u1 = solve_dirichlet(profile, p, n, f1, cfg)
    u2 = solve_dirichlet(profile, p, n, f2, cfg)
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
        passed=bool(worst <= SIGN_TOL),
        tolerance=SIGN_TOL,
        sense="<=0",
    )
