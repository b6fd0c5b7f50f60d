"""Grid-sampled certification of barrier inequalities and solver laws.

Certificates are FINITE-SAMPLE: they evaluate pointwise inequalities on
declared tensor grids (geometric time levels x uniform relative-radius
levels, every point inside the cusp) and record the worst signed violation
with its location.  They never claim a proof; limits (decay at the tip,
growth at the far boundary) are checked along finitely many declared
approach sequences.  Each certificate builds its grid's meshes once.  On the
grid both certificates make one pass of blocks of rows
(`calculus._map_blocks`), on every CPU the process may use: in each block a
field's residual is formed from its jet and reduced at once (`_least`, NaN
counting as +inf), and so is its value, which the jet carries; the barrier
family evaluates its whole ladder there, its members sharing kappa chi and
the C-free time factors.  No full-size residual or value array is
made.  Each block keeps only exact minima, maxima and counts with their
first flat indices, and the blocks' numbers are merged in row order, so a
report is the same whatever the split or the number of CPUs.  On the decay
rays and on the boundary samples the family evaluates each member once.
Every reduction follows numpy's rules, so a NaN anywhere fails the
condition it enters, and a residual or value that is NaN or +-inf at any
sample fails its certificate, which counts such numbers and locates the
first.  Identical inputs therefore produce bit-identical reports: grids are
deterministic, reductions are index-ordered, and the JSON form is
canonically sorted with each float in its shortest round-trip repr; the
report hash excludes the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .barriers import BarrierSpec, FamilyFormula, family_factors
from .calculus import (
    Jet,
    Params,
    SpaceTimeFunction,
    _admit,
    _closed_residual,
    _field_jet,
    _map_blocks,
)
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
    """Deterministic RFC 8259 JSON: sorted keys, each finite float in
    Python's shortest repr that reads back as the same double, and a
    non-finite float as the string "NaN", "Infinity" or "-Infinity"."""

    def walk(o):
        if isinstance(o, dict):
            return {k: walk(o[k]) for k in sorted(o)}
        if isinstance(o, (list, tuple)):
            return [walk(v) for v in o]
        if isinstance(o, (np.floating, float)):
            x = float(o)
            return x if math.isfinite(x) else json.dumps(x)
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
    """Tensor sample grid inside a cusp domain.

    n_t time levels t_k in (t0, 0) and n_y relative radii y_i in (0, 1); a
    grid point is (r, t) = (y zeta(t), t).  make_cert_grid puts the time
    levels at t0 (1e-6)^(k/n_t), k = 1..n_t, from t0 (1e-6)^(1/n_t)
    (0.898 t0 at 128 levels) down to 1e-6 t0, and the radii at the cell
    midpoints (i - 1/2)/n_y, from 1/(2 n_y).  Nothing nearer the axis y = 0,
    where radial formulas are singular, and nothing nearer t0 is sampled,
    by this grid or by any other check.  Every point of the grid is inside
    the cusp, so a certificate evaluates every point and skips none.
    """

    t_levels: np.ndarray
    y_levels: np.ndarray

    def meshes(self, profile: DomainProfile):
        """(R, T): R = y * zeta(t) of shape (n_t, n_y), and T the column
        (n_t, 1) of time levels, left unexpanded so that zeta and every
        t-only factor of a formula are evaluated once per time level.  An
        empty grid, or one with a point outside the open cusp, raises
        DomainError."""
        t, y = self.t_levels, self.y_levels
        if not (t.size and y.size and np.all((0.0 < y) & (y < 1.0))
                and np.all((profile.t0 < t) & (t < 0.0))):
            raise DomainError("a certification grid needs points, all inside the open cusp: "
                              f"0 < y < 1 and {profile.t0} < t < 0")
        T = t[:, None]
        return y * profile.zeta(T), T

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


def _location(R, T, index):
    """(r, t) of the grid point at a flat index of an (n_t, n_y) mesh."""
    i, j = np.unravel_index(index, R.shape)
    return float(R[i, j]), float(T[i, 0])


def _non_finite(values, start: int):
    """(count, first flat index) of the non-finite values of one block
    whose first point has the flat index start; the index is -1 when every
    value is finite."""
    finite = np.isfinite(values)
    count = finite.size - int(np.count_nonzero(finite))
    return count, (start + int(np.argmin(finite)) if count else -1)


def _least(res, start: int):
    """(least value, its first flat index, `_non_finite`) of one block of
    residuals whose first point has the flat index start on the grid.

    NaN counts as +inf, and of equal values the first counts.  So a -inf
    residual is the worst one, while a NaN residual is never the worst
    where some residual is finite; both are counted as non-finite.
    """
    flat = res.reshape(-1)
    bad = _non_finite(flat, start)
    if bad[0]:
        flat = np.where(np.isnan(flat), np.inf, flat)
    index = int(np.argmin(flat))
    return float(flat[index]), start + index, bad


_VALUE_KEYS = ("non_finite_values", "first_non_finite_value_location")


def _flagged(pairs, locate, keys) -> dict:
    """Details that name non-finite numbers: empty when none of the
    (count, first index) pairs counts any, else keys[0] with the total
    count and keys[1] with the location, locate(index), of the first."""
    bad = [pair for pair in pairs if pair[0]]
    return {keys[0]: sum(c for c, _ in bad), keys[1]: list(locate(bad[0][1]))} if bad else {}


def _sample_details(values, r, t) -> dict:
    """The details of the non-finite values among samples taken at (r, t)
    off the grid; empty when every value is finite."""
    r, t = np.broadcast_arrays(r, t)
    return _flagged([_non_finite(values, 0)],
                    lambda i: (float(r.flat[i]), float(t.flat[i])), _VALUE_KEYS)


class _Record(NamedTuple):
    """One field reduced on the whole certificate grid."""

    worst: float        # least residual, NaN counting as +inf
    index: int          # flat index of its first occurrence
    points: int         # count of finite residuals
    lows: np.ndarray    # least value of each time level
    details: dict       # non-finite residuals and values, counted and located (empty if none)


def _merge_record(blocks, R, T) -> _Record:
    """A field's record from its blocks' reductions in row order: the
    residual's minimum (`_least`), the least value of each of the block's
    time levels, and its non-finite values (`_non_finite`).  The worst
    residual is the least of the blocks' least values, the first of equal
    ones, so it sits at its first flat index on the grid.  A residual that
    is finite nowhere raises DomainError."""
    minima, lows, values = zip(*blocks)
    points = R.size - sum(bad[0] for *_, bad in minima)
    if points == 0:
        raise DomainError("the residual is not finite at any grid point")
    worst, index, _ = min(minima, key=lambda m: m[0])
    locate = lambda index: _location(R, T, index)
    details = (_flagged([bad for *_, bad in minima], locate,
                        ("non_finite_points", "first_non_finite_location"))
               | _flagged(values, locate, _VALUE_KEYS))
    return _Record(worst, index, points, np.concatenate(lows), details)


def _ladder_jets(rb, tb, ladder):
    """kappa chi's jet (None without a ladder) on one block of grid rows
    (rb, tb), and the function that makes a field's jet there, which
    carries fn's value (`calculus._field_jet`).

    Given a ladder (pars, gauge), the C-free factors of the family w_C on
    them are built once, and a field whose formula is a member on them
    (`FamilyFormula.reads`) forms its jet from those factors.  Any other
    field is a group of one."""
    if ladder is None:
        return None, lambda u: _field_jet(u, rb, tb)
    pars, gauge = ladder
    factors = family_factors(pars, gauge, Jet(rb, 0.0, 1.0), Jet(tb, 1.0))

    def jet_of(u):
        f = u.formula
        shared = isinstance(f, FamilyFormula) and f.reads(pars, gauge)
        return _field_jet(u, rb, tb, f.given(*factors) if shared else None)

    return factors[0], jet_of


def _grid_pass(fields, p, n, R, T, ladder=None):
    """Reduce fields on the certificate grid (R, T) in one pass of
    `calculus._map_blocks`: inside each block, one field after another, so
    no full-size residual, value or kappa chi array is made.

    Returns (records, extremes): per field one `_Record`, and for a ladder
    (pars, gauge) kappa chi's least and greatest value in each block (NaN
    if it is NaN there; no entry without a ladder).  Every number a block
    keeps is an exact minimum, maximum or count, so the results do not
    depend on the split."""
    for u in fields:
        _admit(u, R, T, closed=True)

    def block(part, rb, tb):
        kap_chi, jet_of = _ladder_jets(rb, tb, ladder)
        start = part.start * R.shape[1]
        reductions = []
        for u in fields:
            jet = jet_of(u)
            res = np.broadcast_to(_closed_residual(jet, rb, p, n), rb.shape)
            values = np.broadcast_to(jet.v, rb.shape)
            reductions.append((_least(res, start), values.min(axis=1),
                               _non_finite(values, start)))
            del jet, res, values    # freed before the next field's jet is made
        return reductions, [] if kap_chi is None else [(kap_chi.v.min(), kap_chi.v.max())]

    blocks = _map_blocks(block, R, T)
    records = [_merge_record(column, R, T) for column in zip(*(b[0] for b in blocks))]
    return records, [extreme for b in blocks for extreme in b[1]]


def check_sign(
    u: SpaceTimeFunction,
    profile: DomainProfile,
    p: float,
    n: int,
    grid: Optional[CertGrid] = None,
) -> CertificateReport:
    """Residual sign certificate of du/dt - Lap_p u over a cusp sample grid.

    Certifies supersolution behavior: worst_violation is the grid minimum of
    the finite residuals, and the certificate passes iff it is >= -SIGN_TOL
    and both the residual and the field's value are finite at every grid
    point.  A non-finite residual or value fails it, and the details count
    the non-finite points of each and locate the first.
    """
    if grid is None:
        grid = make_cert_grid(profile)
    R, T = grid.meshes(profile)
    (record,), _ = _grid_pass([u], p, n, R, T)
    return CertificateReport(
        subject=u.label,
        condition="residual >=0",
        grid=grid.describe() | {"hash": grid.hash(), "points": record.points},
        worst_violation=record.worst,
        worst_location=_location(R, T, record.index),
        passed=record.worst >= -SIGN_TOL and not record.details,
        tolerance=SIGN_TOL,
        details=record.details,
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

    The grid and its meshes are built once, and one block pass
    (`_grid_pass`) certifies the whole ladder on it.  In each block the jet
    of kappa*chi and the C-free time factors of w_C are built once
    (`barriers.family_factors`); every member whose formula is w_C on this
    (p, n) and the first member's gauge forms its Q, w_C and residual from
    them with its own formula, and any other member (a changed formula, a
    hand-built field) is evaluated alone in the same pass.  Each member's
    value is its jet's, which is fn's bit for bit unless fn was replaced.
    The block reduces each member's residual and values as check_sign
    does, its values also to the least value of each time level, and
    kappa*chi to its least and greatest value.  The margins are then exact without a
    full-size array: fl(fl(C + x) - C) rises and fl(2C - fl(C + x)) falls
    with x, so the sandwich margins are their values at the least and the
    greatest kappa*chi, and fl(v - l) rises with v, so a time level's least
    lower-bound margin is its least value's.  On the rays and on the
    boundary samples each member is evaluated once.  Every minimum is
    numpy's, so a NaN anywhere fails its condition, and a member value that
    is not finite fails the certificate wherever it is sampled: the member's
    entry of (i) or of (ii), or for the boundary samples (farthest from the
    tip first) a condition_iii_non_finite entry, counts such values and
    locates the first.  Member continuity in
    the open cylinder (closed formulas) is recorded as trivially satisfied;
    the strong-family gauge condition is out of scope because its gauge
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
    R, T = grid.meshes(profile)
    records, extremes = _grid_pass([spec.fn for spec in family], p, n, R, T,
                                   (pars, family[0].gauge))
    extremes = np.array(extremes)
    kc_min, kc_max = extremes[:, 0].min(), extremes[:, 1].max()
    t_ray = profile.t0 * (1e-8) ** (np.arange(1, 65) / 64)
    y_ray = (np.arange(1, _N_RAYS + 1)) / (_N_RAYS + 1.0)
    r_ray = y_ray[:, None] * np.asarray(profile.zeta(t_ray), dtype=float)
    # boundary samples farthest from the tip first: those at distance >= 1/k
    # are then a prefix, and a running minimum holds every level's infimum
    rb, tb = _boundary_samples(profile, n_each=_N_BOUNDARY)
    dist = np.sqrt(rb * rb + tb * tb)
    order = np.argsort(-dist, kind="stable")
    rb, tb, dist = rb[order], tb[order], dist[order]

    member_reports, decay, running, edges = [], [], [], []
    for spec, record in zip(family, records):
        w, delta, C = spec.fn, spec.gauge.delta, spec.constants["C"]
        # (i) positivity + supersolution + sandwich + lower bound: positivity
        # needs a margin > 0, every other margin one >= -SIGN_TOL
        lower = pars.envelope(C, np.asarray(delta(T), dtype=float), T, scale=1.0 / p)
        margins = {"positivity_min": float(record.lows.min()),
                   "residual_worst": record.worst,
                   "sandwich_margin_low": float(C + kc_min - C),
                   "sandwich_margin_high": float(2.0 * C - (C + kc_max)),
                   "lower_bound_margin": float((record.lows - lower[:, 0]).min())}
        ok = (margins["positivity_min"] > 0.0 and not record.details
              and all(m >= -SIGN_TOL for m in margins.values()))
        member_reports.append({"C": C, "pass": ok} | margins | record.details)
        # (ii) decay along the rays below the vanishing envelope rho_C
        rho = pars.envelope(C, np.asarray(delta(t_ray), dtype=float), t_ray)
        w_ray = np.asarray(w(r_ray, t_ray), dtype=float)
        below = float(np.min(rho - w_ray))
        ray = _sample_details(w_ray, r_ray, t_ray)
        tail = rho[-16:]
        vanishing = bool(np.all(np.diff(tail) < 0) and tail[-1] < 0.5 * rho[0])
        decay.append({"C": C, "below_envelope_margin": below,
                      "envelope_tail_value": float(tail[-1]),
                      "envelope_vanishing": vanishing,
                      "pass": bool(below >= -SIGN_TOL and vanishing and not ray)} | ray)
        w_edge = np.asarray(w(rb, tb), dtype=float)
        edge = _sample_details(w_edge, rb, tb)
        if edge:
            edges.append({"C": C} | edge)
        running.append(np.minimum.accumulate(w_edge))
    all_pass = all(m["pass"] for m in member_reports + decay) and not edges
    first_worst = min(records, key=lambda record: record.worst)
    details: dict = {"ladder_C": Cs, "k_max": k_max,
                     "condition_i_members": member_reports, "condition_ii_decay": decay}
    if edges:
        details["condition_iii_non_finite"] = edges

    # (iii) growth: j(k) is the first member whose infimum over the boundary
    # samples at distance >= 1/k is at least k; a level with no such sample
    # has no j (its gathered column, index -1, is masked out)
    levels = np.arange(1, k_max + 1)
    n_far = np.searchsorted(-dist, -1.0 / levels, side="right")
    inf_far = np.array(running)[:, n_far - 1].T                          # (k_max, members)
    beats = (inf_far >= levels[:, None]) & (n_far > 0)[:, None]
    js = [int(np.argmax(b)) if b.any() else None for b in beats]
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
        worst_violation=first_worst.worst,
        worst_location=_location(R, T, first_worst.index),
        passed=passed,
        tolerance=SIGN_TOL,
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
