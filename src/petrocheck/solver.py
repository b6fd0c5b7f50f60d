"""Radially symmetric implicit solver for du/dt = Lap_p u on cusp domains.

The moving domain |x| < zeta(t) is mapped onto the unit cylinder by
y = r/zeta(t).  Writing v(y, t) = u(y zeta(t), t), the chain rule gives

    du/dt|_r = dv/dt|_y - y (zeta'/zeta) dv/dy,

and since du/dr = (dv/dy)/zeta and the flux |s|^(p-2) s is (p-1)-homogeneous,

    Lap_p u = zeta^(-p) y^(1-n) d/dy ( y^(n-1) |v_y|^(p-2) v_y ).

The transformed equation solved here is therefore

    dv/dt = y (zeta'/zeta) v_y + zeta(t)^(-p) y^(1-n) (y^(n-1) phi(v_y))_y ,

with phi(s) = (s^2 + eps_reg^2)^((p-2)/2) s.  Discretization: vertex-centered
finite volumes on a uniform y-grid with staggered fluxes at the half points,
sign-upwinded first-order advection (the advection coefficient is <= 0 for
shrinking widths, so the upwind side is y - h), a zero-flux symmetry cell at
y = 0 and a Dirichlet node at y = 1.  Implicit Euler in time with a Newton
solve of the monotone nonlinear system per step (tridiagonal analytic
Jacobian, nonmonotone step acceptance that backtracks only on blow-up;
Picard fallback with frozen flux coefficients when Newton has not converged
after _NEWTON_MAX iterations or every backtracking trial fails).  The
one-sided advection and the strictly increasing regularized flux make each
step an M-matrix problem, so the scheme obeys a discrete comparison
principle up to the nonlinear solve tolerance.  The stepper is the one statement of the transformed
equation; the tests check it against the exact source solution B(r, t + 2).

Cost per step: the coefficients that depend only on the time level (zeta,
zeta', zeta^-p and the upwind split) are built once per step, and the
residual with the flux derivative that gives its Jacobian is assembled once
per Newton iterate: the accepted line-search trial's assembly becomes the
next iterate's, so a step that converges after k Newton iterations without
backtracking costs k + 1 assemblies and k tridiagonal solves.  The Newton
Jacobian and the Picard matrix are built from those coefficients by one
routine, only for systems that are solved.  Each tridiagonal system goes straight
to LAPACK gtsv (Gaussian elimination with partial pivoting, the routine
scipy's solve_banded calls for one sub- and one super-diagonal), so results
match solve_banded bit for bit.  A non-finite residual or Jacobian, or a
singular system, raises SolverError with the step and time.  Each solve
records its counts (steps, Newton iterations, assemblies, backtracks, Picard
iterations) and the worst accepted scaled residual in GridField.meta["stats"].

Time grid: geometric (log-uniform) from t0 down to -eps_min, then each
interval is subdivided until dt <= c_step * zeta(t)^p, because the
transformed diffusion coefficient grows like zeta^(-p) as the cusp closes.
The cap is an accuracy heuristic, not a stability need: each implicit step
is an M-matrix problem at any dt.  The default probe ladder sets c_step to
_UNCAPPED_C_STEP, so each of its rungs marches exactly its n_t log-uniform
steps; for q*p > 1 the cap would grow the deepest rung like
eps_min^(1 - q*p).  No data is ever imposed at t = 0; marching stops at
-eps_min.  SolverConfig checks its grid and step settings when it is built.

probe_origin drives the tip-attainment experiment: with boundary data that
isolate the tip value, the axis trace u(0, t -> 0-) either collapses to the
tip datum (regular behavior) or stalls at a gap (irregular behavior); the
boundary datum is default_probe, and the trend thresholds are the declared
constants PROBE_THRESHOLDS, reported verbatim; a rung whose solve fails
makes the trend inconclusive and its error is reported.  classify returns
the exact regularity table for power cusps: p > 2 regular iff q > 1/p,
p = 2 regular iff q >= 1/2, and for p < 2 regular if q > 1/p, irregular if
q < 1/p, with the borderline q = 1/p left Unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv
# no longer called (the solver calls gtsv directly); the name stays bound
# because perfbench/tracing.py wraps solver.solve_banded
from scipy.linalg import solve_banded  # noqa: F401

from .calculus import Params
from .domains import DomainProfile, make_profile
from .errors import DomainError, SolverError

__all__ = [
    "SolverConfig",
    "GridField",
    "RegularityVerdict",
    "time_grid",
    "solve_dirichlet",
    "probe_origin",
    "default_probe",
    "classify",
    "PROBE_THRESHOLDS",
]

_BORDERLINE_RTOL = 1e-12  # |q - 1/p| below this counts as the borderline case
RESIDUAL_TOL = 1e-11      # a step is solved when its scaled residual is <= this
_NEWTON_MAX = 60          # Newton iterations before a step falls back to Picard
_PICARD_MAX = 200         # Picard iterations before a step counts as stalled
_MAX_STEPS = 2_000_000    # longest time grid time_grid builds
_MAX_PRINCIPLE_TOL = 1e-9  # slack of GridField.check_max_principle
# c_step of the default probe ladder's rungs.  Each implicit step is an
# M-matrix problem at any dt, so the scheme stays monotone without the
# stiffness cap.  At this value c_step * zeta^p exceeds every interval of a
# grid on [-1, 0) wherever zeta^p > 1e-150, so the cap never binds, and stays
# finite wherever zeta^p < 1e158.  It is finite because SolverConfig
# rejects inf.
_UNCAPPED_C_STEP = 1e150

# Declared trend thresholds of the tip probe, reported verbatim with its result
PROBE_THRESHOLDS = {"attains_endpoint": 0.1, "attains_ratio": 0.8,
                    "gap_floor": 0.2, "gap_rel_change": 0.1}


@dataclass(frozen=True)
class SolverConfig:
    """Grid, regularization and step-cap settings, checked on construction:
    n_y >= 3, n_t >= 1, and eps_reg, c_step and a given eps_min positive and
    finite; anything else raises DomainError."""

    n_y: int = 129
    n_t: int = 400
    eps_min: Optional[float] = None   # default 1e-4 * |t0|
    eps_reg: float = 1e-8
    c_step: float = 0.5

    def __post_init__(self):
        if self.n_y < 3 or self.n_t < 1:
            raise DomainError(f"need n_y >= 3 and n_t >= 1, got n_y={self.n_y}, n_t={self.n_t}")
        for name in ("eps_min", "eps_reg", "c_step"):
            value = getattr(self, name)
            if not (name == "eps_min" and value is None or 0 < value < math.inf):
                raise DomainError(f"{name} must be positive and finite, got {value}")

    def resolved_eps_min(self, t0: float) -> float:
        return self.eps_min if self.eps_min is not None else 1e-4 * abs(t0)


@dataclass
class GridField:
    """Discrete solution on the transformed unit cylinder."""

    y_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray          # shape (len(t_nodes), len(y_nodes))
    profile: DomainProfile
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,y,r,u\n")
            for k, t in enumerate(self.t_nodes):
                z = float(self.profile.zeta(t))
                for i, y in enumerate(self.y_nodes):
                    fh.write(f"{t:.17g},{y:.17g},{y * z:.17g},{self.values[k, i]:.17g}\n")

    def check_max_principle(self) -> bool:
        """Whether every value lies within the range of the data."""
        lo, hi = self.meta["data_min"], self.meta["data_max"]
        return (float(self.values.min()) >= lo - _MAX_PRINCIPLE_TOL
                and float(self.values.max()) <= hi + _MAX_PRINCIPLE_TOL)


@dataclass(frozen=True)
class RegularityVerdict:
    """Exact table verdict with optional numerical probe evidence."""

    theorem_verdict: str                    # Regular | Irregular | Unknown
    numeric_trace: Optional[list] = None    # [(t, u(0,t)), ...]
    numeric_trend: Optional[str] = None     # attains | gap | inconclusive
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem_verdict": self.theorem_verdict,
            "numeric_trend": self.numeric_trend,
            "numeric_trace": self.numeric_trace,
            "certificate_refs": [],         # kept so report hashes do not move
            "meta": dict(sorted(self.meta.items())),
        }


def time_grid(profile: DomainProfile, p: float, cfg: SolverConfig) -> np.ndarray:
    """Geometric grid from t0 to -eps_min with the stiffness cap applied.

    Each log-uniform interval is subdivided until dt <= c_step * zeta^p
    evaluated at its right (narrower) end.
    """
    t0 = profile.t0
    eps = cfg.resolved_eps_min(t0)
    if eps >= abs(t0):
        raise DomainError(f"eps_min must lie in (0, |t0|), got {eps}")
    base = -np.logspace(math.log10(abs(t0)), math.log10(eps), cfg.n_t + 1)
    out = [base[0]]
    for a, b in zip(base[:-1], base[1:]):
        cap = cfg.c_step * float(profile.zeta(b)) ** p
        m = math.ceil((b - a) / cap) if cap > 0 else _MAX_STEPS
        if len(out) + m > _MAX_STEPS:
            raise SolverError(
                f"time grid exceeds max_steps={_MAX_STEPS}; "
                f"raise c_step or eps_min", t=b,
            )
        step = (b - a) / m
        out.extend(a + step * np.arange(1, m + 1))
    grid = np.array(out)
    grid[-1] = -eps
    return grid


def _flux(s, p, eps):
    """Regularized flux phi(s) = (s^2 + eps^2)^((p-2)/2) s and its derivative."""
    s2e = s * s + eps * eps
    return (s2e ** ((p - 2.0) / 2.0) * s,
            s2e ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps))


class _StepCoefficients(NamedTuple):
    """Values of one time step's discrete operator that do not depend on the
    iterate (zeta^-p is written dscale, the radial weight y^(1-n) radial)."""

    dt: float
    axis: float             # dscale * n: flux factor of the symmetry cell
    axis_jac: float         # dt * dscale * n
    radial: np.ndarray      # dscale * radial at the interior nodes
    jac_plus: np.ndarray    # dt * dscale * radial * geom_plus
    jac_minus: np.ndarray   # dt * dscale * radial * geom_minus
    a: np.ndarray           # advection coefficient y zeta'/zeta, interior nodes
    up: np.ndarray          # a > 0: upwind side is i+1
    Ap: np.ndarray          # dt * max(a, 0) / h, coupling to i+1
    Am: np.ndarray          # dt * max(-a, 0) / h, coupling to i-1


class _Stepper:
    """One implicit-Euler step of the transformed equation.

    `stats` accumulates over the steps taken: every call of `assemble` counts
    as an assembly, so assemblies == steps + newton_iterations + backtracks
    + picard_iterations (a Newton iteration's first line-search trial is its
    own assembly; each further trial is a backtrack).
    """

    def __init__(self, profile, p, n, cfg):
        self.profile, self.p, self.n, self.cfg = profile, p, n, cfg
        ny = cfg.n_y
        self.y = np.linspace(0.0, 1.0, ny)
        self.h = self.y[1] - self.y[0]
        self.h2 = self.h * self.h
        yh = self.y[:-1] + self.h / 2.0             # half points y_{i+1/2}
        self.geom_plus = yh[1:] ** (n - 1)          # faces i+1/2 for i=1..ny-2
        self.geom_minus = yh[:-1] ** (n - 1)        # faces i-1/2 for i=1..ny-2
        self.y_inner = self.y[1:-1]
        self.radial = self.y_inner ** (1 - n)
        self.y_half0 = self.h / 2.0
        self.axis_h = self.y_half0 * self.h
        self.stats = {"steps": 0, "newton_iterations": 0, "assemblies": 0,
                      "backtracks": 0, "picard_iterations": 0, "worst_residual": 0.0}

    def coefficients(self, t_new, dt) -> _StepCoefficients:
        z = float(self.profile.zeta(t_new))
        dz = float(self.profile.dzeta(t_new))
        dscale = z ** (-self.p)
        a = self.y_inner * (dz / z)
        up = a > 0.0
        return _StepCoefficients(
            dt=dt,
            axis=dscale * self.n,
            axis_jac=dt * dscale * self.n,
            radial=dscale * self.radial,
            jac_plus=dt * dscale * self.radial * self.geom_plus,
            jac_minus=dt * dscale * self.radial * self.geom_minus,
            a=a,
            up=up,
            Ap=dt * np.where(up, a, 0.0) / self.h,
            Am=dt * np.where(up, 0.0, -a) / self.h,
        )

    def solve(self, c: _StepCoefficients, d, rhs, step_index, t_new):
        """Solve the tridiagonal step system whose flux derivative at the half
        points is d: phi'(s) gives the Newton Jacobian, the frozen coefficient
        phi(s)/s the Picard matrix.

        The matrix goes straight to LAPACK gtsv, the routine solve_banded
        uses for one sub- and one super-diagonal.
        """
        ny = d.size + 1
        diag = np.empty(ny)
        sub = np.empty(ny - 1)                       # J[i, i-1]
        sup = np.empty(ny - 1)                       # J[i, i+1]
        c0 = c.axis_jac * d[0] / self.axis_h
        diag[0] = 1.0 + c0
        sup[0] = -c0
        Dp = c.jac_plus * d[1:] / self.h2
        Dm = c.jac_minus * d[:-1] / self.h2
        diag[1:-1] = 1.0 + Dp + Dm + c.Ap + c.Am
        sup[1:] = -(Dp + c.Ap)
        sub[:-1] = -(Dm + c.Am)
        diag[-1] = 1.0                               # Dirichlet row at y = 1
        sub[-1] = 0.0
        # the off-diagonals are minus non-negative parts of the diagonal, so a
        # non-finite entry anywhere in the matrix shows in diag
        if not np.isfinite(diag).all():
            raise SolverError(f"non-finite Jacobian at step {step_index} "
                              f"(t={t_new:.6g})", step=step_index, t=t_new)
        x, info = dgtsv(sub, diag, sup, rhs)[3:]
        if info != 0:
            raise SolverError(f"singular tridiagonal system at step {step_index} "
                              f"(t={t_new:.6g}, LAPACK info={info})",
                              step=step_index, t=t_new)
        return x

    def assemble(self, v, vold, c: _StepCoefficients, bc):
        """G(v), the flux derivative phi'(s) that gives its Jacobian, and the
        scaled residual norm.

        The norm is max_i |G_i| / scale_i, where scale_i bounds the terms
        combined in row i; the nonlinear solve accepts norm <= RESIDUAL_TOL,
        which is the roundoff floor of evaluating G (an absolute test is
        unreachable when the regularized flux makes individual terms large
        but cancelling).
        """
        self.stats["assemblies"] += 1
        p, eps, h, dt = self.p, self.cfg.eps_reg, self.h, c.dt
        s = (v[1:] - v[:-1]) / h                     # slopes at half points
        phi, dphi = _flux(s, p, eps)

        G = np.empty_like(v)
        scale = np.empty_like(v)

        # symmetry cell at y = 0: zero flux through the axis
        L0 = c.axis * phi[0] / self.y_half0
        G[0] = v[0] - vold[0] - dt * L0
        scale[0] = 1.0 + abs(v[0]) + abs(vold[0]) + dt * abs(L0)

        # interior rows i = 1..ny-2
        Fp = self.geom_plus * phi[1:]
        Fm = self.geom_minus * phi[:-1]
        diff = c.radial * (Fp - Fm) / h
        diff_mag = c.radial * (np.abs(Fp) + np.abs(Fm)) / h
        adv = np.where(c.up, c.a * s[1:], c.a * s[:-1])
        G[1:-1] = v[1:-1] - vold[1:-1] - dt * (adv + diff)
        scale[1:-1] = (1.0 + np.abs(v[1:-1]) + np.abs(vold[1:-1])
                       + dt * (np.abs(adv) + diff_mag))

        # Dirichlet row at y = 1
        G[-1] = v[-1] - bc
        scale[-1] = 1.0 + abs(bc)
        return G, dphi, float((np.abs(G) / scale).max())

    def step(self, vold, t_new, dt, bc, step_index):
        c = self.coefficients(t_new, dt)
        v = vold.copy()
        v[-1] = bc
        v, gnorm = self._newton(v, vold, c, bc, step_index, t_new)
        if not gnorm <= RESIDUAL_TOL:
            v, gnorm = self._picard(v, gnorm, vold, c, bc, step_index, t_new)
        self.stats["steps"] += 1
        self.stats["worst_residual"] = max(self.stats["worst_residual"], gnorm)
        return v

    def _newton(self, v, vold, c, bc, step_index, t_new):
        """Newton iterates with one assembly each: an accepted line-search
        trial's residual and flux derivative are the next iterate's."""
        stats = self.stats
        G, dphi, gnorm = self.assemble(v, vold, c, bc)
        for _ in range(_NEWTON_MAX):
            if gnorm <= RESIDUAL_TOL:
                break
            if not math.isfinite(gnorm):
                raise SolverError(f"non-finite residual at step {step_index} "
                                  f"(t={t_new:.6g})", step=step_index, t=t_new,
                                  residual=gnorm)
            dv = self.solve(c, dphi, -G, step_index, t_new)
            stats["newton_iterations"] += 1
            # nonmonotone acceptance: degenerate fronts (p > 2, flat slopes)
            # converge through transient residual increases, so only damp on
            # blow-up or non-finite trials
            lam = 1.0
            for tries in range(12):
                trial = v + lam * dv
                Gt, dphit, gt = self.assemble(trial, vold, c, bc)
                if accepted := math.isfinite(gt) and gt < 5.0 * gnorm:
                    break
                lam *= 0.5
            stats["backtracks"] += tries
            if not accepted:
                break               # every trial failed: Picard takes the step
            v, G, dphi, gnorm = trial, Gt, dphit, gt
        return v, gnorm

    def _picard(self, v, gnorm, vold, c, bc, step_index, t_new):
        """Picard fallback: freeze the flux coefficient w = phi(s)/s."""
        cfg = self.cfg
        rhs = vold.copy()
        rhs[-1] = bc
        for _ in range(_PICARD_MAX):
            s = (v[1:] - v[:-1]) / self.h
            w = (s * s + cfg.eps_reg ** 2) ** ((self.p - 2.0) / 2.0)
            v = self.solve(c, w, rhs, step_index, t_new)
            self.stats["picard_iterations"] += 1
            gnorm = self.assemble(v, vold, c, bc)[2]
            if gnorm <= RESIDUAL_TOL:
                return v, gnorm
        raise SolverError(
            f"nonlinear solve stalled at step {step_index} (t={t_new:.6g}, "
            f"scaled |G|={gnorm:.3e})", step=step_index, t=t_new, residual=gnorm,
        )


def solve_dirichlet(
    profile: DomainProfile,
    p: float,
    n: int,
    f: Callable,
    cfg: SolverConfig,
    t_nodes: Optional[np.ndarray] = None,
    initial_values: Optional[np.ndarray] = None,
) -> GridField:
    """March the discrete Dirichlet problem from t0 toward 0.

    f(r, t) supplies the parabolic boundary data: the bottom slice at t0
    (unless initial_values overrides it) and the lateral value f(zeta(t), t)
    at each time level.  Returns the full space-time field up to -eps_min.
    t_nodes may override the time grid (used by restriction experiments).
    """
    Params(p=p, n=n)            # rejects bad p and n before any step
    if profile.dzeta is None:
        raise DomainError(
            "profile has no usable width derivative (tabulated profiles need "
            "the monotone spline built by profile_from_samples)"
        )
    ts = np.asarray(t_nodes, dtype=float) if t_nodes is not None else time_grid(profile, p, cfg)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0) or ts[-1] >= 0:
        raise DomainError("t_nodes must be strictly increasing and negative")
    stepper = _Stepper(profile, p, n, cfg)
    y = stepper.y

    if initial_values is not None:
        v = np.asarray(initial_values, dtype=float).copy()
        if v.shape != y.shape:
            raise DomainError("initial_values shape mismatch")
    else:
        v = np.asarray(f(y * float(profile.zeta(ts[0])), ts[0]), dtype=float).copy()

    values = np.empty((ts.size, y.size))
    values[0] = v
    data_min = float(v.min())
    data_max = float(v.max())
    for k in range(1, ts.size):
        t_new = float(ts[k])
        dt = t_new - float(ts[k - 1])
        bc = float(f(float(profile.zeta(t_new)), t_new))
        data_min = min(data_min, bc)
        data_max = max(data_max, bc)
        v = stepper.step(v, t_new, dt, bc, k)
        values[k] = v

    return GridField(
        y_nodes=y, t_nodes=ts, values=values, profile=profile,
        meta={"data_min": data_min, "data_max": data_max,
              "stats": dict(stepper.stats)},
    )


def default_probe(r, t):
    """Boundary datum isolating the tip: min{1, |(x,t)|/0.1}, so f(0,0) = 0.

    The datum of every probe_origin run; any continuous datum with an
    isolated tip value would do.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.minimum(1.0, np.sqrt(r * r + t * t) / 0.1)
    return out if out.ndim else float(out)


def _default_ladder(t0: float) -> list:
    """The rungs probe_origin runs when it is given no ladder, each without
    the stiffness cap."""
    return [{"eps_min": frac * abs(t0), "n_y": n_y, "n_t": n_t,
             "c_step": _UNCAPPED_C_STEP}
            for frac, n_y, n_t in ((1e-2, 65, 200), (1e-3, 97, 400), (1e-4, 129, 800))]


def probe_origin(
    profile: DomainProfile,
    p: float,
    n: int,
    ladder: Optional[list] = None,
) -> dict:
    """Tip-attainment probe across a refinement ladder.

    Each rung solves down to its eps_min and records the axis endpoint
    u(0, -eps_min) under the boundary datum default_probe, and its grid and
    step count in rungs; ladder defaults to _default_ladder(t0).  Trend rules
    (declared in PROBE_THRESHOLDS):

      attains: last endpoint < attains_endpoint and every successive
               endpoint ratio < attains_ratio (the trace keeps collapsing
               under refinement);
      gap:     last two endpoints agree within gap_rel_change relatively and
               the last is >= gap_floor (the trace stalls at a positive
               level);
      inconclusive otherwise (including any failed rung).
    """
    th = PROBE_THRESHOLDS
    if ladder is None:
        ladder = _default_ladder(profile.t0)
    endpoints, rungs, trace = [], [], None
    for rung in ladder:
        cfg = SolverConfig(**rung)
        try:
            fld = solve_dirichlet(profile, p, n, default_probe, cfg)
        except SolverError as err:
            return {"trend": "inconclusive", "endpoints": endpoints,
                    "error": str(err), "thresholds": dict(th),
                    "rungs": rungs, "trace": trace}
        endpoints.append(float(fld.values[-1, 0]))
        keep = np.unique(np.linspace(0, fld.t_nodes.size - 1, 64).astype(int))
        trace = [(float(fld.t_nodes[k]), float(fld.values[k, 0])) for k in keep]
        rungs.append({"eps_min": cfg.resolved_eps_min(profile.t0),
                      "n_y": cfg.n_y, "n_t": cfg.n_t,
                      "n_steps": fld.meta["stats"]["steps"]})

    trend = "inconclusive"
    if len(endpoints) >= 2:
        e = np.abs(np.array(endpoints))
        ratios = e[1:] / np.maximum(e[:-1], 1e-300)
        if e[-1] < th["attains_endpoint"] and np.all(ratios < th["attains_ratio"]):
            trend = "attains"
        else:
            rel = abs(e[-1] - e[-2]) / max(e[-1], e[-2], 1e-300)
            if e[-1] >= th["gap_floor"] and rel <= th["gap_rel_change"]:
                trend = "gap"
    return {"trend": trend, "endpoints": endpoints, "rungs": rungs,
            "thresholds": dict(th), "trace": trace}


def classify(
    p: float,
    q: float,
    n: int = 1,
    K: float = 1.0,
    with_probe: bool = False,
    ladder: Optional[list] = None,
) -> RegularityVerdict:
    """Exact regularity verdict for the power cusp |x| < K(-t)^q at the tip.

    The amplitude K is irrelevant for p != 2 (space dilations preserve
    regularity); for p = 2 the verdict is stated for the power profile,
    where q >= 1/2 is regular.  The singular borderline q = 1/p (p < 2) is
    reported Unknown, never guessed.  Bad p or n (Params) and bad K or q
    (make_profile) raise DomainError before any work, and a malformed probe
    ladder (SolverConfig) raises it before its rung runs.
    """
    Params(p=p, n=n)
    profile = make_profile("power", K=K, q=q, t0=-1.0)
    inv_p = 1.0 / p
    borderline = abs(q - inv_p) <= _BORDERLINE_RTOL * max(1.0, inv_p)
    if p > 2:
        verdict = "Regular" if (q > inv_p and not borderline) else "Irregular"
    elif p == 2:
        verdict = "Regular" if (q >= 0.5 or abs(q - 0.5) <= _BORDERLINE_RTOL) else "Irregular"
    else:
        if borderline:
            verdict = "Unknown"
        elif q > inv_p:
            verdict = "Regular"
        else:
            verdict = "Irregular"

    trace = trend = None
    meta = {"p": p, "q": q, "n": n, "K": K, "q_threshold": inv_p,
            "K_irrelevant": p != 2}
    if with_probe:
        probe = probe_origin(profile, p, n, ladder=ladder)
        trace, trend = probe["trace"], probe["trend"]
        meta["probe"] = {"endpoints": probe["endpoints"], "rungs": probe["rungs"],
                         "thresholds": probe["thresholds"]}
        if "error" in probe:
            meta["probe"]["error"] = probe["error"]
        if verdict == "Unknown":
            # the borderline case is open; the probe may not decide it
            trend = "inconclusive"
            meta["probe"]["borderline_policy"] = (
                "q = 1/p with p < 2 is reported inconclusive by policy; "
                "the raw trend is kept in meta"
            )
            meta["probe"]["raw_trend"] = probe["trend"]
    return RegularityVerdict(
        theorem_verdict=verdict, numeric_trace=trace, numeric_trend=trend,
        meta=meta,
    )
