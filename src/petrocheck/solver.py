"""Radially symmetric implicit solver for du/dt = Lap_p u on cusp domains.

The moving domain |x| < zeta(t) is mapped onto the unit cylinder by
y = r/zeta(t).  Writing v(y, t) = u(y zeta(t), t), the chain rule gives

    du/dt|_r = dv/dt|_y - y (zeta'/zeta) dv/dy,

and since du/dr = (dv/dy)/zeta and the flux |s|^(p-2) s is (p-1)-homogeneous,

    Lap_p u = zeta^(-p) y^(1-n) d/dy ( y^(n-1) |v_y|^(p-2) v_y ).

The transformed equation solved here is therefore

    dv/dt = y (zeta'/zeta) v_y + zeta(t)^(-p) y^(1-n) (y^(n-1) phi(v_y))_y ,

with phi(s) = (s^2 + eps_reg^2)^((p-2)/2) s.

Discretization: vertex-centered finite volumes on the uniform grid y_i = i h,
i = 0..N, with the fluxes phi_{i+1/2} = phi((v_{i+1} - v_i)/h) at the half
points, a zero-flux symmetry cell at y = 0, a Dirichlet node at y = 1,
first-order upwind advection and implicit Euler in time.  A step of length
dt to the level t has the weights, with zeta and zeta' taken at t,

    w0 = dt zeta^-p n / (h/2)                                (symmetry cell)
    wp_i, wm_i = dt zeta^-p y_i^(1-n) y_{i+-1/2}^(n-1) / h   (faces of node i)
    A_i = dt |y_i zeta'/zeta| / h                            (advection)

and, since zeta'/zeta has one sign on the whole grid, one upwind neighbour
u = i + 1 (zeta' > 0) or u = i - 1 for every row.  Row i of the residual is

    G_i = v_i - vold_i - [A_i (v_u - v_i) + wp_i phi_{i+1/2} - wm_i phi_{i-1/2}],

row 0 is v_0 - vold_0 - w0 phi_{1/2} and row N is v_N - bc.  With
d = phi'/h at the half points, row i of the tridiagonal Jacobian J is

    J[i, i-1] = -wm_i d_{i-1/2}            (- A_i if u = i - 1)
    J[i, i]   = 1 + wp_i d_{i+1/2} + wm_i d_{i-1/2} + A_i
    J[i, i+1] = -wp_i d_{i+1/2}            (- A_i if u = i + 1)

row 0 is (1 + w0 d_{1/2}, -w0 d_{1/2}) and row N is the identity's.  The
march reads zeta, zeta' and the lateral datum of every level in one array
call each before the first step, and each step forms w, w0 and A from its
level's values as Python floats.  The weights are built once per step and
both G and J read them.  J is an
M-matrix at any dt, so the scheme obeys a discrete comparison principle up
to the nonlinear solve tolerance; the tests check it against the exact
source solution B(r, t + 2).

Each step solves G = 0 by Newton with J and a backtracking line search: for
p >= 2 a trial may raise the scaled residual up to 5x, since degenerate
fronts converge through transient increases; for p < 2, where the concave
flux lets such trials wander, a trial must lower it.  Newton starts step k
from the Lagrange polynomial through the last m = min(k, _START_ORDER + 1)
levels, evaluated at t_k (order 4 from step 5 on, the secant at step 2; step
1 starts from v_0), with the Dirichlet node set to its datum.  Writing v
for v_{k-1}, it is formed as v + sum_j l_j (v_{k-1-j} - v), j = 1..m-1, with
the weights l_j in Python floats from the time nodes, so a field that holds
one constant on those levels starts at that constant: each difference is 0
and the weights are finite.  The start leaves each step's stopping test as it is
and moves only the iterate that passes it: fields stay within 1e-9 of the
secant start's and axis endpoints within 1e-11 (1.0e-10 and 1.5e-12
measured), and on the probe's log-uniform rungs Newton takes less than half
the secant start's iterations.  A step is solved when max_i |G_i| / scale_i
<= RESIDUAL_TOL, where scale_i is 1 + |v_i| + |vold_i| plus the magnitude of
each term of row i.  Each residual evaluation (assembly) builds phi' only as
a function, called when its iterate goes on to a tridiagonal solve.  A step
that has not converged after _NEWTON_MAX iterations, or whose line-search
trials all fail, raises SolverError, as do a non-finite residual or Jacobian
and a singular system (LAPACK gtsv).  gtsv is the solver's one use of
scipy.linalg, and it is imported on the first implicit step (when the first
solve builds its stepper), not with the module: certificates and verdicts
without the probe never load it.

Newton runs only where the field can move.  While the field is a finite
constant c and the next lateral datum is c, the level is still: phi(0) = 0
and A (c - c) = 0 make every term of G exactly 0 at the extrapolated start,
which is c, so the march writes that start (Dirichlet node bc) as the level
with no assembly, exactly what Newton would accept.  If a weight of the step
or phi(0) is not finite, G is not 0 and the step goes to Newton, which fails
as it would.  Still levels can only open the march: the first datum other
than c ends them.  Each solve records its counts (steps, settled steps,
Newton iterations, assemblies, backtracks) and the worst accepted scaled
residual in GridField.meta["stats"].

Time grid: geometric (log-uniform) from t0 down to -eps_min, then each
interval is subdivided until dt <= c_step * zeta(t)^p, because the
transformed diffusion coefficient grows like zeta^(-p) as the cusp closes.
The cap is an accuracy heuristic, not a stability need: each implicit step
is an M-matrix problem at any dt.  The step counts of all intervals are
checked against _MAX_STEPS before the grid is built in one pass.  The
default probe ladder sets c_step to _UNCAPPED_C_STEP, so each of its rungs
marches exactly its n_t log-uniform steps; for q*p > 1 the cap would grow
the deepest rung like eps_min^(1 - q*p).  No data is ever imposed at t = 0;
marching stops at -eps_min.  SolverConfig checks its grid and step settings
when it is built.

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
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

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
_NEWTON_MAX = 60          # Newton iterations before a step counts as stalled
_START_ORDER = 4          # degree of the extrapolation Newton starts each step from
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


def __getattr__(name):
    # solve_banded is no longer called (the solver calls gtsv directly); the
    # name stays resolvable, imported on request, because
    # perfbench/tracing.py wraps solver.solve_banded
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Grid, regularization and step-cap settings, checked on construction:
    integers n_y >= 3 and n_t >= 1, and eps_reg, c_step and a given eps_min
    positive and finite; anything else raises DomainError."""

    n_y: int = 129
    n_t: int = 400
    eps_min: Optional[float] = None   # default 1e-4 * |t0|
    eps_reg: float = 1e-8
    c_step: float = 0.5

    def __post_init__(self):
        for name in ("n_y", "n_t"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
            # the widths as the march read them, in one call over the grid
            zs = np.asarray(self.profile.zeta(self.t_nodes), dtype=float)
            for t, z, row in zip(self.t_nodes, zs, self.values):
                for y, u in zip(self.y_nodes, row):
                    fh.write(f"{t:.17g},{y:.17g},{y * z:.17g},{u:.17g}\n")

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
            "meta": dict(sorted(self.meta.items())),
        }


def time_grid(profile: DomainProfile, p: float, cfg: SolverConfig) -> np.ndarray:
    """Geometric grid from t0 to -eps_min with the stiffness cap applied.

    Each log-uniform interval [a, b] is subdivided into m equal steps, the
    least m >= 1 with dt <= c_step * zeta^p evaluated at its right (narrower)
    end; its points are a + ((b - a) / m) j for j = 1..m.  The step count is
    checked against _MAX_STEPS before the grid is built.
    """
    t0 = profile.t0
    eps = cfg.resolved_eps_min(t0)
    if eps >= abs(t0):
        raise DomainError(f"eps_min must lie in (0, |t0|), got {eps}")
    base = -np.logspace(math.log10(abs(t0)), math.log10(eps), cfg.n_t + 1)
    a, b = base[:-1], base[1:]
    # cap may overflow to inf, where an interval still takes one step; a cap
    # that is 0 or NaN asks for more steps than the guard allows
    with np.errstate(over="ignore", divide="ignore"):
        cap = cfg.c_step * np.asarray(profile.zeta(b), dtype=float) ** p
        m = np.where(cap > 0, np.maximum(1.0, np.ceil((b - a) / cap)), _MAX_STEPS)
    ends = np.cumsum(m)         # integers, exact in floating point up to the guard
    over = np.flatnonzero(1.0 + ends > _MAX_STEPS)
    if over.size:
        raise SolverError(
            f"time grid exceeds max_steps={_MAX_STEPS}; "
            f"raise c_step or eps_min", t=b[over[0]],
        )
    m, ends = m.astype(np.intp), ends.astype(np.intp)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - m, m)    # 1..m in each interval
    grid = np.empty(j.size + 1)
    grid[0] = base[0]
    grid[1:] = np.repeat(a, m) + np.repeat((b - a) / m, m) * j
    grid[-1] = -eps
    return grid


def _flux(s, p, eps):
    """Regularized flux phi(s) = (s^2 + eps^2)^((p-2)/2) s, and a function
    that returns its derivative phi'(s); only a Newton solve calls it."""
    s2e = s * s + eps * eps
    return (s2e ** ((p - 2.0) / 2.0) * s,
            lambda: s2e ** ((p - 4.0) / 2.0) * ((p - 1.0) * s * s + eps * eps))


class _StepCoefficients(NamedTuple):
    """The weights of one step's operator, built once per step (see the
    module docstring); the residual and its Jacobian both read them."""

    w0: float               # symmetry cell
    wp: np.ndarray          # face i+1/2 of each interior node i
    wm: np.ndarray          # face i-1/2 of each interior node i
    up: bool                # zeta' > 0, so the upwind neighbour is i+1
    A: np.ndarray           # advection, interior nodes


class _Stepper:
    """One implicit-Euler step of the transformed equation.

    `stats` accumulates over the steps taken: every call of `assemble` counts
    as an assembly and a level `settle` writes counts as a settled step, so
    assemblies == steps - settled_steps + newton_iterations + backtracks (a
    Newton step's first residual is one assembly, a Newton iteration's first
    line-search trial is its own assembly and each further trial is a
    backtrack).
    """

    def __init__(self, p, n, cfg):
        self.p, self.n, self.cfg = p, n, cfg
        self.y = np.linspace(0.0, 1.0, cfg.n_y)
        self.h = self.y[1] - self.y[0]
        # y_i^(1-n) y_{i+-1/2}^(n-1) / h at the interior nodes i
        yh = self.y[:-1] + self.h / 2.0             # half points y_{i+1/2}
        radial = self.y[1:-1] ** (1 - n) / self.h
        self.geom_plus = radial * yh[1:] ** (n - 1)
        self.geom_minus = radial * yh[:-1] ** (n - 1)
        # the face weights are w times these; rounding is monotone, so they
        # are all finite iff w times the largest is
        self.geom_max = float(max(self.geom_plus.max(), self.geom_minus.max()))
        # phi(0) is exactly 0 unless (eps_reg^2)^((p-2)/2) is infinite
        with np.errstate(all="ignore"):
            self.flat_flux_is_zero = not _flux(np.zeros(cfg.n_y - 1), p, cfg.eps_reg)[0].any()
        self.stats = {"steps": 0, "settled_steps": 0, "newton_iterations": 0,
                      "assemblies": 0, "backtracks": 0, "worst_residual": 0.0}
        # imported here, not at module level: scipy.linalg costs a start about
        # 0.2 s and 24 MB (2 vCPU), and only an implicit step uses it
        from scipy.linalg.lapack import dgtsv

        self.gtsv = dgtsv

    def _scalars(self, dt, z, dz):
        """w = dt zeta^-p, the symmetry weight w0, the advection factor
        a = dt |zeta'/zeta| / h and the upwind side of a step of length dt
        to a level where the width is z = zeta and its rate dz = zeta'."""
        w = dt * z ** (-self.p)
        return w, w * self.n / (self.h / 2.0), dt * abs(dz / z) / self.h, dz > 0.0

    def coefficients(self, dt, z, dz) -> _StepCoefficients:
        w, w0, a, up = self._scalars(dt, z, dz)
        return _StepCoefficients(w0=w0, wp=w * self.geom_plus, wm=w * self.geom_minus,
                                 up=up, A=a * self.y[1:-1])

    def assemble(self, v, vold, c: _StepCoefficients, bc):
        """G(v), a function that returns the flux derivative phi'(s) at the
        half points, and the scaled residual norm.  The norm is scaled
        because an absolute test is unreachable where the regularized flux
        makes terms large but cancelling; RESIDUAL_TOL is the roundoff floor
        of evaluating G."""
        self.stats["assemblies"] += 1
        phi, dphi = _flux((v[1:] - v[:-1]) / self.h, self.p, self.cfg.eps_reg)
        terms = np.zeros((3, v.size))       # advection, outflow, inflow of each row
        terms[0, 1:-1] = c.A * ((v[2:] if c.up else v[:-2]) - v[1:-1])
        terms[1, 0] = c.w0 * phi[0]
        terms[1, 1:-1] = c.wp * phi[1:]
        terms[2, 1:-1] = c.wm * phi[:-1]
        G = v - vold - (terms[0] + (terms[1] - terms[2]))
        scale = 1.0 + np.abs(v) + np.abs(vold) + np.abs(terms).sum(axis=0)
        G[-1] = v[-1] - bc                  # Dirichlet row at y = 1
        scale[-1] = 1.0 + abs(bc)
        return G, dphi, float((np.abs(G) / scale).max())

    def solve(self, c: _StepCoefficients, dphi, rhs, step_index, t_new):
        """Solve J x = rhs, where J is the Jacobian of G at the iterate whose
        flux derivative at the half points is dphi, by LAPACK gtsv (loaded
        with the stepper, before its first step)."""
        d = dphi / self.h
        Dp = c.wp * d[1:]
        Dm = c.wm * d[:-1]
        diag = np.empty(rhs.size)
        sup = np.empty(rhs.size - 1)                 # J[i, i+1]
        sub = np.zeros(rhs.size - 1)                 # J[i, i-1]; 0 in the Dirichlet row
        diag[0] = 1.0 + c.w0 * d[0]
        sup[0] = -c.w0 * d[0]
        diag[1:-1] = 1.0 + Dp + Dm + c.A
        diag[-1] = 1.0
        sup[1:] = -(Dp + c.A) if c.up else -Dp
        sub[:-1] = -Dm if c.up else -(Dm + c.A)
        # the off-diagonals are minus non-negative parts of the diagonal, so a
        # non-finite entry anywhere in the matrix shows in diag
        if not np.isfinite(diag).all():
            raise SolverError(f"non-finite Jacobian at step {step_index} "
                              f"(t={t_new:.6g})", step=step_index, t=t_new)
        x, info = self.gtsv(sub, diag, sup, rhs)[3:]
        if info != 0:
            raise SolverError(f"singular tridiagonal system at step {step_index} "
                              f"(t={t_new:.6g}, LAPACK info={info})",
                              step=step_index, t=t_new)
        return x

    def settle(self, start, dt, z, dz, bc):
        """The step of length dt to a level of width z and rate dz from a
        still level: the previous level and start equal the finite datum bc
        everywhere.  Every term of G is then exactly 0 at start, so Newton
        would accept it as it is; this returns start with its Dirichlet node
        set to bc without assembling G.  Returns None if a weight of the
        step or phi(0) is not finite, where G is not 0 and `step` fails as it
        would from any start."""
        w, w0, a, _ = self._scalars(dt, z, dz)
        if not (self.flat_flux_is_zero
                and math.isfinite(w0) and math.isfinite(w * self.geom_max)
                and math.isfinite(a)):
            return None
        v = start.copy()
        v[-1] = bc
        self.stats["steps"] += 1
        self.stats["settled_steps"] += 1
        return v

    def step(self, vold, start, t_new, dt, z, dz, bc, step_index):
        """Solve the step from vold to t_new, where the width is z and its
        rate dz, by Newton, started at start with its Dirichlet node set to
        bc.

        Each Newton iterate costs one assembly: an accepted line-search
        trial's residual is the next iterate's, and its flux derivative is
        built only if that iterate goes on to a solve.  The step fails after
        _NEWTON_MAX iterations, or when all twelve trials of a line search
        fail.
        """
        c = self.coefficients(dt, z, dz)
        stats = self.stats
        # nonmonotone acceptance for p >= 2: degenerate fronts (flat slopes)
        # converge through transient residual increases, so damp only on
        # blow-up; in the singular range the concave flux lets such trials
        # wander, so a trial must lower the residual
        growth = 5.0 if self.p >= 2.0 else 1.0
        v = start.copy()
        v[-1] = bc
        G, dphi, gnorm = self.assemble(v, vold, c, bc)
        for _ in range(_NEWTON_MAX):
            if gnorm <= RESIDUAL_TOL:
                break
            if not math.isfinite(gnorm):
                raise SolverError(f"non-finite residual at step {step_index} "
                                  f"(t={t_new:.6g})", step=step_index, t=t_new,
                                  residual=gnorm)
            dv = self.solve(c, dphi(), -G, step_index, t_new)
            stats["newton_iterations"] += 1
            lam = 1.0
            for tries in range(12):
                trial = v + lam * dv
                Gt, dphit, gt = self.assemble(trial, vold, c, bc)
                if accepted := math.isfinite(gt) and gt < growth * gnorm:
                    break
                lam *= 0.5
            stats["backtracks"] += tries
            if not accepted:
                break
            v, G, dphi, gnorm = trial, Gt, dphit, gt
        if not gnorm <= RESIDUAL_TOL:
            raise SolverError(
                f"nonlinear solve stalled at step {step_index} (t={t_new:.6g}, "
                f"scaled |G|={gnorm:.3e})", step=step_index, t=t_new, residual=gnorm,
            )
        stats["steps"] += 1
        stats["worst_residual"] = max(stats["worst_residual"], gnorm)
        return v


def _newton_start(t, values, k):
    """Start of step k's Newton solve: the Lagrange polynomial through the
    levels values[k - m:k] at the times t[k - m:k], evaluated at t[k], where
    m = min(k, _START_ORDER + 1).  Writing v for values[k - 1], it is formed
    as v + sum_j l_j (values[k - 1 - j] - v), with the weights l_j in Python
    floats, so a field that holds one constant on those levels starts at
    that constant."""
    v = values[k - 1]
    if k == 1:
        return v
    m = min(k, _START_ORDER + 1)
    tk, nodes = t[k], t[k - m:k]        # oldest first; nodes[-1] is v's time
    weights = []
    for j, tj in enumerate(nodes[:-1]):
        w = 1.0
        for i, ti in enumerate(nodes):
            if i != j:
                w *= (tk - ti) / (tj - ti)
        weights.append(w)
    return v + np.asarray(weights) @ (values[k - m:k - 1] - v)


def solve_dirichlet(
    profile: DomainProfile,
    p: float,
    n: int,
    f: Callable,
    cfg: SolverConfig,
) -> GridField:
    """March the discrete Dirichlet problem from t0 toward 0 on time_grid.

    f(r, t) supplies the parabolic boundary data and must act elementwise on
    arrays: it is called twice, on the bottom slice (r = y zeta(t0) at t0)
    and on the lateral points (zeta(t), t) of every later level at once.
    zeta and zeta' are read over the whole time grid in one call each,
    before the first step.  Returns the full space-time field up to
    -eps_min.
    """
    Params(p=p, n=n)            # rejects bad p and n before any step
    if profile.dzeta is None:
        raise DomainError(
            "profile has no usable width derivative (tabulated profiles need "
            "the monotone spline built by profile_from_samples)"
        )
    ts = time_grid(profile, p, cfg)
    stepper = _Stepper(p, n, cfg)
    y = stepper.y
    zs = np.asarray(profile.zeta(ts), dtype=float)
    v = np.asarray(f(y * zs[0], ts[0]), dtype=float).copy()
    lateral = np.asarray(f(zs[1:], ts[1:]), dtype=float)
    values = np.empty((ts.size, y.size))
    values[0] = v
    # as Python floats, the per-level weights keep the scalar arithmetic
    t, dzs = ts.tolist(), np.asarray(profile.dzeta(ts), dtype=float).tolist()
    levels = zip(t[1:], zs.tolist()[1:], dzs[1:], lateral.tolist())
    # a finite constant bottom slice c stays still while the lateral datum
    # is c; the first other datum ends the run of settled levels
    c = float(v.min())
    still = c == float(v.max()) and math.isfinite(c)
    for k, (t_new, z, dz, bc) in enumerate(levels, 1):
        dt = t_new - t[k - 1]
        still = still and bc == c
        # while a non-zero constant is still, every level so far is v bit for
        # bit and the weights are finite, so the extrapolation is v itself;
        # at 0 it sets the signs of the zeros
        start = v if still and c else _newton_start(t, values, k)
        settled = stepper.settle(start, dt, z, dz, bc) if still else None
        still = settled is not None
        v = settled if still else stepper.step(v, start, t_new, dt, z, dz, bc, k)
        values[k] = v

    return GridField(
        y_nodes=y, t_nodes=ts, values=values, profile=profile,
        meta={"data_min": float(min(values[0].min(), lateral.min())),
              "data_max": float(max(values[0].max(), lateral.max())),
              "stats": dict(stepper.stats)},
    )


def default_probe(r, t):
    """Boundary datum isolating the tip: min{1, |(x,t)|/0.1}, so f(0,0) = 0.

    The datum of every probe_origin run; any continuous datum with an
    isolated tip value would do.  Elementwise on arrays, as the march reads
    it.  On a wide cusp r^2 may overflow to inf, where min(1, inf) = 1 is
    exact, so the overflow is not reported.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        out = np.minimum(1.0, np.sqrt(r * r + t * t) / 0.1)
    return out if out.ndim else float(out)


def _default_ladder(t0: float) -> list:
    """The rungs probe_origin runs, each without the stiffness cap."""
    return [{"eps_min": frac * abs(t0), "n_y": n_y, "n_t": n_t,
             "c_step": _UNCAPPED_C_STEP}
            for frac, n_y, n_t in ((1e-2, 65, 200), (1e-3, 97, 400), (1e-4, 129, 800))]


def probe_origin(profile: DomainProfile, p: float, n: int) -> dict:
    """Tip-attainment probe across the refinement ladder _default_ladder(t0).

    Each rung solves down to its eps_min and records the axis endpoint
    u(0, -eps_min) under the boundary datum default_probe, and in rungs its
    grid, its step count, its settled steps and its Newton iterations (from
    the solve's meta["stats"]).  Trend rules (declared in PROBE_THRESHOLDS):

      attains: last endpoint < attains_endpoint and every successive
               endpoint ratio < attains_ratio (the trace keeps collapsing
               under refinement);
      gap:     last two endpoints agree within gap_rel_change relatively and
               the last is >= gap_floor (the trace stalls at a positive
               level);
      inconclusive otherwise (including any failed rung).
    """
    th = PROBE_THRESHOLDS
    endpoints, rungs, trace = [], [], None
    for rung in _default_ladder(profile.t0):
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
        stats = fld.meta["stats"]
        rungs.append({"eps_min": cfg.resolved_eps_min(profile.t0),
                      "n_y": cfg.n_y, "n_t": cfg.n_t, "n_steps": stats["steps"],
                      "settled_steps": stats["settled_steps"],
                      "newton_iterations": stats["newton_iterations"]})

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
) -> RegularityVerdict:
    """Exact regularity verdict for the power cusp |x| < K(-t)^q at the tip.

    The amplitude K is irrelevant for p != 2 (space dilations preserve
    regularity); for p = 2 the verdict is stated for the power profile,
    where q >= 1/2 is regular.  The singular borderline q = 1/p (p < 2) is
    reported Unknown, never guessed; q within _BORDERLINE_RTOL * max(1, 1/p)
    of 1/p counts as the borderline.  Bad p or n (Params) and bad K or q
    (make_profile) raise DomainError before any work.
    """
    Params(p=p, n=n)
    profile = make_profile("power", K=K, q=q, t0=-1.0)
    inv_p = 1.0 / p
    if abs(q - inv_p) <= _BORDERLINE_RTOL * max(1.0, inv_p):
        verdict = "Irregular" if p > 2 else "Regular" if p == 2 else "Unknown"
    else:
        verdict = "Regular" if q > inv_p else "Irregular"

    trace = trend = None
    meta = {"p": p, "q": q, "n": n, "K": K, "q_threshold": inv_p,
            "K_irrelevant": p != 2}
    if with_probe:
        probe = probe_origin(profile, p, n)
        trace, trend = probe.pop("trace"), probe.pop("trend")
        meta["probe"] = probe
        if verdict == "Unknown":
            # the borderline case is open; the probe may not decide it
            probe["borderline_policy"] = (
                "q = 1/p with p < 2 is reported inconclusive by policy; "
                "the raw trend is kept in meta"
            )
            probe["raw_trend"], trend = trend, "inconclusive"
    return RegularityVerdict(
        theorem_verdict=verdict, numeric_trace=trace, numeric_trend=trend,
        meta=meta,
    )
