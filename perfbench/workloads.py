"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload is built from its seed (input generation, part of set-up) and
yields a fixed list of operations, one round.  Each operation is a pair of
callables: `run()` does the program's work and is timed; `check(out)`
verifies the output with `checks` and is not timed.  Program functions are
always reached through their module attributes at call time, so that the
traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# (p, q, n) cells on which the default 3-rung probe ladder reaches a trend:
# one Newton-heavy regular cell (3, 0.6, 1), irregular cells that need no
# Newton work, singular-range cells (p < 2) and the p = 2 boundary case.
PROBE_CELLS = [
    (3.0, 0.6, 1), (3.0, 0.2, 1), (2.5, 0.3, 1), (1.8, 0.7, 1),
    (1.8, 0.3, 2), (1.5, 0.3, 1), (2.0, 0.6, 1), (2.5, 0.6, 1),
]

# solve_batch: criterion-8 set-up, one profile and one time grid per pair
BATCH_P, BATCH_Q, BATCH_N = 3.0, 0.5, 1
BATCH_GRID = dict(n_y=65, n_t=200, eps_min=1e-3)
BATCH_PAIRS = 6
EXACT_NY = (65, 129)                      # exact-solution resolutions
EXACT_GRID = dict(n_t=200, eps_min=1e-3)

# certify_fine: grid sizes and the gauge pipeline cells (p > 2)
SIGN_GRID = 1024                          # n_t = n_y for single-barrier certificates
FAMILY_GRID = 768                         # n_t = n_y for family certificates
FAMILY_CELLS = [(3.0, 0.5, 1), (4.0, 0.4, 2), (2.5, 0.6, 1)]
FAMILY_LADDER = 9
FD_SAMPLES = 48                           # grid points per certificate re-checked by differences


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


class OpFailed(Exception):
    """The program reported failure (non-zero exit code) for an operation."""


def _bc(tracer, f):
    """Boundary callback, timed as `solver.bc` in the traced run."""
    return tracer.wrap("solver.bc", f) if tracer else f


def _power_zeta(q: float):
    """Width (-t)^q of the power cusp with K = 1."""
    return lambda t: (-np.asarray(t, dtype=float)) ** q


# ----------------------------------------------------------------- probe_ladder

def probe_ladder(pc, seed: int, tracer) -> list:
    """One `classify --with-probe` CLI run per cell, cells in seeded order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(PROBE_CELLS))
    ops = []
    for p, q, n in (PROBE_CELLS[i] for i in order):
        argv = ["classify", "--p", repr(p), "--q", repr(q), "--n", str(n), "--with-probe"]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pc.cli.main(argv)
            if code != 0:
                raise OpFailed(f"petrocheck {' '.join(argv)} exited with {code}")
            text = buf.getvalue()
            if tracer:
                tracer.counts["cli.report_bytes"] += len(text.encode())
            return text

        def check(text, p=p, q=q, n=n):
            return checks.check_classify_report(text, p, q, n)

        ops.append(Op(f"classify(p={p}, q={q}, n={n})", run, check))
    return ops


# ------------------------------------------------------------------ solve_batch

def _pair_data(rng):
    """An ordered pair f1 <= f2 drawn as in acceptance criterion 8."""
    a = float(rng.uniform(-1.0, 1.0))
    b = float(rng.uniform(0.5, 3.0))
    c = float(rng.uniform(-1.0, 1.0))
    amp = float(rng.uniform(0.05, 0.6))
    w = float(rng.uniform(1.0, 4.0))

    def f1(r, t):
        return a + 0.4 * np.sin(b * np.asarray(r, dtype=float) + c) + 0.2 * np.asarray(t)

    def f2(r, t):
        gap = amp * np.sin(w * np.asarray(r, dtype=float)) ** 2 * np.cos(np.asarray(t)) ** 2
        return f1(r, t) + gap

    return f1, f2


def solve_batch(pc, seed: int, tracer) -> list:
    """Seeded ordered pairs, one constant-data solve and one exact-solution
    refinement pair, all through `solver.solve_dirichlet`."""
    rng = np.random.default_rng(seed)
    sol = pc.solver
    zeta = _power_zeta(BATCH_Q)
    ops = []

    def profile(q=BATCH_Q):
        return pc.domains.make_profile("power", K=1.0, q=q, t0=-1.0)

    def solve(prof, f, **grid):
        return sol.solve_dirichlet(prof, BATCH_P, BATCH_N, f, sol.SolverConfig(**grid))

    for k in range(BATCH_PAIRS):
        f1, f2 = _pair_data(rng)
        # only the solver's calls are timed as `solver.bc`, not the checks'
        g1, g2 = _bc(tracer, f1), _bc(tracer, f2)

        def run(g1=g1, g2=g2):
            prof = profile()
            return solve(prof, g1, **BATCH_GRID), solve(prof, g2, **BATCH_GRID)

        def check(out, f1=f1, f2=f2):
            problems = checks.check_comparison(out[0].values, out[1].values)
            for fld, f in zip(out, (f1, f2)):
                lo, hi = checks.boundary_range(f, np.linspace(0.0, 1.0, fld.values.shape[1]),
                                               fld.t_nodes, zeta)
                problems += checks.check_max_principle(fld.values, lo, hi)
            return problems

        ops.append(Op(f"pair {k}", run, check))

    cval = float(rng.uniform(-1.0, 1.0))
    fc = _bc(tracer, lambda r, t: cval + 0.0 * np.asarray(r, dtype=float))
    ops.append(Op(f"constant {cval:.6g}", lambda: solve(profile(), fc, **BATCH_GRID),
                  lambda fld: checks.check_constant(fld.values, cval)))

    q_ex = 1.0 / BATCH_P
    exact = checks.exact_solution(BATCH_P, BATCH_N)
    fe = _bc(tracer, exact)
    zeta_ex = _power_zeta(q_ex)

    def run_exact():
        prof = profile(q_ex)
        return [solve(prof, fe, n_y=ny, **EXACT_GRID) for ny in EXACT_NY]

    def check_exact(fields):
        errors, problems = [], []
        for fld in fields:
            y = np.linspace(0.0, 1.0, fld.values.shape[1])
            errors.append(checks.exact_error(fld.values, y, fld.t_nodes, exact, zeta_ex))
            lo, hi = checks.boundary_range(exact, y, fld.t_nodes, zeta_ex)
            problems += checks.check_max_principle(fld.values, lo, hi)
        return problems + checks.check_convergence(errors)

    ops.append(Op(f"exact n_y={EXACT_NY}", run_exact, check_exact))
    return ops


# ---------------------------------------------------------------- certify_fine

def _sign_params(kind: str, rng) -> dict:
    """Seeded parameters inside each construction's admissible range."""
    if kind == "singular_irregularity":
        p = float(rng.uniform(1.4, 1.9))
        return dict(p=p, n=int(rng.integers(1, 3)), q=float(rng.uniform(0.2, 0.9)) / p)
    if kind == "singular_traditional":
        p = float(rng.uniform(1.4, 1.9))
        return dict(p=p, n=int(rng.integers(1, 3)), q=float(rng.uniform(0.3, 1.0)) / p)
    if kind == "degenerate_irregularity":
        p = float(rng.uniform(2.5, 4.0))
        n = int(rng.integers(1, 4))
        return dict(p=p, n=n, C=float(rng.uniform(0.5, 1.0)) * checks.c_max(p, n))
    p = float(rng.uniform(2.5, 4.0))
    q = float(rng.uniform(0.5, 1.0)) / p
    return dict(p=p, n=int(rng.integers(1, 3)), q=q,
                beta=float(rng.uniform(0.2, 0.8)) * p * q)


def _grid_sample(rng, N: int, zeta):
    """FD_SAMPLES seeded points of the N x N certificate grid (t0 = -1)."""
    t_levels, y_levels = checks.cert_grid(-1.0, N, N)
    k = rng.integers(0, N, FD_SAMPLES)
    i = rng.integers(0, N, FD_SAMPLES)
    t = t_levels[k]
    return y_levels[i] * zeta(t), t


SIGN_KINDS = ("singular_irregularity", "singular_traditional",
              "degenerate_irregularity", "degenerate_small_data")


def certify_fine(pc, seed: int, tracer) -> list:
    """Single-barrier sign certificates and full barrier-family pipelines."""
    rng = np.random.default_rng(seed)
    ver, bar, dom = pc.verify, pc.barriers, pc.domains
    ops = []

    for kind in SIGN_KINDS:
        kw = _sign_params(kind, rng)
        q = 1.0 / kw["p"] if kind == "degenerate_irregularity" else kw["q"]
        r, t = _grid_sample(rng, SIGN_GRID, _power_zeta(q))

        def run(kind=kind, kw=kw):
            spec = bar.make_barrier(kind, **kw)
            profile = spec.reference_profile()
            grid = ver.make_cert_grid(profile, n_t=SIGN_GRID, n_y=SIGN_GRID)
            rep = ver.check_sign(spec.fn, profile, kw["p"], kw["n"], grid=grid)
            return spec, rep.to_dict()

        def check(out, kw=kw, r=r, t=t):
            spec, cert = out
            return (checks.check_certificate(cert, SIGN_GRID, SIGN_GRID)
                    + checks.check_residual_floor(spec.fn, kw["p"], kw["n"], r, t,
                                                  cert["worst_violation"]))

        label = ", ".join(f"{k}={v:.6g}" for k, v in kw.items())
        ops.append(Op(f"{kind}({label})", run, check))

    for p, q, n in FAMILY_CELLS:
        r, t = _grid_sample(rng, FAMILY_GRID, _power_zeta(q))

        def run(p=p, q=q, n=n):
            profile = dom.make_profile("power", K=1.0, q=q, t0=-1.0)
            gauge = dom.envelope_gauge(profile, p, n)
            C0, _ = bar.find_family_threshold(p, n, gauge)
            ladder = [bar.make_barrier("degenerate_family_member", p=p, n=n, q=q, K=1.0,
                                       C=C0 * 2 ** j, gauge=gauge)
                      for j in range(FAMILY_LADDER)]
            grid = ver.make_cert_grid(profile, n_t=FAMILY_GRID, n_y=FAMILY_GRID)
            rep = ver.check_barrier_family(ladder, profile, p, n, k_max=4, grid=grid)
            return ladder, rep.to_dict()

        def check(out, p=p, n=n, r=r, t=t):
            ladder, cert = out
            problems = checks.check_certificate(cert, FAMILY_GRID, FAMILY_GRID,
                                                need_points=False)
            members = cert["details"]["condition_i_members"]
            if len(members) != FAMILY_LADDER:
                return problems + [f"{len(members)} member reports, want {FAMILY_LADDER}"]
            for spec, member in zip(ladder, members):
                problems += checks.check_residual_floor(spec.fn, p, n, r, t,
                                                        member["residual_worst"])
            return problems

        ops.append(Op(f"family(p={p}, q={q}, n={n})", run, check))

    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "probe_ladder": probe_ladder,
    "solve_batch": solve_batch,
    "certify_fine": certify_fine,
}
