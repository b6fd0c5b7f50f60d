"""Command-line front end: reproducible experiments with JSON/CSV reports.

Subcommands: lemma-check, barenblatt-check, verify, classify, solve, sweep,
scale-check.  All runs are deterministic (fixed internal seeds, no wall-clock
inputs); reports carry schema "petrocheck/1", each float in its shortest
round-trip repr, and a sha256 report hash computed over the canonical
payload with the timestamp excluded.  Exit codes: 0 pass, 1
usage/precondition error, 2 certificate failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import barriers as bar
from . import calculus as calc
from . import domains as dom
from . import solver as sol
from . import verify as ver
from .errors import DomainError, SolverError

SCHEMA = "petrocheck/1"
EXIT_PASS, EXIT_USAGE, EXIT_CERT_FAIL, EXIT_SOLVER_FAIL = 0, 1, 2, 3


def _emit(payload: dict, out_path) -> None:
    text = ver.canonical_json(ver.stamp(dict(payload, schema=SCHEMA), with_timestamp=True))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser of the top command and, through add_subparsers, of
    every subcommand: an argument that reads as a negative number, in
    exponent form too (-1e-1, -1E+2, -.5), is an option's value, as it is
    in the --t0=-1e-1 form.  argparse's own pattern takes only the plain
    decimals -1 and -0.1, and reads -1e-1 as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def finite_float(text: str) -> float:
    """argparse type of every float option: a finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type of sample counts: an integer >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _solver_options(sp, n_y, n_t, eps_min) -> None:
    """Grid and step options of solve and scale-check; read by _solver_config."""
    base = sol.SolverConfig()
    sp.add_argument("--grid-y", type=int, default=n_y)
    sp.add_argument("--grid-t", type=int, default=n_t)
    sp.add_argument("--eps-reg", type=finite_float, default=base.eps_reg)
    sp.add_argument("--eps-min", type=finite_float, default=eps_min)
    sp.add_argument("--c-step", type=finite_float, default=base.c_step)


def _solver_config(args) -> sol.SolverConfig:
    return sol.SolverConfig(
        n_y=args.grid_y, n_t=args.grid_t, eps_min=args.eps_min,
        eps_reg=args.eps_reg, c_step=args.c_step,
    )


def cmd_lemma_check(args) -> int:
    """Closed-form vs oracle table for the radial-power p-Laplacian."""
    rng = np.random.default_rng(20260809)
    rows = []
    for _ in range(args.samples):
        C = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(0.6, 3.0))
        r = float(rng.uniform(0.3, 2.0))
        closed = float(calc.p_laplacian_radial_power(C, alpha, args.p, args.n, r))
        u = lambda rr, tt, C=C, alpha=alpha: np.asarray(rr, dtype=float) ** alpha * C
        oracle = calc.p_laplacian_radial_fd(u, args.p, args.n, r, -1.0, h=args.h)
        rows.append((C, alpha, r, closed, oracle, abs(closed - oracle) / (1.0 + abs(closed))))
    worst = float(np.max([row[5] for row in rows]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("C,alpha,r,closed,oracle,rel_err\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    ok = worst <= args.tol
    print(f"lemma-check: {args.samples} samples, worst rel err {worst:.3e}, "
          f"tol {args.tol:.1e}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        bad = max(rows, key=lambda row: row[5])
        print(f"worst row: C={bad[0]:.6g} alpha={bad[1]:.6g} r={bad[2]:.6g} "
              f"closed={bad[3]:.6g} oracle={bad[4]:.6g}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_CERT_FAIL


def cmd_barenblatt_check(args) -> int:
    """FD residual of the self-similar source solution at interior points."""
    B = calc.barenblatt_function(args.p, args.n, args.C)
    rng = np.random.default_rng(20260809)
    points = []
    for _ in range(args.points):
        t = float(rng.uniform(0.5, 2.0))
        if args.p > 2:
            rs = calc.barenblatt_support_radius(t, args.p, args.n, args.C)
            points.append((float(rng.uniform(0.01 * rs, 0.95 * rs)), t))
        else:
            points.append((float(rng.uniform(0.05, 3.0)), t))
    r, t = np.array(points).T
    worst = float(np.max(np.abs(calc.residual(B, args.p, args.n, r, t, method="fd", h=args.h))))
    # a field that is 0 at every sample (base^m underflows as p -> 2+) has
    # residual 0 there and tests nothing
    positive = int(np.count_nonzero(B(r, t) > 0.0))
    ok = worst <= args.tol and positive > 0
    print(f"barenblatt-check(p={args.p}, n={args.n}): worst |residual| {worst:.3e}, "
          f"tol {args.tol:.1e}, u > 0 at {positive} of {len(r)} points: "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_CERT_FAIL


def cmd_verify(args) -> int:
    """Build a barrier and certify its defining inequalities on a grid."""
    config = {"p": args.p, "n": args.n, "q": args.q, "K": args.K, "t0": args.t0,
              "grid_y": args.grid_y, "grid_t": args.grid_t}
    if args.kind == "degenerate_family_member":
        profile = dom.make_profile("power", K=args.K, q=args.q, t0=args.t0)
        gauge = dom.envelope_gauge(profile, args.p, args.n)
        C0, det = bar.find_family_threshold(args.p, args.n, gauge)
        ladder = [bar.make_barrier(args.kind, p=args.p, n=args.n, C=C0 * 2 ** j, gauge=gauge)
                  for j in range(args.ladder + 1)]
        grid = ver.make_cert_grid(profile, n_t=args.grid_t, n_y=args.grid_y)
        rep = ver.check_barrier_family(ladder, profile, args.p, args.n,
                                       k_max=args.k_max, grid=grid)
        payload = {"config": config | {"ladder": args.ladder, "k_max": args.k_max},
                   "C0": C0, "threshold_details": det}
    else:
        spec = bar.make_barrier(args.kind, p=args.p, n=args.n, q=args.q,
                                K=args.K, t0=args.t0, C=args.C, beta=args.beta)
        profile = spec.reference_profile()
        grid = ver.make_cert_grid(profile, n_t=args.grid_t, n_y=args.grid_y)
        rep = ver.check_sign(spec.fn, profile, args.p, args.n, grid=grid)
        payload = {"config": config | {"C": args.C, "beta": args.beta},
                   "barrier": spec.to_json_dict(grid_hash=grid.hash())}
    _emit(payload | {"command": "verify", "kind": args.kind, "certificate": rep.to_dict()},
          args.out)
    return EXIT_PASS if rep.passed else EXIT_CERT_FAIL


def cmd_classify(args) -> int:
    """Regularity verdict for the power cusp, optionally with a solver probe."""
    verdict = sol.classify(args.p, args.q, n=args.n, K=args.K, with_probe=args.with_probe)
    payload = {"command": "classify",
               "config": {"p": args.p, "q": args.q, "n": args.n, "K": args.K,
                          "with_probe": args.with_probe},
               "verdict": verdict.to_dict()}
    _emit(payload, args.out)
    return EXIT_PASS


def cmd_solve(args) -> int:
    """Run the Dirichlet solver on a power cusp and export the field."""
    profile = dom.make_profile("power", K=args.K, q=args.q, t0=args.t0)
    if args.data == "probe":
        f = sol.default_probe
    elif args.data.startswith("const:"):
        try:
            cval = finite_float(args.data.split(":", 1)[1])
        except argparse.ArgumentTypeError as err:
            print(f"usage error: --data {args.data!r}: {err}", file=sys.stderr)
            return EXIT_USAGE
        f = lambda r, t: cval + 0.0 * np.asarray(r, dtype=float)
    else:
        print(f"usage error: unknown --data {args.data!r}", file=sys.stderr)
        return EXIT_USAGE
    field = sol.solve_dirichlet(profile, args.p, args.n, f, _solver_config(args))
    if args.out:
        field.to_csv(args.out)
    ok = field.check_max_principle()
    print(f"solve: {field.meta['stats']['steps']} steps, u(0, {field.t_nodes[-1]:.6g}) = "
          f"{field.values[-1, 0]:.10g}, max principle {'OK' if ok else 'VIOLATED'}")
    return EXIT_PASS if ok else EXIT_SOLVER_FAIL


def cmd_sweep(args) -> int:
    """Classify a (p, q) grid; deterministic cell order, partial failures kept."""
    try:
        p_list = [finite_float(x) for x in args.p_list.split(",") if x.strip()]
        q_list = [finite_float(x) for x in args.q_list.split(",") if x.strip()]
    except argparse.ArgumentTypeError as err:
        print(f"usage error: lists must be comma-separated floats, all finite: {err}",
              file=sys.stderr)
        return EXIT_USAGE
    if not p_list or not q_list:
        print("usage error: empty p or q list", file=sys.stderr)
        return EXIT_USAGE
    cells = []
    failures = 0
    for p in p_list:
        for q in q_list:
            try:
                verdict = sol.classify(p, q, n=args.n, K=args.K,
                                       with_probe=args.with_probe)
                cells.append({"p": p, "q": q, "verdict": verdict.theorem_verdict,
                              "trend": verdict.numeric_trend})
            except DomainError as err:
                failures += 1
                cells.append({"p": p, "q": q, "error": str(err)})
    payload = {"command": "sweep",
               "config": {"p_list": p_list, "q_list": q_list, "n": args.n,
                          "K": args.K, "with_probe": args.with_probe},
               "cells": cells, "failures": failures}
    _emit(payload, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("p,q,verdict\n")
            for cell in cells:
                fh.write(f"{cell['p']:.17g},{cell['q']:.17g},"
                         f"{cell.get('verdict', 'ERROR')}\n")
    return EXIT_PASS if failures < len(cells) else EXIT_USAGE


def cmd_scale_check(args) -> int:
    """Dilation equivariance of the discrete solver."""
    profile = dom.make_profile("power", K=args.K, q=args.q, t0=args.t0)
    rep = ver.check_scaling_equivariance(profile, args.p, args.a,
                                         cfg=_solver_config(args), n=args.n, tol=args.tol)
    payload = {"command": "scale-check",
               "config": {"p": args.p, "n": args.n, "a": args.a, "q": args.q,
                          "K": args.K, "t0": args.t0, "grid_y": args.grid_y,
                          "grid_t": args.grid_t, "eps_min": args.eps_min,
                          "eps_reg": args.eps_reg, "c_step": args.c_step,
                          "tol": args.tol},
               "certificate": rep.to_dict()}
    _emit(payload, args.out)
    return EXIT_PASS if rep.passed else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="petrocheck",
        description="Certify barrier constructions and probe tip regularity "
                    "for the p-parabolic equation on shrinking cusp domains.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, n_default=2):
        sp.add_argument("--p", type=finite_float, required=True)
        sp.add_argument("--n", type=int, default=n_default)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("lemma-check", help="closed form vs finite-difference oracle")
    common(sp)
    sp.add_argument("--samples", type=positive_int, default=50)
    sp.add_argument("--h", type=finite_float, default=1e-3)
    sp.add_argument("--tol", type=finite_float, default=1e-6)
    sp.set_defaults(func=cmd_lemma_check)

    sp = sub.add_parser("barenblatt-check", help="residual of the source solution")
    common(sp)
    sp.add_argument("--C", type=finite_float, default=1.0)
    sp.add_argument("--points", type=positive_int, default=100)
    sp.add_argument("--h", type=finite_float, default=1e-3)
    sp.add_argument("--tol", type=finite_float, default=1e-5)
    sp.set_defaults(func=cmd_barenblatt_check)

    sp = sub.add_parser("verify", help="sign/family certificate for a barrier kind")
    sp.add_argument("--kind", type=str, required=True, choices=bar.BARRIER_KINDS)
    common(sp)
    sp.add_argument("--q", type=finite_float, default=None)
    sp.add_argument("--K", type=finite_float, default=1.0)
    sp.add_argument("--t0", type=finite_float, default=-1.0)
    sp.add_argument("--C", type=finite_float, default=None)
    sp.add_argument("--beta", type=finite_float, default=None)
    sp.add_argument("--grid-y", type=int, default=128)
    sp.add_argument("--grid-t", type=int, default=128)
    sp.add_argument("--ladder", type=int, default=8)
    sp.add_argument("--k-max", type=int, default=4)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify", help="regularity verdict for a power cusp")
    common(sp, n_default=1)
    sp.add_argument("--q", type=finite_float, required=True)
    sp.add_argument("--K", type=finite_float, default=1.0)
    sp.add_argument("--with-probe", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("solve", help="march the Dirichlet problem, export CSV")
    common(sp, n_default=1)
    sp.add_argument("--q", type=finite_float, required=True)
    sp.add_argument("--K", type=finite_float, default=1.0)
    sp.add_argument("--t0", type=finite_float, default=-1.0)
    sp.add_argument("--data", type=str, default="probe",
                    help="'probe' or 'const:<value>'")
    _solver_options(sp, n_y=129, n_t=400, eps_min=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="classify over a (p, q) grid")
    sp.add_argument("--p-list", type=str, required=True)
    sp.add_argument("--q-list", type=str, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--K", type=finite_float, default=1.0)
    sp.add_argument("--with-probe", action="store_true")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--csv", type=str, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("scale-check", help="dilation equivariance of the solver")
    common(sp, n_default=1)
    sp.add_argument("--a", type=finite_float, default=2.0)
    sp.add_argument("--q", type=finite_float, default=0.5)
    sp.add_argument("--K", type=finite_float, default=1.0)
    sp.add_argument("--t0", type=finite_float, default=-1.0)
    _solver_options(sp, n_y=65, n_t=200, eps_min=1e-3)
    sp.add_argument("--tol", type=finite_float, default=1e-3)
    sp.set_defaults(func=cmd_scale_check)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process: parsing reads it and
    changes nothing in it, so it is built once."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAIL


if __name__ == "__main__":
    sys.exit(main())
