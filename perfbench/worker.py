"""One workload in one process: set up, run whole rounds, check, report.

    python3 perfbench/worker.py --workload NAME --seed N
                                (--seconds S --trace 0|1 | --setup-only)

Needs petrocheck's sources on PYTHONPATH (run.py sets it).  With
--setup-only the process imports petrocheck, builds the seeded inputs,
prints "ready" and exits: run.py times that from a cold start.  Otherwise
it runs rounds (the workload's fixed list of operations), at least
MIN_ROUNDS and then until another round would pass --seconds, checks every
output outside the timed region, and prints one JSON line with its
measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
MIN_ROUNDS = 3          # so that every operation's median has three samples


def load_petrocheck():
    # import statements, not importlib, so that `-X importtime` reports the package
    import petrocheck
    from petrocheck import barriers, calculus, cli, domains, errors, solver, verify

    src = HERE.parent / "src"
    if src not in Path(petrocheck.__file__).resolve().parents:
        raise SystemExit(f"petrocheck imported from {petrocheck.__file__}, not from {src}")
    return SimpleNamespace(package=petrocheck, cli=cli, verify=verify, solver=solver,
                           calculus=calculus, barriers=barriers, domains=domains,
                           errors=errors)


def run_rounds(ops, seconds: float, failures: tuple, tracer) -> dict:
    """Whole rounds of `ops`: at least MIN_ROUNDS, then more until another
    round, as long as the last, would end past `seconds`.

    Returns each operation's latencies (failed attempts excluded), the
    number of rounds, and the failures and check problems seen.
    """
    latencies = [[] for _ in ops]
    problems, failed = [], []
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        round_start = clock()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t0 = clock()
            try:
                out = op.run()
            except failures as err:
                failed.append(f"{op.label}: failed: {err}")
                continue
            latencies[i].append(clock() - t0)
            problems += [f"{op.label}: {msg}" for msg in op.check(out)]
            del out
        rounds += 1
        now = clock()
        if rounds >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    return {"latencies": latencies, "rounds": rounds, "failed": failed,
            "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pc = load_petrocheck()
    tracer = Tracer() if args.trace else None
    ops = workloads.WORKLOADS[args.workload](pc, args.seed, tracer)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if tracer:
        tracer.instrument(pc)
    failures = (workloads.OpFailed, pc.errors.DomainError, pc.errors.SolverError)
    res = run_rounds(ops, args.seconds, failures, tracer)
    for msg in (res["failed"] + res["problems"])[:20]:
        print(msg, file=sys.stderr)
    # each operation at its median over the rounds, so that a slow spell of
    # the machine during one round moves neither figure
    per_op = [statistics.median(lat) for lat in res["latencies"] if lat]
    rounds = res["rounds"]
    # every workload is chosen so that no operation fails: a failure is an
    # error of the program, and it must not pass as a shorter wall_s
    report = {
        "correct": not res["problems"] and not res["failed"],
        "attempted": rounds * len(ops),
        "failed": len(res["failed"]),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "wall_s": sum(per_op),
        "op_s.p50": statistics.median(per_op) if per_op else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
