"""Benchmark entry point: one workload, one JSON result line.

    python3 perfbench/run.py --workload {probe_ladder,solve_batch,certify_fine}
                             --seed N --seconds S --trace {0,1}

Run from any directory of a checkout that holds src/petrocheck; nothing is
built, the sources are imported in place.  The run first starts the
workload's set-up (import petrocheck, build the seeded inputs) in
SETUP_STARTS + 1 fresh interpreters; the first warms the file cache and is
not timed, and setup_s is the median of the others.  It then runs the
workload in one more process with one closed-loop client and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (set-up
processes then run under `python -X importtime`).  Exit code 0 when every
checked output is correct, 1 when one is not, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_STARTS = 3
DEADLINE_S = 170.0          # the whole run, set-up included


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def setup_once(cmd, env, importtime_path, timeout):
    """Seconds from spawning a fresh interpreter until it reports ready."""
    stderr = open(importtime_path, "w") if importtime_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    finally:
        if importtime_path:
            stderr.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode} before ready")
    return ready


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "petrocheck" / "__init__.py").is_file():
        return fail(f"no petrocheck sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    base = [str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    importtimes = []
    setup = []
    try:
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
        for i in range(SETUP_STARTS + 1):
            path = OUT_DIR / f"importtime-{i}.txt" if args.trace else None
            flags = ["-X", "importtime"] if args.trace else []
            secs = setup_once([sys.executable] + flags + base + ["--setup-only"],
                              env, path, timeout=60)
            if i:
                setup.append(secs)
                if path:
                    importtimes.append(import_times(path.read_text()))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return fail(str(err))

    cmd = [sys.executable] + base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("workload process ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        return fail(f"workload process exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = dict(res["layers"])
        for key in ("import.petrocheck_s", "import.scipy_s"):
            values[key] = statistics.median(t[key] for t in importtimes)
        values["trace.wall_s"] = res["wall_s"]
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": res["wall_s"],
                  "op_s.p50": res["op_s.p50"], "peak_rss_mb": res["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds of "
          f"{res['ops_per_round']} operations", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
