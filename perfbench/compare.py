"""Two interleaved sets of benchmark runs of the same code, against the bounds.

    python3 perfbench/compare.py

Each set makes RUNS runs of every workload; run i (from 1) uses seed i and
BENCHMARK.json's run length.  The two sets take turns, and which set goes
first alternates from one run to the next.  For every workload and end-to-end metric it prints each set's
median and quartiles (statistics.quantiles, n=4), the spread (quartile
distance over median) of each set, and the drift of set B's median from set
A's, against the metric's bound in BENCHMARK.json.  A metric is "ok" when
both spreads and the drift stay within the bound.  It also compares the
share of failed operations.  Raw results go to perfbench/out/compare-<time>.json.
Exit code 0 when every metric is ok and every run was correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        seed = i + 1
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                res = run_once(w, seed, spec["run_seconds"])
                results[w][side].append(res)
                print(f"run {i + 1}/{RUNS} {w} seed {seed} set {side}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(
        json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':<13} {'metric':<12} {'set A median [q1, q3]':<34} "
          f"{'set B median [q1, q3]':<34} {'spread A':>8} {'spread B':>8} "
          f"{'drift':>7} {'bound':>6}")
    for w in workloads:
        runs_a, runs_b = results[w]["A"], results[w]["B"]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            qa = statistics.quantiles([r["metrics"][name]["value"] for r in runs_a], n=4)
            qb = statistics.quantiles([r["metrics"][name]["value"] for r in runs_b], n=4)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            drift = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                drift = -drift
            good = drift <= bound and max(spread_a, spread_b) <= bound
            ok = ok and good
            print(f"{w:<13} {name:<12} "
                  f"{qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(61)
                  + f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(34)
                  + f" {spread_a:8.4f} {spread_b:8.4f} {drift:+7.4f} {bound:6.2f}"
                  + ("" if good else "  OUT OF BOUND"))
        shares = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for side, rs in (("A", runs_a), ("B", runs_b))}
        correct = all(r["correct"] for r in runs_a + runs_b)
        ok = ok and correct and shares["A"] == shares["B"]
        print(f"{w:<13} failed share A {shares['A']:.4g}, B {shares['B']:.4g}; "
              f"all outputs correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
