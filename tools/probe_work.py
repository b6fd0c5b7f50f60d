"""Print the Newton work of `classify --with-probe` on the benchmark's probe cells.

    python tools/probe_work.py

Runs the probe of each (p, q, n) cell of the `probe_ladder` workload
(`PROBE_CELLS` in perfbench/workloads.py) through `solver.classify` and
prints one line per rung: the cell, its trend, the rung's steps, settled
steps and Newton iterations, as `meta["probe"]["rungs"]` reports them; then
the totals and the Newton iterations per step that was not settled.  The
benchmark's own timings cannot show these counts.  The exit code is 0
whatever the counts.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("n_steps", "settled_steps", "newton_iterations")


def rung_lines(cells):
    """The table's lines for cells, header first and totals last."""
    from petrocheck.solver import classify

    lines = [f"{'p':>4} {'q':>5} {'n':>2} {'trend':<13} {'rung':>4} "
             f"{'steps':>6} {'settled':>8} {'newton':>7}"]
    total = dict.fromkeys(COUNTS, 0)
    for p, q, n in cells:
        verdict = classify(p, q, n, with_probe=True)
        for i, rung in enumerate(verdict.meta["probe"]["rungs"], 1):
            lines.append(f"{p:>4} {q:>5} {n:>2} {verdict.numeric_trend:<13} {i:>4} "
                         + " ".join(f"{rung[key]:>{w}}" for key, w in zip(COUNTS, (6, 8, 7))))
            for key in COUNTS:
                total[key] += rung[key]
    newton_steps = total["n_steps"] - total["settled_steps"]
    per_step = total["newton_iterations"] / newton_steps if newton_steps else 0.0
    lines.append(f"total: {total['n_steps']} steps, {total['settled_steps']} settled, "
                 f"{total['newton_iterations']} Newton iterations "
                 f"({per_step:.2f} per step not settled)")
    return lines


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import PROBE_CELLS

    print("\n".join(rung_lines(PROBE_CELLS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
