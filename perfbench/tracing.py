"""Spans around the benchmark's calls into petrocheck, and the per-layer
metrics computed from them.

`Tracer.instrument` replaces public functions of the petrocheck modules
(and `scipy.linalg.solve_banded` as the solver module sees it) with timing
wrappers.  Every module attribute bound to the same function object is
replaced, so calls between petrocheck modules are seen as well as the
benchmark's own.  Spans are kept in memory as (name, parent, op, start,
end) and written out once the run ends; a span's parent is the span open
when it started, which gives each layer's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name); `post` hooks below read counts off results
TARGETS = [
    ("cli", "main", "cli.main"),
    ("verify", "canonical_json", "verify.canonical_json"),
    ("solver", "classify", "solver.classify"),
    ("solver", "probe_origin", "solver.probe_origin"),
    ("solver", "solve_dirichlet", "solver.solve_dirichlet"),
    ("solver", "time_grid", "solver.time_grid"),
    ("solver", "solve_banded", "solver.banded"),
    ("solver", "default_probe", "solver.bc"),
    ("verify", "check_sign", "verify.check_sign"),
    ("verify", "check_barrier_family", "verify.check_barrier_family"),
    ("verify", "make_cert_grid", "verify.make_cert_grid"),
    ("calculus", "residual", "calculus.residual"),
    ("barriers", "make_barrier", "barriers.make_barrier"),
    ("barriers", "find_family_threshold", "barriers.find_family_threshold"),
    ("domains", "make_profile", "domains.make_profile"),
    ("domains", "envelope_gauge", "domains.envelope_gauge"),
]

MODULES = ("cli", "verify", "solver", "calculus", "barriers", "domains")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, op index, start, end]
        self.counts = defaultdict(float)
        self.op = -1
        self._open = []

    def wrap(self, name: str, fn, post=None):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, opened[-1] if opened else -1, self.op, clock(), 0.0]
            opened.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                opened.pop()
            if post is not None:
                post(self.counts, out)
            return out

        return traced

    def instrument(self, pc) -> None:
        """Wrap every TARGETS function wherever a petrocheck module binds it."""
        mods = [getattr(pc, m) for m in MODULES] + [pc.package]
        for mod_name, attr, name in TARGETS:
            orig = getattr(getattr(pc, mod_name), attr)
            traced = self.wrap(name, orig, POST.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end"],
                       "spans": self.spans, "counts": self.counts}, fh)

    def layer_metrics(self) -> dict:
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)      # time covered by direct children
        rungs = 0
        for name, parent, _, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
                if name == "solver.solve_dirichlet" and self.spans[parent][0] == "solver.probe_origin":
                    rungs += 1
        solve_self = sum(end - start - child[i]
                         for i, (name, _, _, start, end) in enumerate(self.spans)
                         if name == "solver.solve_dirichlet")
        c = self.counts
        steps = c["solver.steps"]
        points = c["verify.points"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.main_s": total["cli.main"],
            "cli.report_bytes": c["cli.report_bytes"],
            "verify.canonical_json_s": total["verify.canonical_json"],
            "solver.classify_s": total["solver.classify"],
            "solver.probe_origin_s": total["solver.probe_origin"],
            "solver.rungs": rungs,
            "solver.solve_dirichlet_calls": calls["solver.solve_dirichlet"],
            "solver.solve_dirichlet_s": total["solver.solve_dirichlet"],
            "solver.self_s": solve_self,
            "solver.steps": steps,
            "solver.step_us": 1e6 * total["solver.solve_dirichlet"] / steps if steps else 0.0,
            "solver.banded_solves": calls["solver.banded"],
            "solver.banded_s": total["solver.banded"],
            "solver.newton_per_step": calls["solver.banded"] / steps if steps else 0.0,
            "solver.time_grid_s": total["solver.time_grid"],
            "solver.bc_eval_s": total["solver.bc"],
            "solver.field_mb": c["solver.field_mb"],
            "verify.check_sign_calls": calls["verify.check_sign"],
            "verify.check_sign_s": total["verify.check_sign"],
            "verify.points": points,
            "verify.ns_per_point": 1e9 * total["verify.check_sign"] / points if points else 0.0,
            "verify.check_barrier_family_s": total["verify.check_barrier_family"],
            "verify.make_cert_grid_s": total["verify.make_cert_grid"],
            "calculus.residual_calls": calls["calculus.residual"],
            "calculus.residual_s": total["calculus.residual"],
            "barriers.make_barrier_s": total["barriers.make_barrier"],
            "barriers.find_family_threshold_s": total["barriers.find_family_threshold"],
            "domains.make_profile_s": total["domains.make_profile"],
            "domains.envelope_gauge_s": total["domains.envelope_gauge"],
        }


def _post_solve(counts, field):
    counts["solver.steps"] += field.t_nodes.size - 1
    counts["solver.field_mb"] = max(counts["solver.field_mb"], field.values.nbytes / 1e6)


def _post_sign(counts, report):
    counts["verify.points"] += report.grid["points"]


POST = {"solver.solve_dirichlet": _post_solve, "verify.check_sign": _post_sign}


def import_times(stderr: str) -> dict:
    """petrocheck's and scipy's cumulative import time from `-X importtime`.

    scipy is the sum over its outermost entries: sub-packages imported
    directly by petrocheck modules appear as separate entries.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue           # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    petro = scipy = 0
    # importtime prints children before their parent; walk it in reverse so
    # each entry's enclosing entries are known when it is reached
    stack = []
    for depth, cum, name in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if top == "scipy" and not any(s == "scipy" for s in stack):
            scipy += cum
        if name == "petrocheck":
            petro += cum
        stack.append(top)
    return {"import.petrocheck_s": petro / 1e6, "import.scipy_s": scipy / 1e6}
