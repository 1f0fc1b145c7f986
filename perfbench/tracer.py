"""Traced CLI run: time the library's layers from outside the program.

    python3 perfbench/tracer.py TRACE.json <sirlyap CLI arguments...>

Installs timing wrappers on sirlyap's public functions and methods, then
calls `sirlyap.cli.main(argv)` and writes the trace to TRACE.json.  Coarse
boundaries (the CLI command, run_certification, each check, integrate_batch,
extract_contours, ...) become spans with name, start, end and parent.  Hot
leaves, called up to millions of times, only bump counters (calls, rows,
cumulative seconds), both globally and on the innermost open span, so a
span's subtree says how much leaf work ran under it and its self time can
leave the leaf time out.  Everything stays in memory until the command ends.

`layer_metrics` turns the traces of one workload round into the per-layer
metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: coarse boundaries, one span per call: (module, attribute path)
SPANS = [
    ("cli", "main"),
    ("ode", "integrate"),
    ("ode", "integrate_batch"),
    ("ode", "Trajectory.to_csv"),
    ("lyap_df", "select_df_params"),
    ("lyap_en", "select_en_params"),
    ("lyap_en", "en_params_from"),
    ("lyap_en", "check_condition_50"),
    ("lyap_en", "en_eta_inv"),
    ("verify", "run_certification"),
    ("verify", "check_df_continuity"),
    ("verify", "check_df_positive_definite"),
    ("verify", "check_df_grid_iss"),
    ("verify", "check_en_continuity"),
    ("verify", "check_en_sample_decrease"),
    ("verify", "check_en_iss_pointwise"),
    ("verify", "check_trajectory_monotonicity"),
    ("verify", "check_sublevel_nesting"),
    ("verify", "check_iss_bound"),
    ("verify", "sample_sublevel"),
    ("verify", "VerificationReport.save_json"),
    ("levelset", "extract_contours"),
    ("levelset", "write_contours_csv"),
]

#: hot leaves, counters only: (module, attribute path, reported name)
LEAVES = [
    ("model", "rhs_arrays", "model.rhs_arrays"),
    ("model", "endemic_eq", "model.endemic_eq"),
    ("lyap_df", "df_value_region_arrays", "lyap_df.df_value_region_arrays"),
    ("lyap_df", "df_grad_dot_f_arrays", "lyap_df.df_grad_dot_f_arrays"),
    ("lyap_en", "en_value_many", "lyap_en.en_value_many"),
    ("lyap_en", "en_gradient_arrays", "lyap_en.en_gradient_arrays"),
    ("lyap_en", "en_grad_dot_f_arrays", "lyap_en.en_grad_dot_f_arrays"),
    ("lyap_en", "in_sublevel_many", "lyap_en.in_sublevel_many"),
    ("lyap_en", "omega_inv", "lyap_en.omega_inv"),
    ("lyap_en", "en_eta", "lyap_en.en_eta"),
    # the per-state V evaluation every trajectory check makes
    ("lyap_df", "DiseaseFreeLyapunov.value_of_states", "verify.value_of_states"),
    ("lyap_en", "EndemicLyapunov.value_of_states", "verify.value_of_states"),
]

#: spans whose first argument (after self) is the path of a file they write
WRITERS = {"ode.Trajectory.to_csv", "levelset.write_contours_csv",
           "verify.VerificationReport.save_json"}

CHECKS = [name for mod, name in SPANS if mod == "verify" and name.startswith("check_")]
COMMANDS = ["simulate", "certify", "params", "levelsets"]


def _rows(args) -> int:
    """Leading dimension of the first array argument; 1 for scalar calls."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(a.shape[0]) if a.ndim else 1
    return 1


class Recorder:
    """In-memory spans and leaf counters for one CLI command."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []   # [name, parent index, start, end, extra]
        self.stack = []   # indices of open spans
        self.leaves = defaultdict(lambda: [0, 0, 0.0])  # name -> calls, rows, seconds
        # span index -> leaf name -> calls, rows, seconds of the outermost
        # leaf calls only (a leaf called from a leaf is already in its time)
        self.span_leaves = defaultdict(lambda: defaultdict(lambda: [0, 0, 0.0]))
        self.leaf_depth = 0

    def span(self, name, fn, method):
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            idx = len(rec.spans)
            entry = [name, parent, rec.clock(), None, {}]
            rec.spans.append(entry)
            rec.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                entry[3] = rec.clock()
                rec.stack.pop()
            if name in WRITERS:
                entry[4]["bytes"] = os.path.getsize(args[1 if method else 0])
            elif isinstance(out, np.ndarray):
                entry[4]["rows_out"] = int(out.shape[0]) if out.ndim else 1
            return out

        return wrapper

    def leaf(self, name, fn, method):
        rec = self
        clock = self.clock
        skip = 1 if method else 0

        def wrapper(*args, **kwargs):
            rec.leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec.leaf_depth -= 1
                rows = _rows(args[skip:])
                c = rec.leaves[name]
                c[0] += 1
                c[1] += rows
                c[2] += dt
                if rec.stack:
                    s = rec.span_leaves[rec.stack[-1]][name]
                    s[0] += 1
                    s[1] += rows
                    if rec.leaf_depth == 0:
                        s[2] += dt

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": dict(self.leaves),
                "span_leaves": {str(k): dict(v) for k, v in self.span_leaves.items()}}


def install(rec: Recorder) -> None:
    """Replace every reference the sirlyap modules hold to a traced callable."""
    import sirlyap.cli  # noqa: F401  (imports every layer)

    mods = [m for n, m in sys.modules.items() if n == "sirlyap" or n.startswith("sirlyap.")]
    targets = [(mod, path, f"{mod}.{path}", rec.span) for mod, path in SPANS]
    targets += [(mod, path, name, rec.leaf) for mod, path, name in LEAVES]
    for mod, path, name, make in targets:
        owner = sys.modules[f"sirlyap.{mod}"]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            setattr(owner, attr, make(name, getattr(owner, attr), True))
            continue
        orig = getattr(owner, attr)
        wrapped = make(name, orig, False)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from sirlyap import cli

    rc = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(rec.dump(), fh)
    return rc


# ---------------------------------------------------------------------------
# aggregation (benchmark side)
# ---------------------------------------------------------------------------

def metric_names() -> list:
    """Every per-layer metric, in reporting order."""
    names = ["model.rhs_arrays.calls", "model.rhs_arrays.rows", "model.rhs_arrays.s",
             "model.endemic_eq.calls",
             "ode.integrate_batch.calls", "ode.integrate_batch.s", "ode.integrate_batch.self_s",
             "ode.integrate_batch.share", "ode.rk4_steps", "ode.rows_per_step", "ode.step_us",
             "ode.to_csv.s", "ode.to_csv.bytes"]
    for leaf in ("lyap_df.df_value_region_arrays", "lyap_en.en_value_many",
                 "lyap_en.omega_inv"):
        names += [f"{leaf}.calls", f"{leaf}.rows", f"{leaf}.s"]
    names += ["lyap_en.en_value_many.rows_per_call"]
    for leaf in ("lyap_df.df_grad_dot_f_arrays", "lyap_en.en_gradient_arrays",
                 "lyap_en.en_grad_dot_f_arrays"):
        names += [f"{leaf}.rows", f"{leaf}.s"]
    names += ["lyap_en.in_sublevel_many.rows",
              "lyap_en.check_condition_50.calls", "lyap_en.check_condition_50.s",
              "lyap_en.select_en_params.s", "lyap_en.select_en_params.iters",
              "lyap_en.en_params_from.s", "lyap_en.en_eta.calls",
              "lyap_en.en_eta_inv.calls", "lyap_en.en_eta_inv.s",
              "verify.value_of_states.calls", "verify.value_of_states.rows",
              "verify.value_of_states.s"]
    names += [f"verify.{c}.s" for c in CHECKS]
    names += ["verify.run_certification.s", "verify.run_certification.self_s",
              "verify.sample_sublevel.s", "verify.sample_sublevel.accept_ratio",
              "levelset.extract_contours.s", "levelset.extract_contours.self_s",
              "levelset.extract_contours.value_rows",
              "levelset.write_contours_csv.s", "levelset.write_contours_csv.bytes"]
    names += [f"cli.main.{c}.s" for c in COMMANDS] + ["cli.main.s"]
    names += ["trace.overhead_s", "trace.overhead_frac"]
    return names


def _span_table(trace: dict) -> list:
    """Per span: name, duration, self time, subtree leaf counts, extra.

    Self time is the duration minus the child spans and minus the leaf calls
    made directly under the span.
    """
    spans = trace["spans"]
    children = defaultdict(list)
    for idx, (_, parent, *_rest) in enumerate(spans):
        children[parent].append(idx)
    own = {int(k): v for k, v in trace["span_leaves"].items()}
    out = [None] * len(spans)
    for idx in reversed(range(len(spans))):  # children come after parents
        name, _, t0, t1, extra = spans[idx]
        dur = t1 - t0
        sub = defaultdict(lambda: [0, 0])
        covered = 0.0
        for leaf, (calls, rows, secs) in own.get(idx, {}).items():
            sub[leaf][0] += calls
            sub[leaf][1] += rows
            covered += secs
        for c in children[idx]:
            covered += out[c]["dur"]
            for leaf, (calls, rows) in out[c]["sub"].items():
                sub[leaf][0] += calls
                sub[leaf][1] += rows
        out[idx] = {"name": name, "dur": dur, "self": dur - covered, "sub": sub,
                    "extra": extra, "children": children[idx]}
    return out


def layer_metrics(traces: list, commands: list) -> dict:
    """Per-layer metrics of one round: `traces[k]` is the trace of `commands[k]`."""
    m = dict.fromkeys(metric_names(), 0.0)
    ode_rows = 0          # rhs_arrays rows inside integrate_batch spans
    tested = kept = 0     # rows through sample_sublevel's rejection test, and accepted
    for trace, command in zip(traces, commands):
        for leaf, (calls, rows, secs) in trace["leaves"].items():
            for stat, val in (("calls", calls), ("rows", rows), ("s", secs)):
                if f"{leaf}.{stat}" in m:
                    m[f"{leaf}.{stat}"] += val
        for sp in _span_table(trace):
            key = "ode.to_csv" if sp["name"] == "ode.Trajectory.to_csv" else sp["name"]
            for stat, val in (("calls", 1), ("s", sp["dur"]), ("self_s", sp["self"]),
                              ("bytes", sp["extra"].get("bytes", 0))):
                if f"{key}.{stat}" in m:
                    m[f"{key}.{stat}"] += val
            sub = sp["sub"]
            if key == "cli.main":
                m[f"cli.main.{command}.s"] += sp["dur"]
            elif key == "ode.integrate_batch":
                rhs_calls, rhs_rows = sub.get("model.rhs_arrays", (0, 0))
                m["ode.rk4_steps"] += rhs_calls / 4  # four stages per step
                ode_rows += rhs_rows / 4
            elif key == "lyap_en.select_en_params":
                m["lyap_en.select_en_params.iters"] += sum(
                    trace["spans"][c][0] == "lyap_en.check_condition_50" for c in sp["children"])
            elif key == "verify.sample_sublevel":
                tested += sub.get("lyap_en.in_sublevel_many", (0, 0))[1]
                kept += sp["extra"]["rows_out"]
            elif key == "levelset.extract_contours":
                m["levelset.extract_contours.value_rows"] += sum(
                    sub.get(leaf, (0, 0))[1] for leaf in
                    ("lyap_en.en_value_many", "lyap_df.df_value_region_arrays"))
    steps = m["ode.rk4_steps"]
    if steps:
        m["ode.rows_per_step"] = ode_rows / steps
        m["ode.step_us"] = 1e6 * m["ode.integrate_batch.s"] / steps
    if m["cli.main.s"]:
        m["ode.integrate_batch.share"] = m["ode.integrate_batch.s"] / m["cli.main.s"]
    if m["lyap_en.en_value_many.calls"]:
        m["lyap_en.en_value_many.rows_per_call"] = \
            m["lyap_en.en_value_many.rows"] / m["lyap_en.en_value_many.calls"]
    if tested:
        m["verify.sample_sublevel.accept_ratio"] = kept / tested
    return m


def command_summary(trace: dict) -> dict:
    """Wall time of the command and the share spent in integrate_batch spans."""
    table = _span_table(trace)
    total = sum(sp["dur"] for sp in table if sp["name"] == "cli.main")
    ode_s = sum(sp["dur"] for sp in table if sp["name"] == "ode.integrate_batch")
    return {"s": total, "integrate_batch_s": ode_s,
            "integrate_batch_share": ode_s / total if total else 0.0}


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    raise SystemExit(main())
