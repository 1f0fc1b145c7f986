"""Record alternating parent/change pairs of the benchmark into BENCH_<label>.json.

    python3 tools/bench_record.py --label levelset_arrays --parent HEAD~1 \
        --pairs geometry=10 --pairs trajectory=3 --pairs certify=3 --traced geometry

Run from the root of a sirlyap checkout: that working tree is the change.
The parent commit is exported with `git archive` into a temporary directory,
so it runs from its committed files only.  Each pair runs the unchanged
`perfbench/run.py` of each side, from that side's root, one run at a time,
with the same workload, seed (the pair's number, from 1), `--size` (default
`bench`, the size BENCHMARK.json runs) and the `run_seconds` of
BENCHMARK.json; the side that goes first alternates from pair to pair.
Each side keeps its bytecode in its own fresh cache (PYTHONPYCACHEPREFIX in
the temporary directory, with writing allowed), so bytecode that the working
tree already holds cannot favour the change.  The temporary directory
follows TMPDIR.  The JSON file holds the machine, Python
and numpy versions, the size, both git SHAs, every run's result line and, per
workload and end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change's wins and whether a gain would count: wins in at
least nine tenths of the pairs and medians further apart than the parent's
interquartile range.  The change reads `dirty` when a tracked file under
`src`, `perfbench`, `configs` or `BENCHMARK.json` differs from HEAD.
`--traced WORKLOAD` adds one `--trace 1` run per side on seed 1, parent
first, whose per-layer metrics go under "traced".  Needs only the standard
library and git.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


#: what the runs use of the working tree: a change elsewhere leaves a recording clean
MEASURED_PATHS = ("src", "perfbench", "configs", "BENCHMARK.json")


def dirty(root: Path) -> bool:
    """True when a tracked file under MEASURED_PATHS differs from HEAD."""
    return bool(git(root, "status", "--porcelain", "--untracked-files=no", "--",
                    *MEASURED_PATHS))


def export(root: Path, ref: str, dest: Path) -> None:
    """The committed files of `ref` under dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", ref], cwd=root, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"system": platform.system(), "machine": platform.machine(), "cpu": model,
            "cpus": os.cpu_count()}


def side_env(cache: Path) -> dict:
    """The environment of one side's runs: bytecode read from and written to `cache`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def run_one(root: Path, workload: str, seed: int, seconds: float, env: dict,
            trace: int = 0, size: str = "bench") -> dict:
    """One `perfbench/run.py` run from `root`: its JSON result line plus wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--size", size],
                          cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": (proc.stderr or proc.stdout)[-2000:]}
    result.update(exit_code=proc.returncode, wall_s=round(wall, 3))
    return result


def metric(run: dict, name: str):
    """The value of one metric in a run's result line, or None."""
    return run["metrics"].get(name, {}).get("value")


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and metric: each side's quartiles, the change's wins, and the claim rule."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for spec in end_to_end:
            name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
            vals = [(metric(p["parent"], name), metric(p["change"], name)) for p in pairs]
            vals = [(a, b) for a, b in vals if a is not None and b is not None]
            if not vals:
                continue
            par, chg = [a for a, _ in vals], [b for _, b in vals]
            q_par, q_chg = quartiles(par), quartiles(chg)
            wins = sum(sign * (b - a) < 0.0 for a, b in vals)
            ties = sum(a == b for a, b in vals)
            gain = sign * (q_par[1] - q_chg[1])
            rows[name] = {
                "parent": {"q1": q_par[0], "median": q_par[1], "q3": q_par[2]},
                "change": {"q1": q_chg[0], "median": q_chg[1], "q3": q_chg[2]},
                "pairs": len(vals), "change_wins": wins, "ties": ties,
                "median_change_rel": (q_chg[1] - q_par[1]) / q_par[1] if q_par[1] else None,
                "gain_counts": wins >= 0.9 * len(vals) and gain > q_par[2] - q_par[0],
            }
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        attempted = {side: sum(p[side]["attempted"] for p in pairs)
                     for side in ("parent", "change")}
        out[workload] = {"metrics": rows, "failed": failed, "attempted": attempted}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="run N alternating pairs of WORKLOAD; repeatable")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                    help="one traced run per side of WORKLOAD on seed 1; repeatable")
    ap.add_argument("--size", choices=("tiny", "bench", "full"), default="bench",
                    help="workload size passed to perfbench/run.py (default: bench)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    plan = [(w, int(n)) for w, n in (item.split("=", 1) for item in args.pairs)]
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True).stdout.strip()
    record = {
        "label": args.label,
        "command": spec["command"] + ["--workload", "W", "--seed", "PAIR", "--seconds",
                                      str(seconds), "--size", args.size],
        "size": args.size, "machine": machine(), "python": platform.python_version(),
        "numpy": numpy_version,
        "parent": {"ref": args.parent, "sha": git(root, "rev-parse", args.parent)},
        "change": {"sha": git(root, "rev-parse", "HEAD"), "dirty": dirty(root)},
        "runs": [], "traced": [],
    }
    out_path = root / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(root, args.parent, parent_root)
        sides = {"parent": parent_root, "change": root}
        envs = {side: side_env(Path(tmp) / "pycache" / side) for side in sides}
        for workload, n in plan:
            for pair in range(n):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_one(sides[side], workload, pair + 1, seconds, envs[side],
                                     size=args.size)
                    record["runs"].append({"workload": workload, "pair": pair, "side": side,
                                           "first": side == order[0], "seed": pair + 1,
                                           **result})
                    rref = metric(result, "round_ref_s")
                    print(f"{workload} pair {pair + 1}/{n} {side:6s} round_ref_s {rref} "
                          f"failed {result['failed']}/{result['attempted']}", flush=True)
                record["summary"] = summarize(record["runs"], spec["end_to_end"])
                out_path.write_text(json.dumps(record, indent=1) + "\n")
        for workload in args.traced:
            for side in ("parent", "change"):
                result = run_one(sides[side], workload, 1, seconds, envs[side], trace=1,
                                 size=args.size)
                record["traced"].append({"workload": workload, "side": side, "seed": 1, **result})
                print(f"{workload} traced {side:6s} correct {result['correct']}", flush=True)
                out_path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, s in record["summary"].items():
        for name, row in s["metrics"].items():
            print(f"{workload:10s} {name:12s} parent {row['parent']['median']:.4g} "
                  f"[{row['parent']['q1']:.4g}, {row['parent']['q3']:.4g}]  change "
                  f"{row['change']['median']:.4g} [{row['change']['q1']:.4g}, "
                  f"{row['change']['q3']:.4g}]  wins {row['change_wins']}/{row['pairs']}  "
                  f"gain counts: {row['gain_counts']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
