"""sirlyap benchmark: run one workload through the CLI, gate every output,
print every metric by name with its unit.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a sirlyap checkout.  Each command is a fresh
`python -m sirlyap.cli` child, one at a time, timed with perf_counter; its
peak RSS comes from its own rusage (os.wait4).  The driver and its children
share one vCPU, and every 0.3 s a measured child is paused while one
calibration unit (calibrate.py) runs; end-to-end times are wall times scaled
by those units to a fixed reference speed.  Outputs go to a temporary
directory under `.perfbench_tmp/` that is removed at exit.  The last line of
stdout is the JSON result; the lines before it are a human-readable summary.
With `--trace 1` the round is also run under perfbench/tracer.py and the
per-layer metrics are reported instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: set-up probes per run, spread over the measuring window; their median is setup_s
SETUP_PROBES = 9
#: seconds of a measured child's running time between two calibration units
SAMPLE_EVERY = 0.3
#: the reference speed: end-to-end times are scaled to a machine on which one
#: calibration unit takes this long, about its median on the 2-vCPU Xeon
#: (2.0 GHz) virtual machine the benchmark was written on
REF_UNIT_S = 0.015
#: a run must exit within 180 s; children still running after this are killed
HARD_LIMIT_S = 170.0


def median_and_tail(xs: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} of n={n}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return text + f", p{p:g} {xs[math.ceil(p / 100.0 * n) - 1]:.6g}"
    return text + " (too few samples for a tail percentile)"


class Bench:
    def __init__(self, workload: str, root: Path, tmp: Path, size: str, check):
        self.workload = workload
        self.root = root
        self.tmp = tmp
        self.size = size
        self.check = check  # gate.check
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems = []
        self.units = []  # calibration unit times, in seconds

    def _spawn(self, argv: list, out: Path, sample: bool = False) -> tuple:
        """Run one child to completion: (wall seconds, exit code, peak RSS MB).

        With `sample`, the child is stopped after every SAMPLE_EVERY seconds
        of running while one calibration unit runs (see calibrate.py), and
        the wall time leaves those pauses out.
        """
        deadline = None if self.size == "full" else self.t_start + HARD_LIMIT_S
        with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            try:
                wall = self._wait(proc, t0, deadline, sample)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def _wait(self, proc, t0: float, deadline, sample: bool) -> float:
        """Wait for the child to exit, leaving it unreaped; return its running time."""
        fd = os.pidfd_open(proc.pid)
        wall, resumed = 0.0, t0
        try:
            while True:
                timeout = SAMPLE_EVERY if sample else None
                if deadline is not None:
                    left = max(0.0, deadline - time.perf_counter())
                    timeout = left if timeout is None else min(timeout, left)
                if select.select([fd], [], [], timeout)[0]:
                    return wall + time.perf_counter() - resumed
                if deadline is not None and time.perf_counter() >= deadline:
                    proc.kill()  # counted as a failure by its exit code
                    deadline = None
                    sample = False
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
                wall += time.perf_counter() - resumed
                info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if info.si_code != os.CLD_STOPPED:  # it exited before the stop
                    return wall
                self.units.append(calibrate.unit())
                os.kill(proc.pid, signal.SIGCONT)
                resumed = time.perf_counter()
        finally:
            os.close(fd)

    def execute(self, cmd: workloads.Command, slot: str, traced: bool = False,
                sample: bool = False):
        """Run and gate one command: (wall seconds, trace or None, unit seconds or None).

        With `sample`, the unit seconds are the mean of the calibration units
        timed while the command ran and one timed right after it.
        """
        first = len(self.units)
        out = self.tmp / slot
        out.mkdir(parents=True, exist_ok=True)
        for old in out.iterdir():  # a stale output must never pass the gate
            old.unlink()
        argv = cmd.argv + ["--out", str(out)]
        trace_path = out / "trace.json.part"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + argv
        else:
            argv = [sys.executable, "-m", "sirlyap.cli"] + argv
        wall, code, rss = self._spawn(argv, out, sample)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        problems = [f"exit code {code}"] if code != 0 else \
            self.check(cmd.argv[0], cmd.config, out, (out / "stdout.txt").read_text())
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.label} {' '.join(cmd.argv[:3])}: {problems[0]}")
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
        if not sample:
            return wall, trace, None
        self.units.append(calibrate.unit())
        return wall, trace, statistics.fmean(self.units[first:])

    def setup_probe(self) -> float:
        return self.execute(workloads.setup_command(self.root), "setup")[0]

    def run_round(self, cmds: list, traced: bool = False, sample: bool = False,
                  between=None) -> tuple:
        """Run one round: per command, its wall time, trace and unit time (see
        execute).  `between()` is called before and after each command."""
        rows = []
        for k, cmd in enumerate(cmds):
            if between:
                between()
            rows.append(self.execute(cmd, f"c{k}", traced, sample))
        if between:
            between()
        return tuple(map(list, zip(*rows)))


def _left(bench: Bench, deadline: float, last: float) -> bool:
    """Whether another round of duration `last` fits before the deadline."""
    now = time.perf_counter()
    return now + last <= deadline and now + last - bench.t_start < HARD_LIMIT_S - 10.0


def run_end_to_end(bench: Bench, cmds: list, seconds: float) -> tuple:
    bench.setup_probe()  # warm-up: a fresh checkout compiles its bytecode here
    calibrate.unit()
    start = time.perf_counter()
    deadline = start + seconds
    gap = seconds / SETUP_PROBES
    setup, setup_wall, rounds, walls = [], [], [], []

    def probe():
        before = calibrate.unit()
        setup_wall.append(bench.setup_probe())
        setup.append(REF_UNIT_S * setup_wall[-1] / statistics.fmean((before, calibrate.unit())))

    def probe_when_due():
        # one probe per `gap` of the window, taken between commands: probes
        # run back to back would all land in one of the machine's slow or
        # fast stretches, while spread out they sample the window as rounds do
        while len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * gap:
            probe()

    while True:
        t0 = time.perf_counter()
        wall, _, units = bench.run_round(cmds, sample=True, between=probe_when_due)
        walls.append(wall)
        rounds.append([REF_UNIT_S * w / u for w, u in zip(wall, units)])
        if not _left(bench, deadline, time.perf_counter() - t0):
            break
    while len(setup) < SETUP_PROBES:
        probe()
    totals = [sum(r) for r in rounds]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        # the mean over the window, not a median: single rounds are bimodal
        "round_ref_s": {"value": statistics.fmean(totals), "unit": "s"},
        "peak_rss_mb": {"value": bench.peak_rss_mb, "unit": "MB"},
    }
    lines = [f"{'round_ref_s':<22} {'s':<8} mean {statistics.fmean(totals):.6g} of "
             f"n={len(totals)}; {median_and_tail(totals)}",
             f"{'setup_s':<22} {'s':<8} {median_and_tail(setup)}"]
    per_command = {}  # the per-command metrics, in reference seconds too
    for k, cmd in enumerate(cmds):
        xs = [r[k] for r in rounds]
        if cmd.steps:
            per_command.setdefault("simulate_steps_per_s", []).extend(cmd.steps / x for x in xs)
        else:
            per_command.setdefault(f"{cmd.label}_s", []).extend(xs)
    for name, xs in per_command.items():
        unit = "steps/s" if name.endswith("per_s") else "s"
        lines.append(f"{name:<22} {unit:<8} {median_and_tail(xs)}")
    lines += [f"{'peak_rss_mb':<22} {'MB':<8} {bench.peak_rss_mb:.6g} (largest child)",
              "as measured, before scaling to the reference speed:",
              f"{'round_wall_s':<22} {'s':<8} mean {statistics.fmean(map(sum, walls)):.6g} of "
              f"n={len(walls)}; {median_and_tail([sum(w) for w in walls])}",
              f"{'setup_wall_s':<22} {'s':<8} {median_and_tail(setup_wall)}",
              f"{'calibration_unit_s':<22} {'s':<8} mean {statistics.fmean(bench.units):.6g} of "
              f"n={len(bench.units)}; {median_and_tail(bench.units)}"]
    return metrics, lines


def run_traced(bench: Bench, cmds: list, seconds: float) -> tuple:
    bench.setup_probe()
    deadline = time.perf_counter() + seconds
    plain, traced, per_round, traces = [], [], [], None
    while True:
        t0 = time.perf_counter()
        plain_walls = bench.run_round(cmds)[0]
        plain.append(sum(plain_walls))
        walls, traces, _ = bench.run_round(cmds, traced=True)
        traced.append(sum(walls))
        if any(t is None for t in traces):
            break
        per_round.append(tracer.layer_metrics(traces, [c.argv[0] for c in cmds]))
        if not _left(bench, deadline, time.perf_counter() - t0):
            break
    names = tracer.metric_names()
    values = {n: statistics.median(r[n] for r in per_round) if per_round else 0.0
              for n in names}
    base = statistics.median(plain)
    values["trace.overhead_s"] = statistics.median(traced) - base
    values["trace.overhead_frac"] = values["trace.overhead_s"] / base
    metrics = {n: {"value": values[n], "unit": _unit(n)} for n in names}
    lines = [f"{n:<44} {values[n]:.6g} {_unit(n)}" for n in names]
    if traces and all(t is not None for t in traces):
        for cmd, trace, wall in zip(cmds, traces, plain_walls):
            s = tracer.command_summary(trace)
            lines.append(f"{cmd.label:<22} untraced {wall:.4g} s; traced cli.main {s['s']:.4g} s, "
                         f"integrate_batch {s['integrate_batch_s']:.4g} s "
                         f"({100 * s['integrate_batch_share']:.1f}%)")
        out_dir = bench.root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        dump = [{"label": c.label, "argv": c.argv, "trace": t} for c, t in zip(cmds, traces)]
        (out_dir / f"trace-{bench.workload}.json").write_text(json.dumps(dump))
    return metrics, lines


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    return {"step_us": "us", "bytes": "bytes", "share": "ratio", "accept_ratio": "ratio",
            "overhead_frac": "ratio", "rows_per_step": "rows", "rows_per_call": "rows"
            }.get(last, "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sirlyap benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="bench",
                    help="bench: the measured sizes; tiny: self-tests; full: checked-in sizes")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sirlyap" / "cli.py").is_file():
        print("error: no src/sirlyap here; run from the root of a sirlyap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import gate

    # one vCPU for the driver and every child it starts: the host's speed
    # swings per vCPU, and the calibration units only track the command
    # they interrupt when both run on the same one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tmp_parent = root / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
        bench = Bench(args.workload, root, Path(tmp), args.size, gate.check)
        cmds = workloads.build(args.workload, args.seed, Path(tmp) / "configs", root, args.size)
        run = run_traced if args.trace else run_end_to_end
        metrics, lines = run(bench, cmds, args.seconds)
    try:
        tmp_parent.rmdir()
    except OSError:
        pass

    wall = time.perf_counter() - bench.t_start
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{bench.attempted} commands in {wall:.1f} s")
    for line in lines:
        print("  " + line)
    frac = bench.failed / bench.attempted
    print(f"  {'ops_failed_frac':<22} {'ratio':<8} {frac:.6g} ({bench.failed}/{bench.attempted})")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
