"""Self-tests of the benchmark itself (not of sirlyap).

    python3 -m pytest perfbench/selftest.py -q

Runs every workload at its tiny size, traced and untraced, checks the
printed metric names against BENCHMARK.json, and checks that corrupted
outputs are counted as failures.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("geometry", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_seeded(tmp_path):
    a = workloads.build("geometry", 5, tmp_path / "a", ROOT)
    b = workloads.build("geometry", 5, tmp_path / "b", ROOT)
    c = workloads.build("geometry", 6, tmp_path / "c", ROOT)
    assert [x.config for x in a] == [x.config for x in b]
    assert [x.config for x in a] != [x.config for x in c]


def _execute_corrupted(tmp_path, cmd, corrupt):
    """Run one real command through the harness, corrupting its output
    between the program's exit and the gate."""
    def check(kind, cfg, out, stdout):
        corrupt(out)
        return gate.check(kind, cfg, out, stdout)

    bench = run.Bench("test", ROOT, tmp_path / "run", "tiny", check)
    bench.execute(cmd, "c0")
    return bench


@pytest.mark.parametrize("which, row, expect", [
    (0, 5, "S+I+R"),           # constant input: the population identity catches it
    (2, -1, "final state"),    # sinusoid input: the reference integration catches it
])
def test_perturbed_trajectory_row_is_a_failure(tmp_path, which, row, expect):
    cmd = workloads.build("trajectory", 3, tmp_path / "cfg", ROOT, "tiny")[which]

    def corrupt(out):
        path = out / "trajectory.csv"
        lines = path.read_text().splitlines()
        t, s, *rest = lines[row].split(",")
        lines[row] = ",".join([t, repr(float(s) * (1 + 1e-6))] + rest)
        path.write_text("\n".join(lines) + "\n")

    bench = _execute_corrupted(tmp_path, cmd, corrupt)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert expect in bench.problems[0]


def test_flipped_passed_flag_is_a_failure(tmp_path):
    ref = json.loads((gate.REFERENCE_DIR / "certify_df_x8.json").read_text())
    assert gate.compare_reports(ref, ref) == []
    flipped = json.loads(json.dumps(ref))
    flipped["checks"][2]["passed"] = False
    assert gate.compare_reports(flipped, ref)
    flipped["passed"] = False
    assert gate.compare_reports(flipped, ref)
    shifted = json.loads(json.dumps(ref))
    shifted["checks"][1]["worst_margin"] *= 1.01
    assert gate.compare_reports(shifted, ref)


def test_moved_level_set_vertex_is_a_failure(tmp_path):
    cmds = workloads.build("geometry", 3, tmp_path / "cfg", ROOT, "tiny")
    levelsets = next(c for c in cmds if c.argv[0] == "levelsets")

    def corrupt(out):
        path = next(out.glob("levelsets_*.csv"))
        lines = path.read_text().splitlines()
        level, pid, x1, x2 = lines[1].split(",")
        # move along both axes: in some regions V ignores one of them
        lines[1] = ",".join([level, pid, repr(float(x1) + 5.0), repr(float(x2) + 5.0)])
        path.write_text("\n".join(lines) + "\n")

    bench = _execute_corrupted(tmp_path, levelsets, corrupt)
    assert (bench.attempted, bench.failed) == (1, 1)
