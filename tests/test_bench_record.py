import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(parent, change, name="round_ref_s"):
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, v in zip(("parent", "change"), values):
            runs.append({"workload": "w", "pair": pair, "side": side, "failed": 0,
                         "attempted": 3, "metrics": {name: {"value": v, "unit": "s"}}})
    return runs


def test_summary_applies_the_claim_rule():
    parent = [6.0, 6.2, 5.9, 6.1, 6.0, 6.3, 5.8, 6.0, 6.1, 6.2]
    row = bench_record.summarize(_runs(parent, [2.0] * 10), END_TO_END)["w"]["metrics"]
    assert row["round_ref_s"]["change_wins"] == 10 and row["round_ref_s"]["gain_counts"]
    assert row["round_ref_s"]["parent"]["median"] == 6.05
    # one loss in ten pairs still counts; two do not
    change = [2.0] * 9 + [7.0]
    assert bench_record.summarize(_runs(parent, change), END_TO_END)["w"]["metrics"][
        "round_ref_s"]["gain_counts"]
    change = [2.0] * 8 + [7.0, 7.0]
    assert not bench_record.summarize(_runs(parent, change), END_TO_END)["w"]["metrics"][
        "round_ref_s"]["gain_counts"]
    # winning every pair by less than the parent's interquartile range does not count
    row = bench_record.summarize(_runs(parent, [p - 0.01 for p in parent]),
                                 END_TO_END)["w"]["metrics"]["round_ref_s"]
    assert row["change_wins"] == 10 and not row["gain_counts"]


def test_summary_counts_ties_and_failures():
    runs = _runs([0.3, 0.3], [0.3, 0.3], name="setup_s")
    runs[1]["failed"] = 1
    summary = bench_record.summarize(runs, END_TO_END)["w"]
    assert summary["metrics"]["setup_s"]["ties"] == 2
    assert summary["metrics"]["setup_s"]["change_wins"] == 0
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert "round_ref_s" not in summary["metrics"]


def test_each_side_gets_its_own_bytecode_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_record.side_env(tmp_path / "parent")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "parent")
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_size_reaches_every_run_and_the_header(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda root, *args: "")
    monkeypatch.setattr(bench_record, "export", lambda root, ref, dest: None)
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"round_ref_s": {"value": 1.0, "unit": "s"}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    argv = ["--label", "t", "--parent", "HEAD", "--pairs", "certify=1", "--traced", "certify"]
    for extra, size in (([], "bench"), (["--size", "full"], "full")):
        calls.clear()
        bench_record.main(argv + extra)
        record = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert record["size"] == size and record["command"][-2:] == ["--size", size]
        runs = [cmd for cmd in calls if "perfbench/run.py" in cmd]
        assert len(runs) == 4 and all(cmd[cmd.index("--size") + 1] == size for cmd in runs)


def test_dirty_reads_only_the_measured_paths(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "NOTES.md").write_text("notes\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "init")
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "NOTES.md").write_text("edited\n")
    (tmp_path / "new.py").write_text("untracked\n")
    assert not bench_record.dirty(tmp_path)
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert bench_record.dirty(tmp_path)
