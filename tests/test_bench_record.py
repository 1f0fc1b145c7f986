import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    # each side runs from its own copy, without the working tree's bytecode,
    # under the caller's environment: PYTHONDONTWRITEBYTECODE passes through
    root = tmp_path / "repo"
    for name in ("src/sirlyap/cli.py", "src/sirlyap/__pycache__/cli.cpython-311.pyc",
                 "perfbench/run.py", "configs/df.json"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("x\n")
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(root)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    tracked = "\0".join(["src/sirlyap/cli.py", "perfbench/run.py", "configs/df.json",
                          "BENCHMARK.json"])
    monkeypatch.setattr(bench_record, "git",
                        lambda root, *args: tracked if args[0] == "ls-files" else "")
    monkeypatch.setattr(bench_record, "export", lambda root, ref, dest: dest.mkdir())
    sides = []

    def fake_run(cmd, **kwargs):
        if "perfbench/run.py" in cmd:
            cwd = Path(kwargs["cwd"])
            assert "env" not in kwargs
            assert (cwd / "src" / "sirlyap").is_dir() == (cwd.name == "change")
            assert not list(cwd.rglob("__pycache__"))
            sides.append(cwd)
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    bench_record.main(["--label", "t", "--parent", "HEAD", "--pairs", "certify=1"])
    assert [p.name for p in sides] == ["parent", "change"] and root not in sides
    assert json.loads((root / "BENCH_t.json").read_text())["bytecode_written"] is False


def test_size_reaches_every_run_and_the_header(monkeypatch, tmp_path):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda root, *args: "")
    monkeypatch.setattr(bench_record, "export", lambda root, ref, dest: None)
    monkeypatch.setattr(bench_record, "copy_measured", lambda root, dest: None)
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
        assert record["bytecode_written"] is True
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


def test_copy_measured_takes_only_tracked_files(tmp_path):
    # an untracked module under src would be measured while `dirty` reads false
    root, dest = tmp_path / "repo", tmp_path / "copy"
    for name in ("src/m.py", "configs/a.json", "NOTES.md"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("committed\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "init"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=root, check=True, capture_output=True)
    (root / "src" / "m.py").write_text("edited\n")
    for name in ("src/scratch.py", "src/__pycache__/m.cpython-311.pyc", "perfbench/new.py"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("untracked\n")
    bench_record.copy_measured(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == ["configs/a.json", "src/m.py"]
    assert (dest / "src" / "m.py").read_text() == "edited\n"


def _record(label, parent, change, dirty, size, summary):
    return {"label": label, "size": size, "parent": {"ref": "HEAD~1", "sha": parent},
            "change": {"sha": change, "dirty": dirty}, "runs": [], "traced": [],
            "summary": summary}


def test_history_tables_every_record_by_commit_time(tmp_path, capsys, monkeypatch):
    # two synthetic records, named against their order in time: the table
    # follows the change SHA's commit time, and neither file is touched
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, check=True, capture_output=True,
                              text=True).stdout.strip()

    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    git("init", "-q")
    git("add", "-A")
    for day in (1, 2):
        monkeypatch.setenv("GIT_COMMITTER_DATE", f"2020-01-0{day}T00:00:00")
        git("commit", "-q", "--allow-empty", "-m", f"day {day}")
    first, second = git("rev-parse", "HEAD~1"), git("rev-parse", "HEAD")
    summary = bench_record.summarize(_runs([6.0, 6.2, 5.9], [2.0, 2.1, 2.2]), END_TO_END)
    files = {"BENCH_a_later.json": _record("later", first, second, False, "bench", summary),
             "BENCH_b_earlier.json": _record("earlier", first, first, True, None,
                                             bench_record.summarize(_runs([1.0], [1.5],
                                                                          "setup_s"),
                                                                    END_TO_END))}
    for name, record in files.items():
        (tmp_path / name).write_text(json.dumps(record))
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.glob("*.json")}
    monkeypatch.chdir(tmp_path)
    assert bench_record.main(["--history"]) == 0
    header, earlier, later = capsys.readouterr().out.splitlines()
    assert header.split() == ["label", "parent", "change", "size", "workload",
                              *(spec["name"] for spec in END_TO_END)]
    assert earlier.split() == ["earlier", first[:7], first[:7] + "+", "-", "w",
                               "1", "1.5", "0/1", "-", "-", "-"]
    assert later.split() == ["later", first[:7], second[:7], "bench", "w",
                             "-", "6", "2.1", "3/3", "gain", "-"]
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in tmp_path.glob("*.json")} == before
    with pytest.raises(SystemExit):  # recording still needs its three flags
        bench_record.main(["--label", "t"])
