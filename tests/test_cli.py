import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sirlyap import cli, flow, lyap_en, model, verify
from sirlyap.errors import ConfigError, NoConvergence

ROOT = Path(__file__).resolve().parents[1]

DF_CONFIG = {
    "model": {"beta": 0.0002, "gamma": 0.032, "mu": 0.015, "b_hat": 3.0},
    "equilibrium": "df",
    "lyap": {"mu0": 0.0148, "eps": 0.0745},
    "signal": {"kind": "constant", "value": 3.0},
    "x0": [100.0, 50.0, 0.0],
    "horizon": 200.0,
    "dt": 0.05,
}

EN_CONFIG = {
    "model": {"beta": 0.0002, "gamma": 0.032, "mu": 0.015, "b_hat": 17.0},
    "equilibrium": "endemic",
    "lyap": {"lambda_hat2": 0.01, "k": 0.0902, "l_bar": 340.0},
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_round_trip():
    cfg = cli.RunConfig.from_dict(DF_CONFIG)
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_defaults_match_schema():
    cfg = cli.RunConfig.from_dict({"model": DF_CONFIG["model"]})
    assert cfg.to_dict() == {
        "model": DF_CONFIG["model"], "equilibrium": "df", "lyap": {},
        "signal": {"kind": "constant", "value": 3.0},
        "horizon": 5000.0, "dt": 0.01, "levels": [], "resolution": [800, 800],
        "out_dir": "out", "seed": 20769, "grid_n": 60, "n_samples": 100000,
    }


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({**DF_CONFIG, "typo_key": 1})
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({**DF_CONFIG, "lyap": {"mu0": 0.0148, "nope": 2}})
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({**DF_CONFIG, "equilibrium": "both"})
    with pytest.raises(ConfigError):
        cli.RunConfig.from_dict({**DF_CONFIG, "out_dir": 5})


def test_cmd_equilibria(tmp_path, capsys):
    rc = cli.main(["equilibria", "--config", _write(tmp_path, DF_CONFIG)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "disease_free_stable"
    assert out["r0_hat"] == pytest.approx(0.851064, rel=1e-5)
    assert "endemic" not in out


def test_cmd_equilibria_endemic(tmp_path, capsys):
    rc = cli.main(["equilibria", "--config", _write(tmp_path, EN_CONFIG)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "endemic_theorem_applies"
    assert out["endemic"][0] == pytest.approx(235.0)


def test_cmd_simulate(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", _write(tmp_path, DF_CONFIG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,S,I,R,B"
    assert len(lines) > 100


@pytest.mark.parametrize("name, signal", [
    ("step", {"kind": "step", "t_switch": 3.05, "before": 17.0, "after": 5.0}),
    ("sinusoid", {"kind": "sinusoid", "mean": 17.0, "amplitude": 6.0, "angular_frequency": 0.7}),
])
def test_cmd_simulate_matches_golden(tmp_path, capsys, monkeypatch, name, signal):
    # the streamed CSV is byte for byte the one integrate(...).to_csv wrote;
    # blocks of 16 steps cross the step's switch time
    golden = (ROOT / "tests" / "data" / f"trajectory_{name}.csv").read_bytes()
    cfg = {**EN_CONFIG, "signal": signal, "x0": [300.0, 80.0, 40.0], "horizon": 10.0, "dt": 0.1}
    path = tmp_path / "out" / "trajectory.csv"
    for block_steps in (flow._BLOCK_STEPS, 16):
        monkeypatch.setattr(flow, "_BLOCK_STEPS", block_steps)
        rc = cli.main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(path.parent)])
        assert rc == 0
        assert path.read_bytes() == golden
        n_rows = golden.count(b"\n") - 1
        assert capsys.readouterr().out == f"wrote {path} ({n_rows} rows)\n"


def test_failed_simulate_leaves_no_partial_csv(tmp_path, capsys):
    cfg = {**json.loads((ROOT / "configs" / "df.json").read_text()),
           "x0": [1e5, 5e4, 0], "dt": 5.0, "horizon": 200}
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: state component below -1e-12*N at t=5; reduce dt\n"
    assert list(out.iterdir()) == []
    # an earlier run's CSV stays as it was
    (out / "trajectory.csv").write_bytes(b"t,S,I,R,B\r\n0.0,1.0,2.0,3.0,4.0\r\n")
    assert cli.main(argv) == 3
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]
    assert (out / "trajectory.csv").read_bytes() == b"t,S,I,R,B\r\n0.0,1.0,2.0,3.0,4.0\r\n"


@pytest.mark.parametrize("command", ["params", "levelsets", "certify"])
@pytest.mark.parametrize("change", [{"lyap": {"l_bar": 1e20}},
                                    {"model": {**EN_CONFIG["model"], "beta": 1e300}}])
def test_zero_lambda3_ceiling_is_a_typed_error(tmp_path, capsys, command, change):
    cfg = {**EN_CONFIG, "lyap": {"l_bar": 340.0}, **change}
    argv = [command, "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("error: no admissible lambda3: ")


@pytest.mark.parametrize("command", ["simulate", "params", "levelsets", "certify"])
def test_unmakeable_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # --out names an existing file; the directory is made before any numerics
    monkeypatch.setattr(verify, "run_certification",
                        lambda *args, **kwargs: pytest.fail("certify ran its checks"))
    out = tmp_path / "taken"
    out.write_text("a file")
    rc = cli.main([command, "--config", _write(tmp_path, DF_CONFIG), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("config error: cannot create output directory")
    assert "Traceback" not in captured.err and captured.out == ""
    assert out.read_text() == "a file"


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "trajectory.csv"), ("params", "params_df.json"),
    ("levelsets", "levelsets_df.csv"), ("certify", "certify_df.json")])
def test_unwritable_artifact_is_a_config_error(tmp_path, capsys, monkeypatch, command, artifact):
    # the artifact's own path is a directory: nothing is printed and nothing
    # but that directory is left
    report = verify.VerificationReport([verify.CheckResult("stub", True, 1.0)])
    monkeypatch.setattr(verify, "run_certification", lambda *args, **kwargs: report)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    rc = cli.main([command, "--config", _write(tmp_path, DF_CONFIG), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("config error: ") and artifact in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert [p.name for p in out.iterdir()] == [artifact] and (out / artifact).is_dir()


def test_check_without_samples_fails_in_standard_json(tmp_path, capsys):
    # one requested sample leaves the pointwise ISS check nothing to
    # evaluate at seed 0 (on the benchmark's 40x clock)
    workloads = _perfbench("workloads")
    with open(ROOT / "configs" / "endemic.json") as fh:
        cfg = {**workloads.time_scaled(json.load(fh), 40), "n_samples": 1}
    out = tmp_path / "out"
    rc = cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(out), "--seed", "0"])
    assert rc == 3

    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")

    with open(out / "certify_endemic.json") as fh:
        report = json.load(fh, parse_constant=refuse)
    check, = (c for c in report["checks"] if c["name"] == "en_iss_pointwise")
    assert check["samples"] == 0 and check["passed"] is False and check["worst_margin"] is None
    assert not report["passed"]


def test_cmd_params(tmp_path, capsys):
    rc = cli.main(["params", "--config", _write(tmp_path, EN_CONFIG),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasibility"]["k0"] > 0.0902
    assert (tmp_path / "out" / "params_endemic.json").exists()


#: configs of the `params` goldens besides the checked-in ones: a drawn
#: endemic scenario without its constants (so `select_en_params` searches
#: them) and a drawn disease-free one, both from the benchmark's seed-1 draws
_DRAWN = {
    "drawn_endemic": {
        "model": {"beta": 0.0002, "gamma": 0.02863497201214802, "mu": 0.018050979941875836,
                  "b_hat": 21.825499629112112},
        "equilibrium": "endemic", "lyap": {"l_bar": 340.0, "delta": 0.5}},
    "drawn_df": {
        "model": {"beta": 0.0002, "gamma": 0.03394696737993359, "mu": 0.013511533618170538,
                  "b_hat": 2.629792502961777},
        "equilibrium": "df", "lyap": {"mu0": 0.013209686080843368, "delta": 0.5}},
}


@pytest.mark.parametrize("name", ["df", "endemic", "drawn_endemic", "drawn_df"])
def test_cmd_params_matches_golden(tmp_path, capsys, name):
    cfg = _DRAWN.get(name) or json.loads((ROOT / "configs" / f"{name}.json").read_text())
    assert cli.main(["params", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    golden = (ROOT / "tests" / "data" / f"params_{name}.json").read_bytes()
    assert (tmp_path / f"params_{cfg['equilibrium']}.json").read_bytes() == golden
    assert capsys.readouterr().out.encode() == golden + b"\n"


@pytest.mark.parametrize("name", ["df", "endemic"])
def test_cmd_certify_matches_golden(tmp_path, capsys, name):
    # both checked-in configs on the benchmark's 40x clock, at small sizes
    workloads = _perfbench("workloads")
    cfg = {**workloads.time_scaled(json.loads((ROOT / "configs" / f"{name}.json").read_text()), 40),
           "grid_n": 12, "n_samples": 2000}
    assert cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    golden = ROOT / "tests" / "data" / f"certify_{name}"
    report = (tmp_path / f"certify_{name}.json").read_bytes()
    assert report == golden.with_suffix(".json").read_bytes()
    assert capsys.readouterr().out.encode() == golden.with_suffix(".txt").read_bytes()


def test_cmd_levelsets(tmp_path, capsys):
    cfg = {**DF_CONFIG, "levels": [10.0, 60.0],
           "window": [[-100.0, 200.0], [0.0, 220.0]], "resolution": [120, 120]}
    rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "levelsets_df.csv").read_text().splitlines()
    assert lines[0] == "level,polyline_id,x1,x2"
    # level 10 is the whole four-vertex polyline; the window cuts level 60,
    # whose kink lies at x1t = -162, on its edge x1t = -100
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["10.0", "0"]] * 4 + [["60.0", "0"]] * 3
    assert rows[-1][2:] == ["-100.0", "60.0"]


@pytest.mark.parametrize("l_bar", [100.0, 1000.0])
def test_endemic_default_levels_follow_l_bar(tmp_path, capsys, l_bar):
    cfg = {**EN_CONFIG, "lyap": {"l_bar": l_bar}, "resolution": [400, 400]}
    rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    with open(tmp_path / "out" / "levelsets_endemic.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    (u0, u1), (v0, v1) = cli._build_lyap(cli.RunConfig.from_dict(cfg)).default_window(("x3t", 0.0))
    cell = np.hypot((u1 - u0) / 399, (v1 - v0) / 399)
    levels = [l_bar * n / 17.0 for n in (1, 5, 9, 13, 17)]
    assert sorted({float(r[0]) for r in rows}) == levels
    for level in levels:
        mine = [r for r in rows if float(r[0]) == level]
        assert {r[1] for r in mine} == {"0"}  # one polyline
        ends = np.array([mine[0][2:], mine[-1][2:]], dtype=float)
        assert np.linalg.norm(ends[0] - ends[1]) <= cell  # closed


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["df", "endemic"])
def test_certify_passes_benchmark_gate(tmp_path, capsys, name):
    # the benchmark's output gate, on a 40x faster clock, against its reference reports
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    with open(ROOT / "configs" / f"{name}.json") as fh:
        cfg = workloads.time_scaled(json.load(fh), 40)
    out = tmp_path / "out"
    rc = cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    with open(out / f"certify_{name}.json") as fh:
        got = json.load(fh)
    with open(ROOT / "perfbench" / "reference" / f"certify_{name}_x40.json") as fh:
        ref = json.load(fh)
    assert gate.compare_reports(got, ref) == []


@pytest.mark.parametrize("size", ["tiny", "bench", "full"])
@pytest.mark.parametrize("workload", ["trajectory", "certify", "geometry"])
def test_benchmark_configs_decode(tmp_path, workload, size):
    # every config the benchmark writes, with its command's flags, passes the
    # CLI's decoder, and its model section the gate's
    gate, workloads = _perfbench("gate"), _perfbench("workloads")
    for cmd in workloads.build(workload, 1, tmp_path, ROOT, size):
        cli._load_config(cli.build_parser().parse_args(cmd.argv))
        gate._params(cmd.config)


def test_levels_flag_override(tmp_path, capsys):
    cfg = {**DF_CONFIG, "window": [[-100.0, 200.0], [0.0, 220.0]],
           "resolution": [100, 100]}
    rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out"), "--levels", "30"])
    assert rc == 0
    lines = (tmp_path / "out" / "levelsets_df.csv").read_text().splitlines()
    assert all(r.startswith("30.0,") for r in lines[1:])
    for levels, named in (("10,abc", ["--levels", "'abc'"]), ("nan", ["levels", "nan"])):
        rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                       "--out", str(tmp_path / "out"), "--levels", levels])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:") and all(n in err for n in named), err


def test_cmd_certify_regime_error(tmp_path, capsys):
    bad = {"model": DF_CONFIG["model"], "equilibrium": "endemic"}
    rc = cli.main(["certify", "--config", _write(tmp_path, bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_certify_near_the_theorem_boundary(tmp_path, capsys):
    # the nesting pairs come from the function's own constants, so a scenario
    # whose constants are feasible certifies; the reference scenario's pairs
    # fail condition (50) here
    cfg = {"model": {"beta": 0.008, "gamma": 1.18, "mu": 0.622, "b_hat": 551.3},
           "equilibrium": "endemic", "lyap": {"l_bar": 340.0}, "n_samples": 2000}
    rc = cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


def test_certify_a_slow_disease_free_scenario(tmp_path, capsys):
    # gamma 0.045, mu 0.02, R0 0.97 on the x40 clock: the slowest linear rate
    # (gamma+mu)*(1-R0) brings the starts within 1e-3 only after 50/mu, so
    # the horizon comes from the linearisation
    c, gamma, mu, r0, beta = 40.0, 0.045, 0.02, 0.97, 2e-4
    cfg = {"model": {"beta": c * beta, "gamma": c * gamma, "mu": c * mu,
                     "b_hat": c * r0 * mu * (gamma + mu) / beta},
           "equilibrium": "df", "grid_n": 10, "n_samples": 1000}
    rc = cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "certify_df.json").read_text())
    mono, = [ch for ch in report["checks"] if ch["name"].startswith("trajectory")]
    assert mono["details"]["t_end"] > 50.0 / (c * mu)


def test_cmd_levelsets_domain_error_exit_code(tmp_path, capsys):
    cfg = {**DF_CONFIG, "levels": [10.0],
           "window": [[-100.0, 200.0], [-50.0, 220.0]]}  # x2t < 0 exits the domain
    rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 3


def test_endemic_level_beyond_the_budget_exit_code(tmp_path, capsys):
    # the hexagon formulas hold up to l_bar, where condition (50) is certified
    cfg = {**EN_CONFIG, "levels": [100.0, 360.0]}
    rc = cli.main(["levelsets", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert (f"level 360.0 outside the budget [0.0, l_bar*(1+1e-12)={340.0 * (1.0 + 1e-12)!r}]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "levelsets_endemic.csv").exists()


def test_missing_config_file(tmp_path):
    assert cli.main(["equilibria", "--config", str(tmp_path / "nope.json")]) == 1


def test_bad_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["equilibria", "--config", str(path)]) == 1


def _refused(tmp_path, capsys, bad, key):
    """`params` on the config `bad` exits 1 with a config error that names `key`."""
    rc = cli.main(["params", "--config", _write(tmp_path, bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("bad, key", [
    ({**DF_CONFIG, "signal": {"kind": "constant"}}, "'value'"),
    ({**DF_CONFIG, "lyap": {"mu0": "x"}}, "lyap.mu0"),
    ({**DF_CONFIG, "x0": [1, 2]}, "x0"),
    ({**DF_CONFIG, "x0": [-1, 0, 0]}, "x0[0] must be nonnegative, got -1.0"),
    ({**DF_CONFIG, "horizon": float("inf")}, "horizon"),
    ({**EN_CONFIG, "lyap": {"lambda_hat2": 0.01}}, "l_bar"),
    ({**DF_CONFIG, "window": [[0.0]]}, "window"),
    ({**DF_CONFIG, "window": [[1.0, 1.0], [0.0, 5.0]]}, "window"),
    ({**DF_CONFIG, "window": [[-100.0, 200.0], [220.0, 0.0]]}, "window"),
    ({**DF_CONFIG, "resolution": [1]}, "resolution"),
    ({**DF_CONFIG, "plane": {"axis": "x3t"}}, "plane"),
    ({**DF_CONFIG, "plane": {"axis": "x1t", "value": 0}}, "plane"),
    ({**DF_CONFIG, "levels": 5}, "levels"),
    ({**DF_CONFIG, "levels": [10.0, -1.0]}, "levels"),
    ({**DF_CONFIG, "seed": -1}, "seed"),
    ({**DF_CONFIG, "seed": 1.5}, "seed"),
    ({**DF_CONFIG, "grid_n": 0}, "grid_n"),
    ({**EN_CONFIG, "n_samples": 0}, "n_samples"),
    ({**DF_CONFIG, "lyap": {"l_bar": -3.0, "k": 7.0, "lambda_hat2": 0.01}}, "l_bar"),
    ({**EN_CONFIG, "lyap": {"mu0": 0.001, "eps": 5.0}}, "mu0"),
    # an unhashable equilibrium is compared, not looked up
    ({**DF_CONFIG, "equilibrium": ["df"]}, "equilibrium"),
    ({**DF_CONFIG, "equilibrium": {}}, "equilibrium"),
    # a signal object holds exactly its kind's keys
    ({**DF_CONFIG, "signal": {"kind": "constant", "value": 3.0, "junk": 1}}, "'junk'"),
    ({**DF_CONFIG, "signal": {"kind": "step", "t_switch": 5.0, "before": 3.0}}, "'after'"),
    ({**DF_CONFIG, "signal": {"kind": "piecewise", "points": [[0.0, 3.0, 1.0]]}}, "signal.points"),
    ({**DF_CONFIG, "signal": {"kind": "piecewise", "points": []}}, "at least one segment"),
    ({**DF_CONFIG, "signal": {"kind": "piecewise", "points": [[0.0, -1.0]]}},
     "levels must be nonnegative"),
    ({**DF_CONFIG, "model": 3}, "'model' must be an object"),
    ({**DF_CONFIG, "dt": 0}, "need horizon >= 0 and dt > 0"),
    ({**DF_CONFIG, "horizon": -1}, "need horizon >= 0 and dt > 0"),
    ([DF_CONFIG], "config must be a JSON object"),
], ids=["signal_without_value", "non_numeric_lyap", "short_x0", "negative_x0",
        "infinite_horizon",
        "partial_endemic_override", "short_window", "empty_window", "inverted_window",
        "short_resolution",
        "plane_without_value", "plane_bad_axis", "scalar_levels", "negative_level",
        "negative_seed", "fractional_seed", "zero_grid_n", "zero_n_samples",
        "df_with_endemic_keys", "endemic_with_df_keys",
        "equilibrium_list", "equilibrium_object",
        "signal_extra_key", "signal_missing_key", "piecewise_bad_points",
        "piecewise_no_points", "piecewise_negative_level", "model_not_object", "zero_dt",
        "negative_horizon", "config_list"])
def test_bad_config_values(tmp_path, capsys, bad, key):
    _refused(tmp_path, capsys, bad, key)


@pytest.mark.parametrize("bad, key", [
    ({**DF_CONFIG, "model": {**DF_CONFIG["model"], "mu": True}}, "mu"),
    ({**DF_CONFIG, "horizon": True}, "horizon"),
    ({**DF_CONFIG, "levels": [True]}, "levels"),
    ({**DF_CONFIG, "signal": {"kind": "constant", "value": True}}, "signal.value"),
    # float("3.0") is 3.0: a JSON string must not pass for a number either
    ({**DF_CONFIG, "model": {**DF_CONFIG["model"], "b_hat": "3.0"}}, "b_hat"),
    ({**DF_CONFIG, "lyap": {"mu0": "0.0148"}}, "lyap.mu0"),
    ({**DF_CONFIG, "horizon": "200"}, "horizon"),
    ({**DF_CONFIG, "dt": "0.05"}, "dt"),
    ({**DF_CONFIG, "levels": [10.0, "30"]}, "levels"),
    ({**DF_CONFIG, "x0": [100.0, "50", 0.0]}, "x0"),
    ({**DF_CONFIG, "window": [[-100.0, "200"], [0.0, 220.0]]}, "window"),
    ({**DF_CONFIG, "plane": {"axis": "x3t", "value": "0"}}, "plane.value"),
    ({**DF_CONFIG, "signal": {"kind": "constant", "value": "3.0"}}, "signal.value"),
    ({**DF_CONFIG, "signal": {"kind": "piecewise", "points": [[0.0, 3.0], ["100", 4.0]]}},
     "signal.points"),
], ids=["model_key", "horizon", "levels", "signal_value",
        "model_key_string", "lyap_key_string", "horizon_string", "dt_string", "levels_string",
        "x0_string", "window_string", "plane_value_string", "signal_value_string",
        "piecewise_point_string"])
def test_config_refuses_booleans_as_numbers(tmp_path, capsys, bad, key):
    # float(True) is 1.0: a JSON true must not pass for a number
    _refused(tmp_path, capsys, bad, key)


@pytest.mark.parametrize("lyap, message", [
    ({"delta": 2.0}, "delta=2 outside (0, 1)"),
    ({"delta": 1.0}, "delta=1 outside (0, 1)"),
    ({**EN_CONFIG["lyap"], "delta": 2.0}, "delta=2 outside (0, 1)"),
    ({"l_bar": 0.0}, "l_bar=0 must be positive"),
    ({"l_bar": -5.0}, "l_bar=-5 must be positive"),
    ({**EN_CONFIG["lyap"], "l_bar": 0.0}, "l_bar=0 must be positive"),
    ({**EN_CONFIG["lyap"], "lambda_hat2": 0.0}, "lambda_hat2=0 must be positive"),
    ({**EN_CONFIG["lyap"], "lambda_hat2": -1.0}, "lambda_hat2=-1 must be positive"),
    # a feasible k and lambda3 whose (l_bar, lambda_hat2) pair breaks (50)
    ({"l_bar": 340, "lambda_hat2": 0.5, "k": 0.0902}, "condition (50) fails: margin -182 at L=340"),
], ids=["delta_2", "delta_1", "triple_delta_2", "zero_l_bar", "negative_l_bar",
        "triple_zero_l_bar", "triple_zero_lambda_hat2", "triple_negative_lambda_hat2",
        "condition_50"])
def test_endemic_override_out_of_range(tmp_path, capsys, lyap, message):
    cfg = {**EN_CONFIG, "lyap": lyap}
    rc = cli.main(["params", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exhausted_feasibility_search_exit_code(tmp_path, capsys, monkeypatch):
    # condition (50) failing every round runs the search out of its 64 rounds
    rounds = []
    monkeypatch.setattr(lyap_en, "check_condition_50",
                        lambda p, lp: rounds.append(lp) or lyap_en.Cond50Result(False, -1.0, 1.0, 3))
    with pytest.raises(NoConvergence, match="^feasibility search exhausted its iteration budget$"):
        lyap_en.select_en_params(model.ModelParams(**EN_CONFIG["model"]), 340.0)
    assert len(rounds) == 64
    cfg = {**EN_CONFIG, "lyap": {"l_bar": 340.0}}
    rc = cli.main(["params", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == "error: feasibility search exhausted its iteration budget\n"


def test_cmd_certify_sampler_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lyap_en, "in_sublevel_many",
                        lambda p, lp, X, L: np.zeros(len(X), dtype=bool))
    cfg = {**EN_CONFIG, "n_samples": 10}
    rc = cli.main(["certify", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err and "sublevel sampling" in err
