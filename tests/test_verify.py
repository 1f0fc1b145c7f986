import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import bands, flow, lyap_df, lyap_en, ode, verify
from sirlyap.errors import MismatchedEquilibrium, RangeError
from sirlyap.model import EquilibriumKind


def test_dini_constant_at_equilibrium(p_df, ly_df):
    q = sl.disease_free_eq(p_df).point
    traj = sl.integrate(p_df, q, ode.Constant(p_df.b_hat), 50.0, dt=0.1)
    res = verify.check_dini_along_trajectory(ly_df, traj)
    assert res.passed
    assert res.details["v_final"] == pytest.approx(0.0, abs=1e-9)


def test_dini_one_row_trajectory(p_df, ly_df):
    traj = sl.integrate(p_df, sl.State(100.0, 50.0, 0.0), ode.Constant(3.0), 0.0)
    assert len(traj.times) == 1
    res = verify.check_dini_along_trajectory(ly_df, traj)
    assert res.passed
    assert res.worst_margin == math.inf
    assert res.worst_location == traj.times[0]


def test_dini_mismatch_raises(ly_df, p_df):
    traj = sl.integrate(p_df, sl.State(100.0, 10.0, 0.0), ode.Constant(3.0), 5.0, dt=0.1)
    traj.anchor = EquilibriumKind.ENDEMIC
    with pytest.raises(MismatchedEquilibrium):
        verify.check_dini_along_trajectory(ly_df, traj)


def test_dini_decrease_df(p_df, ly_df):
    traj = sl.integrate(p_df, sl.State(80.0, 120.0, 40.0), ode.Constant(p_df.b_hat),
                        800.0, dt=0.05)
    res = verify.check_dini_along_trajectory(ly_df, traj, v_stop=1e-6)
    assert res.passed


def test_dini_decrease_endemic_boundary_crossing(p_en, ly_en):
    # a spiral start crosses several region boundaries on its way in
    q = sl.endemic_eq(p_en).point
    traj = sl.integrate(p_en, sl.State(q.s + 150.0, q.i - 120.0, q.r - 50.0),
                        ode.Constant(p_en.b_hat), 800.0, dt=0.05)
    res = verify.check_dini_along_trajectory(ly_en, traj, v_stop=1e-6)
    assert res.passed


def test_iss_bound_zero_input(ly_df, p_df):
    res, = verify.check_iss_bound(ly_df, [ode.Constant(p_df.b_hat)], dt=0.25,
                                  x0=sl.State(180.0, 20.0, 5.0))
    assert res.passed
    assert res.details["limsup_v"] <= 1e-6


def test_iss_bound_range_error(ly_en, p_en):
    lo, hi = ly_en.admissible_u()
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [ode.Constant(p_en.b_hat + hi + 0.5)], t_end=100.0)
    with pytest.raises(RangeError):
        verify.iss_step_suite(ly_en, [hi + 0.1], t_end=100.0)


def test_iss_bound_batch_matches_single_runs(ly_en, p_en):
    # breakpoint-free signals step on the same grid alone and in a batch
    lo, hi = ly_en.admissible_u()
    u = 0.45 * min(-lo, hi)
    signals = [ode.Constant(p_en.b_hat - u), ode.Constant(p_en.b_hat + u),
               ode.Sinusoid(p_en.b_hat, u, 2.0 * math.pi / 7.5)]
    batch = verify.check_iss_bound(ly_en, signals, t_end=60.0)
    assert len(batch) == len(signals)
    for sig, res in zip(signals, batch):
        alone, = verify.check_iss_bound(ly_en, [sig], t_end=60.0)
        assert res.to_dict() == alone.to_dict()


def test_iss_bound_empty_batch_value_error(monkeypatch, ly_df):
    def integrate_batch(*args, **kwargs):
        raise AssertionError("integrated an empty batch")

    monkeypatch.setattr(ode, "integrate_batch", integrate_batch)
    with pytest.raises(ValueError, match="at least one input signal"):
        verify.check_iss_bound(ly_df, [])
    with pytest.raises(ValueError, match="at least one input signal"):
        verify.iss_step_suite(ly_df, [])


def test_iss_bound_batch_range_error(ly_en, p_en):
    lo, hi = ly_en.admissible_u()
    signals = [ode.Constant(p_en.b_hat), ode.Constant(p_en.b_hat + hi + 0.5),
               ode.Constant(p_en.b_hat + 0.5 * hi)]
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, signals, t_end=100.0)


def test_iss_bound_domain_exit_range_error(ly_en, p_en, lp_en):
    # x2t starts above l_bar/(lambda2*(1-k)): the run leaves the endemic domain H,
    # which the observer reports at the end of the block holding the step
    assert 700.0 - sl.endemic_eq(p_en).point.i > lp_en.l_bar / (lp_en.lambda2 * (1.0 - lp_en.k))
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [ode.Constant(p_en.b_hat)], t_end=100.0,
                               x0=sl.State(235.0, 700.0, 100.0))


def test_block_length_leaves_results_unchanged(monkeypatch, p_df, ly_en):
    def run():
        traj = sl.integrate(p_df, sl.State(100.0, 50.0, 0.0), ode.Step(7.3, 3.0, 5.0), 40.0,
                            dt=0.05, record_every=7)
        return ([traj.times.tolist(), traj.states.tolist(), traj.inputs.tolist()],
                verify.check_trajectory_monotonicity(ly_en, n_starts=4, t_end=60.0,
                                                     final_tol=1e4),
                verify.iss_step_suite(ly_en, [-0.5, 1.0], t_end=60.0),
                verify.check_w_region(ly_en, n_starts=4, t_end=60.0, seed=2))

    default = run()
    for steps in (1, 3):
        monkeypatch.setattr(flow, "_BLOCK_STEPS", steps)
        assert run() == default


def test_iss_bound_aliased_sinusoid_range_error(ly_en, p_en):
    # one period per step of a 4097-point sample grid: sampling sees only the mean
    lo, hi = ly_en.admissible_u()
    t_end = 1000.0
    sig = ode.Sinusoid(p_en.b_hat, 2.0 * hi, 2.0 * math.pi * 4096 / t_end)
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [sig], t_end=t_end)


@pytest.mark.parametrize("region", range(3))
def test_df_continuity_checks_library_formulas(monkeypatch, ly_df, region):
    original = lyap_df.df_region_values

    def perturbed(lp, p, X):
        values = list(original(lp, p, X))
        values[region] = values[region] * (1.0 + 1e-6)
        return tuple(values)

    assert verify.check_df_continuity(ly_df, n=200).passed
    monkeypatch.setattr(lyap_df, "df_region_values", perturbed)
    assert not verify.check_df_continuity(ly_df, n=200).passed


@pytest.mark.parametrize("region", range(6))
def test_en_continuity_checks_library_formulas(monkeypatch, ly_en, region):
    original = lyap_en._region_forms
    factor = np.where(np.arange(6)[:, None] == region, 1.0 + 1e-6, 1.0)
    assert verify.check_en_continuity(ly_en, n_per_boundary=40).passed
    monkeypatch.setattr(lyap_en, "_region_forms", lambda lp: original(lp) * factor)
    assert not verify.check_en_continuity(ly_en, n_per_boundary=40).passed


def test_reproducible_margins(ly_en):
    a = verify.check_en_sample_decrease(ly_en, n=3000, seed=123)
    b = verify.check_en_sample_decrease(ly_en, n=3000, seed=123)
    assert a.worst_margin == b.worst_margin
    assert a.worst_location == b.worst_location


def test_bifurcation_small_grid(p_df):
    c_star = p_df.mu * (p_df.gamma + p_df.mu) / p_df.beta
    res = verify.check_bifurcation_continuity(
        p_df, c_values=np.linspace(0.8 * c_star, 1.25 * c_star, 5))
    assert res.passed
    assert res.details["limit_gap_at_threshold"] <= 1e-3
    assert np.isfinite(res.details["lipschitz_estimate"])


def test_nesting_small(ly_en):
    res = verify.check_sublevel_nesting(ly_en, n=2000)
    assert res.passed
    assert res.worst_margin == 0.0


def test_w_region(ly_en):
    res = verify.check_w_region(ly_en, n_starts=6, seed=2)
    assert res.passed
    assert res.details["all_entered"]
    assert np.isfinite(res.details["max_entry_time"])


def test_separability_demo(p_en):
    res = verify.separability_obstruction_demo(p_en)
    assert res.passed
    assert res.details["required_sign_upper"] == 1
    assert res.details["required_sign_lower"] == -1
    assert abs(res.details["dx2dt_on_plane"]) < 1e-12
    assert res.details["anti_parallel_vanishes_at_x2hat"]


def test_prohibited_region_demo(p_en):
    res = verify.prohibited_region_demo(p_en, l_bars=(340.0, 1000.0), t_end=2500.0)
    assert res.passed
    assert res.details["excluded_for_all_l_bars"]
    assert res.details["min_distance_to_disease_free"] < 550.0


def test_grid_csv_emission(ly_df, tmp_path):
    path = tmp_path / "grid.csv"
    res = verify.check_df_grid_iss(ly_df, n=8, csv_path=path)
    assert res.passed
    lines = path.read_text().splitlines()
    assert lines[0] == "x1t,x2t,x3t,region,V,slack"
    assert len(lines) > 100
    assert all(line.split(",")[3] in ("A", "B", "C") for line in lines[1:])


GRID_GOLDEN = Path(__file__).resolve().parent / "data" / "df_grid_iss_n8.csv"


@pytest.mark.parametrize("band_points", [None, 7])
def test_grid_csv_matches_golden(monkeypatch, ly_df, tmp_path, band_points):
    # one slab of the 8x8x8 grid by default, one per first-axis value at 7
    if band_points is not None:
        monkeypatch.setattr(bands, "BAND_POINTS", band_points)
    path = tmp_path / "grid.csv"
    verify.check_df_grid_iss(ly_df, n=8, csv_path=path)
    assert path.read_bytes() == GRID_GOLDEN.read_bytes()


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_bulk_checks_hold_bounded_memory(ly_df, ly_en):
    # evaluated all at once, the grid check peaked at 32 MB and the sample
    # check (with its 400k-row acceptance test) at 41 MB
    assert _peak_mb(lambda: verify.check_df_grid_iss(ly_df, n=verify.GRID_N)) <= 12.0
    assert _peak_mb(lambda: verify.check_en_sample_decrease(ly_en, n=verify.N_SAMPLES)) <= 20.0


def test_band_size_leaves_bulk_checks_unchanged(monkeypatch, ly_df, ly_en):
    def run():
        return (verify.check_df_grid_iss(ly_df, n=verify.GRID_N),
                verify.check_en_sample_decrease(ly_en, n=verify.N_SAMPLES))

    default = run()
    monkeypatch.setattr(bands, "BAND_POINTS", 4_999)
    assert run() == default


def test_en_iss_pointwise(ly_en):
    res = verify.check_en_iss_pointwise(ly_en, n=4000, seed=1)
    assert res.passed
    assert res.samples > 0


def test_run_certification_df_small(p_df, lp_df, monkeypatch):
    monkeypatch.setattr(verify, "N_STARTS", 6)
    rep = verify.run_certification(lyap_df.DiseaseFreeLyapunov(p_df, lp_df), grid_n=15)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "df_grid_iss" in names and names.count("iss_bound") == 3


def test_report_json_and_table(ly_df, tmp_path):
    rep = verify.VerificationReport([verify.check_df_continuity(ly_df, n=100),
                                     verify.check_df_positive_definite(ly_df, n=100)])
    assert rep.passed
    path = tmp_path / "report.json"
    rep.save_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["passed"] is True
    assert len(loaded["checks"]) == 2
    table = rep.format_table()
    assert "df_continuity" in table and "True" in table


def test_iss_inputs_are_python_floats(ly_df, ly_en, monkeypatch):
    """numpy-scalar levels would run the ISS batch's float rows in numpy arithmetic."""
    for ly in (ly_df, ly_en):
        assert all(type(u) is float for u in ly.admissible_u())
    signals = []

    def record(lyap, sigs, t_end):
        signals.extend(sigs)
        return []

    monkeypatch.setattr(verify, "check_iss_bound", record)
    monkeypatch.setattr(verify, "check_trajectory_monotonicity",
                        lambda *args, **kwargs: verify.CheckResult("stub", True, 0.0))
    for ly in (ly_df, ly_en):
        assert type(ly.iss_magnitude()) is float
        verify.run_certification(ly, grid_n=5, n_samples=1000)
    assert len(signals) == 6
    for sig in signals:
        assert all(type(v) is float for v in dataclasses.astuple(sig)), sig


@pytest.mark.parametrize("name, expected", [
    ("ly_df", [("check_df_continuity", {"seed": 7}),
               ("check_df_positive_definite", {"seed": 7}),
               ("check_df_grid_iss", {"n": 9}),
               ("check_trajectory_monotonicity",
                {"n_starts": 3, "seed": 7, "final_tol": 1e-3})]),
    ("ly_en", [("check_condition_50", {}),
               ("check_en_continuity", {"seed": 7}),
               ("check_en_sample_decrease", {"n": 30_000, "seed": 7}),
               ("check_en_iss_pointwise", {"n": verify.N_POINTWISE, "seed": 7}),
               ("check_trajectory_monotonicity",
                {"n_starts": 3, "seed": 7, "final_tol": 1e-2}),
               ("check_sublevel_nesting", {"seed": 7})]),
])
def test_check_suite_order_and_call_time_lookup(request, monkeypatch, name, expected):
    """Each class lists its checks in report order and looks each one up, and
    the module sizes it reads, when the callable runs; no numerics run."""
    lyap = request.getfixturevalue(name)
    calls = []

    def recorder(check):
        def record(*args, **kwargs):
            calls.append((check, kwargs))
            if check == "check_condition_50":
                assert args == (lyap.p, lyap.lp)
                return lyap_en.Cond50Result(True, -0.0, 0.0, 2049)
            assert args == (lyap,)
            return verify.CheckResult(check, True, 0.0)
        return record

    suite = lyap.checks(7, 9, 30_000)
    for check in [n for n in dir(verify) if n.startswith("check_")]:
        monkeypatch.setattr(verify, check, recorder(check))
    monkeypatch.setattr(lyap_en, "check_condition_50", recorder("check_condition_50"))
    monkeypatch.setattr(verify, "N_STARTS", 3)
    results = [check() for check in suite]
    assert calls == expected
    assert all(isinstance(r, verify.CheckResult) for r in results)
    if name == "ly_en":
        assert results[0] == verify.CheckResult("condition_50", True, -0.0, 0.0, 2049)
