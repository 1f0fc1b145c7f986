import inspect
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import bands, flow, lyap_df, lyap_en, ode, verify
from sirlyap.errors import NoConvergence, RangeError, RegimeError


def _one_start(monkeypatch, ly, x0):
    """check_trajectory_monotonicity of `ly` starts its one row from the state x0."""
    monkeypatch.setattr(ly, "start_states", lambda n, seed: np.array([x0], dtype=float))


def test_dini_constant_at_equilibrium(monkeypatch, p_df, ly_df):
    _one_start(monkeypatch, ly_df, sl.disease_free_eq(p_df).as_array())
    res = verify.check_trajectory_monotonicity(ly_df, n_starts=1, t_end=50.0)
    assert res.passed and res.samples == 1
    assert res.details["max_final_dist"] == 0.0
    assert res.details["nonstrict_steps_above_1e-9"] == 0
    assert res.worst_location == 0.0  # no step started above V = 1e-6


def test_dini_one_row_trajectory(ly_df):
    # t_end = 0 records one row and no step: nothing was evaluated
    res = verify.check_trajectory_monotonicity(ly_df, n_starts=3, t_end=0.0, final_tol=1e9)
    assert not res.passed and res.samples == 0
    json.dumps(res.to_dict(), allow_nan=False)


def test_iss_bound_without_a_step_fails(ly_df, p_df):
    res, = verify.check_iss_bound(ly_df, [ode.Constant(p_df.b_hat)], t_end=0.0)
    assert not res.passed and res.samples == 0
    json.dumps(res.to_dict(), allow_nan=False)


def test_dini_decrease_df(monkeypatch, ly_df):
    _one_start(monkeypatch, ly_df, [80.0, 120.0, 40.0])
    res = verify.check_trajectory_monotonicity(ly_df, n_starts=1, t_end=800.0, final_tol=1.0)
    assert res.passed and res.details["nonstrict_steps_above_1e-9"] == 0
    assert res.worst_location > 0.0  # a step from V > 1e-6 was tested


def test_dini_decrease_endemic_boundary_crossing(monkeypatch, p_en, ly_en):
    # a spiral start crosses several region boundaries on its way in
    q = sl.endemic_eq(p_en)
    _one_start(monkeypatch, ly_en, [q.s + 150.0, q.i - 120.0, q.r - 50.0])
    res = verify.check_trajectory_monotonicity(ly_en, n_starts=1, t_end=800.0)
    assert res.passed and res.details["nonstrict_steps_above_1e-9"] == 0
    assert res.worst_location > 0.0


def test_iss_bound_zero_input(ly_df, p_df):
    res, = verify.check_iss_bound(ly_df, [ode.Constant(p_df.b_hat)],
                                  x0=sl.State(180.0, 20.0, 5.0))
    assert res.passed
    assert res.details["limsup_v"] <= 1e-6


def test_iss_bound_range_error(ly_en, p_en):
    lo, hi = ly_en.admissible_u()
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [ode.Constant(p_en.b_hat + hi + 0.5)], t_end=100.0)
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [ode.Step(20.0, p_en.b_hat, p_en.b_hat + hi + 0.1)],
                               t_end=100.0)


def test_iss_bound_range_error_shows_the_compared_values(ly_en, p_en):
    lo, hi = ly_en.admissible_u()
    with pytest.raises(RangeError) as err:
        verify.check_iss_bound(ly_en, [ode.Constant(p_en.b_hat + hi)])
    groups = re.fullmatch(r"input range \[(\S+), (\S+)\] outside \((\S+), (\S+)\)",
                          str(err.value)).groups()
    assert groups[0] == "0.0"  # no inward input, not -0
    assert [float(g) for g in groups] == [0.0, (p_en.b_hat + hi) - p_en.b_hat, lo, hi]
    assert float(groups[1]) != hi  # the sup of u that failed, above hi by rounding


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


def test_iss_bound_batch_range_error(ly_en, p_en):
    lo, hi = ly_en.admissible_u()
    signals = [ode.Constant(p_en.b_hat), ode.Constant(p_en.b_hat + hi + 0.5),
               ode.Constant(p_en.b_hat + 0.5 * hi)]
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, signals, t_end=100.0)


def test_iss_bound_domain_exit_range_error(ly_en, p_en, lp_en):
    # x2t starts above l_bar/(lambda2*(1-k)): the run leaves the endemic domain H,
    # which the observer reports at the end of the block holding the step
    assert 700.0 - sl.endemic_eq(p_en).i > lp_en.l_bar / (lp_en.lambda2 * (1.0 - lp_en.k))
    with pytest.raises(RangeError):
        verify.check_iss_bound(ly_en, [ode.Constant(p_en.b_hat)], t_end=100.0,
                               x0=sl.State(235.0, 700.0, 100.0))


def test_block_length_leaves_results_unchanged(monkeypatch, p_df, ly_en, p_en):
    signals = [ode.Step(12.0, p_en.b_hat, p_en.b_hat + u) for u in (-0.5, 1.0)]

    def run():
        traj = sl.integrate(p_df, sl.State(100.0, 50.0, 0.0), ode.Step(7.3, 3.0, 5.0), 40.0,
                            dt=0.05)
        return ([traj.times.tolist(), traj.states.tolist(), traj.inputs.tolist()],
                verify.check_trajectory_monotonicity(ly_en, n_starts=4, t_end=60.0,
                                                     final_tol=1e4),
                verify.check_iss_bound(ly_en, signals, t_end=60.0),
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


@pytest.mark.parametrize("which", [0, 1])
def test_en_continuity_checks_the_class_boundaries(monkeypatch, ly_en, which):
    # a straight (0) or curved (1) boundary 1e-6*(1+|x1t|) off where the
    # region formulas meet fails the check, on the boundaries it lies on
    original = lyap_en.EndemicLyapunov.boundaries

    def shifted(self, x2t):
        lines = list(original(self, x2t))
        lines[which] = lines[which] + 1e-6 * (1.0 + np.abs(lines[which]))
        return tuple(lines)

    monkeypatch.setattr(lyap_en.EndemicLyapunov, "boundaries", shifted)
    res = verify.check_en_continuity(ly_en, n_per_boundary=40)
    assert not res.passed and res.worst_location in (("A/B", "D/E"), ("B/C", "E/F"))[which]


def test_sample_decrease_checks_the_class_rate(monkeypatch, ly_en):
    # region A's rate scaled by 1.5 claims more decrease than grad V . f has
    original = lyap_en.EndemicLyapunov.decrease_rate

    def overstated(self, X):
        codes, rate = original(self, X)
        return codes, np.where(codes == 0, 1.5 * rate, rate)

    assert verify.check_en_sample_decrease(ly_en, n=5000).passed
    monkeypatch.setattr(lyap_en.EndemicLyapunov, "decrease_rate", overstated)
    assert not verify.check_en_sample_decrease(ly_en, n=5000).passed


def test_iss_pointwise_checks_the_class_rate(monkeypatch, p_en, lp_en, ly_en):
    # the same scaling of region A's ISS rate
    original = lyap_en.EndemicLyapunov.iss_decrease

    def overstated(self, X, u_values):
        hyps, rate = original(self, X, u_values)
        return hyps, np.where(lyap_en.en_region_terms(p_en, lp_en, X)[0] == 0, 1.5 * rate, rate)

    assert verify.check_en_iss_pointwise(ly_en, n=5000).passed
    monkeypatch.setattr(lyap_en.EndemicLyapunov, "iss_decrease", overstated)
    assert not verify.check_en_iss_pointwise(ly_en, n=5000).passed


def test_grid_iss_checks_the_class_hypothesis(monkeypatch, ly_df):
    # claiming every row for every u takes in states below chi(|u|), where
    # the certified decay does not hold
    original = lyap_df.DiseaseFreeLyapunov.iss_decrease

    def everywhere(self, X, u_values):
        return [np.ones(len(X), dtype=bool) for _ in u_values], original(self, X, u_values)[1]

    assert verify.check_df_grid_iss(ly_df, n=8).passed
    monkeypatch.setattr(lyap_df.DiseaseFreeLyapunov, "iss_decrease", everywhere)
    assert not verify.check_df_grid_iss(ly_df, n=8).passed


def test_sampled_claims_across_regimes():
    # seeded draws beyond the two reference scenarios, beta = 2e-4, gamma in
    # [0.01, 0.1] and mu in [0.005, 0.03]: endemic ones with R0 at 1.001-1.3
    # and 1.3-4 times the theorem threshold gamma/mu + 2 in turn, disease-free
    # ones with R0 in [0.05, 0.999] and mu0 at 0.5-0.999 times mu
    def model_params(gamma, mu, r0):
        return sl.ModelParams(2e-4, gamma, mu, r0 * mu * (gamma + mu) / 2e-4)

    for j in range(30):
        rng = np.random.default_rng(j)
        gamma, mu = rng.uniform(0.01, 0.1), rng.uniform(0.005, 0.03)
        lo, hi = (1.001, 1.3) if j % 2 == 0 else (1.3, 4.0)
        p = model_params(gamma, mu, rng.uniform(lo, hi) * (gamma / mu + 2.0))
        ly = lyap_en.EndemicLyapunov(p, lyap_en.select_en_params(p, l_bar=340.0))
        assert verify.check_en_sample_decrease(ly, n=2000, seed=j).passed, p
        assert verify.check_en_iss_pointwise(ly, n=2000, seed=j).passed, p
        assert verify.check_sublevel_nesting(ly, n=2000, seed=j).passed, p
    for j in range(30):
        rng = np.random.default_rng(j)
        gamma, mu = rng.uniform(0.01, 0.1), rng.uniform(0.005, 0.03)
        p = model_params(gamma, mu, rng.uniform(0.05, 0.999))
        lp = lyap_df.select_df_params(p, mu0=rng.uniform(0.5, 0.999) * mu)
        assert verify.check_df_grid_iss(lyap_df.DiseaseFreeLyapunov(p, lp), n=12).passed, (p, lp)


def _drawn_lyapunov(j: int, c: float = 40.0):
    """Draw j of `test_sampled_claims_across_regimes`' scheme on a clock c
    times faster (every rate, mu0 included, times c, as
    perfbench/workloads.time_scaled does): even j endemic, with R0 at
    1.001-1.3 and 1.3-4 times the theorem threshold in turn, odd j
    disease-free."""
    rng = np.random.default_rng(j)
    gamma, mu = rng.uniform(0.01, 0.1), rng.uniform(0.005, 0.03)
    if j % 2 == 0:
        lo, hi = (1.001, 1.3) if j % 4 == 0 else (1.3, 4.0)
        r0 = rng.uniform(lo, hi) * (gamma / mu + 2.0)
    else:
        r0 = rng.uniform(0.05, 0.999)
    p = sl.ModelParams(c * 2e-4, c * gamma, c * mu, c * r0 * mu * (gamma + mu) / 2e-4)
    if j % 2 == 0:
        return lyap_en.EndemicLyapunov(p, lyap_en.select_en_params(p, l_bar=340.0))
    lp = lyap_df.select_df_params(p, mu0=c * rng.uniform(0.5, 0.999) * mu)
    return lyap_df.DiseaseFreeLyapunov(p, lp)


@pytest.mark.parametrize("j", range(8))
def test_drawn_scenarios_certify_with_their_trajectory_checks(j):
    # the whole certify suite, trajectory checks included, beyond the two
    # reference scenarios
    report = verify.run_certification(_drawn_lyapunov(j), seed=j, grid_n=8, n_samples=500)
    assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
    assert any(c.name.startswith("trajectory_monotonicity") for c in report.checks)


def test_threshold_bands_refuse_both_constructions():
    # R0 = 1 - 5e-13 on the x40 clock and R0 one ulp above gamma/mu + 2 lie
    # inside their threshold's band: neither construction, so no certificate
    c, gamma, mu = 40.0, 0.032, 0.015
    p = sl.ModelParams(c * 2e-4, c * gamma, c * mu, c * (1.0 - 5e-13) * mu * (gamma + mu) / 2e-4)
    assert sl.classify_regime(p) is sl.Regime.BOUNDARY
    with pytest.raises(RegimeError):
        lyap_df.select_df_params(p)
    gamma, mu = 0.02, 0.016921266814305353
    p = sl.ModelParams(2e-4, gamma, mu, (gamma / mu + 2.0) * mu * (gamma + mu) / 2e-4)
    assert sl.classify_regime(p) is sl.Regime.ENDEMIC_EXISTS
    with pytest.raises(RegimeError):
        lyap_en.select_en_params(p, l_bar=340.0)


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


def test_bifurcation_extinction(p_en):
    # without newborns every row dies out: the c = 0 row ends within 1e-5 of
    # the origin, its closed form
    res = verify.check_bifurcation_continuity(p_en, c_values=np.array([0.0, 1.0]))
    assert res.passed
    assert res.details["max_formula_error"] < 1e-5


def test_bifurcation_both_branches(p_en):
    # c = 3 lies below the threshold c* = 3.525 and c = 17 above it: each row
    # settles on its own closed-form branch
    assert sl.r0_hat(sl.ModelParams(p_en.beta, p_en.gamma, p_en.mu, 3.0)) < 1.0 < sl.r0_hat(p_en)
    res = verify.check_bifurcation_continuity(p_en, c_values=np.array([3.0, 17.0]))
    assert res.passed and res.samples == 2
    assert res.details["max_formula_error"] < 5e-2


def test_bifurcation_without_a_steady_state(monkeypatch, p_en):
    # an integrator that never moves leaves every residual where it starts
    monkeypatch.setattr(ode, "integrate_batch", lambda p, X, signals, t_end, dt: X)
    with pytest.raises(NoConvergence, match="t=4e4"):
        verify.check_bifurcation_continuity(p_en, c_values=np.array([3.0, 17.0]))


def test_nesting_small(ly_en):
    res = verify.check_sublevel_nesting(ly_en, n=2000)
    assert res.passed
    assert res.worst_margin == 0.0
    # the pairs default to the function's own constants and their halves
    assert res.details["lam_hat2_pairs"] == [[0.005, 0.01]]
    assert res.details["k_pairs"] == [[0.0451, 0.0902]] and "skipped_pairs" not in res.details


def test_nesting_skips_a_pair_that_fails_condition_50(ly_en):
    # lambda_hat2 = 0.5 breaks (50) on the reference scenario: the pair is
    # listed, not tested, and no regime error is raised
    pairs = ((0.005, 0.01), (0.01, 0.5))
    res = verify.check_sublevel_nesting(ly_en, lam_hat2_pairs=pairs, n=2000)
    assert not lyap_en.check_condition_50(ly_en.p, ly_en.lp.replace(lambda_hat2=0.5)).passed
    assert res.passed and res.details["skipped_pairs"] == {"lambda_hat2": [[0.01, 0.5]]}
    assert res.samples == verify.check_sublevel_nesting(ly_en, n=2000).samples
    res = verify.check_sublevel_nesting(ly_en, lam_hat2_pairs=pairs[1:], k_pairs=(), n=2000)
    assert not res.passed and res.samples == 0


def test_w_region(ly_en):
    res = verify.check_w_region(ly_en, n_starts=6, seed=2)
    assert res.passed
    assert res.details["all_entered"]
    assert np.isfinite(res.details["max_entry_time"])


def test_w_region_without_a_step_fails(ly_en):
    # t_end = 0 records the starts and no step: nothing was evaluated
    res = verify.check_w_region(ly_en, n_starts=1, t_end=0.0)
    assert not res.passed and res.samples == 0
    _standard_json(res)


@pytest.mark.parametrize("n", [0, 1])
def test_bifurcation_needs_two_c_values(monkeypatch, p_df, n):
    def integrate_batch(*args, **kwargs):
        raise AssertionError("integrated too few c_values")

    monkeypatch.setattr(ode, "integrate_batch", integrate_batch)
    with pytest.raises(ValueError, match="at least two c_values"):
        verify.check_bifurcation_continuity(p_df, c_values=np.linspace(0.01, 0.02, n))


def test_separability_demo(p_en):
    res = verify.separability_obstruction_demo(p_en)
    assert res.passed
    assert res.details["required_sign_upper"] == 1
    assert res.details["required_sign_lower"] == -1
    assert abs(res.details["dx2dt_on_plane"]) < 1e-12
    assert res.details["anti_parallel_vanishes_at_x2hat"]


def test_separability_demo_below_an_x2h_of_60(p_en):
    # at b_hat = 5.1 the endemic x2h is 33.5: x2h - 60 would leave the
    # orthant, so the test points sit at x2h +- x2h/2
    p = sl.ModelParams(p_en.beta, p_en.gamma, p_en.mu, 5.1)
    x2h = sl.endemic_eq(p).i
    res = verify.separability_obstruction_demo(p)
    assert res.passed and res.worst_margin > 0.5
    assert res.details["required_sign_upper"] == 1
    assert res.details["required_sign_lower"] == -1
    assert res.worst_location[1] == x2h + x2h / 2


def test_prohibited_region_demo(p_en):
    res = verify.prohibited_region_demo(p_en, l_bars=(340.0, 1000.0), t_end=2500.0)
    assert res.passed
    assert res.details["excluded_for_all_l_bars"]
    assert res.details["min_distance_to_disease_free"] < 550.0


@pytest.mark.parametrize("band_points", [None, 7])
def test_grid_check_pinned(monkeypatch, ly_df, band_points):
    # the exact worst point and count of the 8x8x8 grid, in one slab by
    # default and in one slab per first-axis value at 7
    if band_points is not None:
        monkeypatch.setattr(bands, "BAND_POINTS", band_points)
    res = verify.check_df_grid_iss(ly_df, n=8)
    assert (res.worst_margin, res.worst_location, res.samples) == (
        0.29805292061907146, [28.571428571428584, 0.0, 0.0, 0.0], 512)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_bulk_checks_hold_bounded_memory(ly_df, ly_en):
    # evaluated all at once, the grid check peaked at 32 MB and the sample
    # check (with its 400k-row acceptance test) at 41 MB; in bands of 16,384
    # points they peak at 2.1 and 4.7 MB, bounded with about 1 MB to spare
    assert _peak_mb(lambda: verify.check_df_grid_iss(ly_df, n=verify.GRID_N)) <= 3.0
    assert _peak_mb(lambda: verify.check_en_sample_decrease(ly_en, n=verify.N_SAMPLES)) <= 6.0


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


def _standard_json(result) -> dict:
    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")

    return json.loads(json.dumps(result.to_dict()), parse_constant=refuse)


def test_checks_without_samples_fail(ly_en, monkeypatch):
    # one sample at seed 0 meets no ISS hypothesis: nothing is evaluated
    res = verify.check_en_iss_pointwise(ly_en, n=1, seed=0)
    assert res.samples == 0 and res.passed is False
    assert _standard_json(res)["worst_margin"] is None
    # every sampled row in the boundary band
    monkeypatch.setattr(lyap_en.EndemicLyapunov, "near_boundary",
                        lambda self, X: np.ones(len(X), dtype=bool))
    res = verify.check_en_sample_decrease(ly_en, n=50)
    assert res.samples == 0 and res.passed is False
    assert _standard_json(res)["details"]["max_grad_dot_f"] is None


#: each check given a size of 0: the fixture it runs on and its arguments
ZERO_SAMPLES = {
    "check_df_continuity": ("ly_df", {"n": 0}),
    "check_df_positive_definite": ("ly_df", {"n": 0}),
    "check_en_continuity": ("ly_en", {"n_per_boundary": 0}),
    "check_trajectory_monotonicity": ("ly_en", {"n_starts": 0, "t_end": 5.0}),
    "check_sublevel_nesting": ("ly_en", {"n": 0}),
    "check_w_region": ("ly_en", {"n_starts": 0, "t_end": 5.0}),
}


@pytest.mark.parametrize("name", ZERO_SAMPLES)
def test_check_of_zero_samples_fails(request, name):
    fixture, kwargs = ZERO_SAMPLES[name]
    res = getattr(verify, name)(request.getfixturevalue(fixture), **kwargs)
    assert res.samples == 0 and res.passed is False
    _standard_json(res)


def _short_certification(monkeypatch, lyap) -> tuple:
    """run_certification of `lyap` at small sizes over a 60-unit horizon, and
    the rows of each integrate_batch call it made."""
    monkeypatch.setattr(verify, "_horizon", lambda *args: (60.0, False))
    integrate_batch, batches = ode.integrate_batch, []

    def counted(p, X0, *args, **kwargs):
        batches.append(len(X0))
        return integrate_batch(p, X0, *args, **kwargs)

    monkeypatch.setattr(ode, "integrate_batch", counted)
    return verify.run_certification(lyap, grid_n=5, n_samples=1000), batches


@pytest.mark.parametrize("name", ["ly_df", "ly_en"])
def test_run_certification_integrates_once(request, monkeypatch, name):
    # the 50 nominal rows and the three ISS rows step as one batch, whose
    # iss_bound results are those of the three signals run alone, bit for bit
    lyap = request.getfixturevalue(name)
    report, batches = _short_certification(monkeypatch, lyap)
    assert batches == [53]
    merged = [c.to_dict() for c in report.checks[-3:]]
    signals = [ode.signal_from_dict(c["details"]["signal"]) for c in merged]
    assert merged == [c.to_dict() for c in verify.check_iss_bound(lyap, signals)]
    assert [c["details"]["signal"] for c in merged] == list(map(ode.signal_to_dict, signals))
    mono, = [c for c in report.checks if c.name.startswith("trajectory_monotonicity")]
    assert mono.details["batch_rows"] == 53 and mono.details["rk4_steps"] == 1200


@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("name", ["ly_df", "ly_en"])
def test_merged_monotonicity_matches_standalone(request, monkeypatch, name, anchored):
    # with signals free of breakpoints the nominal rows keep their step grid;
    # nominal rows that start at the anchor stay nearer to it than the ISS rows
    lyap = request.getfixturevalue(name)
    if anchored:
        anchor = lyap.equilibrium.as_array()
        monkeypatch.setattr(lyap, "start_states", lambda n, seed: np.tile(anchor, (n, 1)))
    monkeypatch.setattr(verify, "builtin_signal_suite", lambda p, u, t_end: [
        ode.Constant(p.b_hat + u), ode.Sinusoid(p.b_hat, u, 2.0 * math.pi / 7.5)])
    report, batches = _short_certification(monkeypatch, lyap)
    assert batches == [verify.N_STARTS + 2]
    merged, = [c.to_dict() for c in report.checks if c.name.startswith("trajectory_monotonicity")]
    alone = verify.check_trajectory_monotonicity(
        lyap, t_end=60.0, final_tol=merged["details"]["final_tol"]).to_dict()
    assert merged["details"].pop("batch_rows") == verify.N_STARTS + 2
    assert alone["details"].pop("batch_rows") == verify.N_STARTS
    assert merged == alone and merged["details"]["rk4_steps"] == 1200


def _jacobian_rate(p, q) -> float:
    """The slowest decay rate at the state q: -max Re of the eigenvalues of
    the vector field's Jacobian there."""
    b, g, mu = p.beta, p.gamma, p.mu
    J = [[-b * q.i - mu, -b * q.s, 0.0], [b * q.i, b * q.s - g - mu, 0.0], [0.0, g, -mu]]
    return float(-np.linalg.eigvals(J).real.max())


@pytest.mark.parametrize("b_hat", [3.0, 8.0, 17.0, 80.0])  # R0 0.85, 2.3, 4.8 and 23
def test_slowest_rate_is_the_jacobian_one(b_hat):
    # both endemic branches: complex (S, I) roots at R0 4.8, real ones at 23
    p = sl.ModelParams(beta=0.0002, gamma=0.032, mu=0.015, b_hat=b_hat)
    df = sl.model.r0_hat(p) < 1.0
    kind = sl.EquilibriumKind.DISEASE_FREE if df else sl.EquilibriumKind.ENDEMIC
    q = (sl.model.disease_free_eq if df else sl.model.endemic_eq)(p)
    lyap = type("Anchor", (), {"p": p, "kind": kind})
    assert verify._slowest_rate(lyap) == pytest.approx(_jacobian_rate(p, q), rel=1e-9)


def test_horizon_from_the_linearisation(monkeypatch, ly_df, ly_en):
    # the reference scenarios keep 50 mean lifetimes; a tighter tolerance
    # lengthens the horizon, up to 20 times that, and past it the cap binds
    for ly, tol in ((ly_df, 1e-3), (ly_en, 1e-2)):
        floor, starts = 50.0 / ly.p.mu, ly.start_states(verify.N_STARTS, bands.DEFAULT_SEED)
        assert verify._horizon(ly, starts, tol) == (floor, False)
        assert verify._horizon(ly, starts[:0], 0.0) == (floor, False)
        assert verify._horizon(ly, starts, 1e-300) == (20.0 * floor, True)
        d0 = np.abs(starts - ly.equilibrium.as_array()).sum(axis=1).max()
        t_end, capped = verify._horizon(ly, starts, 1e-20)  # between the floor and the cap
        assert t_end == 1.5 * math.log(d0 / 1e-20) / verify._slowest_rate(ly) and not capped
        assert floor < t_end < 20.0 * floor
    for capped in (False, True):
        monkeypatch.setattr(verify, "_horizon", lambda *args: (5.0, capped))
        res = verify.check_trajectory_monotonicity(ly_en, n_starts=2)
        assert res.details["t_end"] == 5.0 and res.details.get("horizon_capped", False) is capped
        explicit = verify.check_trajectory_monotonicity(ly_en, n_starts=2, t_end=5.0)
        assert "horizon_capped" not in explicit.details


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


def test_check_details_hold_numpy_values():
    # numpy scalars become Python ones and arrays nested lists, a non-finite
    # entry of either None
    details = {"count": np.int64(7), "rate": np.float64(0.25), "cap": np.float32(np.inf),
               "grid": np.array([[1.0, np.nan], [2.0, 3.0]]), "pair": (np.int8(1), 2.0)}
    out = verify.CheckResult("probe", True, 1.0, details=details).to_dict()["details"]
    assert out == {"count": 7, "rate": 0.25, "cap": None, "grid": [[1.0, None], [2.0, 3.0]],
                   "pair": [1, 2.0]}
    assert [type(out[k]) for k in ("count", "rate")] == [int, float]
    json.dumps(out, allow_nan=False)


def test_failed_report_rewrite_leaves_the_earlier_file(tmp_path):
    path = tmp_path / "report.json"
    verify.VerificationReport([verify.CheckResult("a", True, 1.0)]).save_json(path)
    earlier = path.read_bytes()
    unwritable = verify.CheckResult("b", True, 1.0, details={"x": object()})
    with pytest.raises(TypeError):
        verify.VerificationReport([unwritable]).save_json(path)
    assert path.read_bytes() == earlier and [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_iss_inputs_are_python_floats(ly_df, ly_en, monkeypatch):
    """Certify's ISS signals hold Python floats, as the input ranges do; their
    rows step in the 53-row stacked batch after the nominal ones."""
    for ly in (ly_df, ly_en):
        assert all(type(u) is float for u in ly.admissible_u())
    signals = []

    def record(lyap, starts, final_tol, sigs, t_end, x0):
        signals.extend(sigs)
        return verify.CheckResult("stub", True, 0.0), []

    monkeypatch.setattr(verify, "_trajectory_checks", record)
    for ly in (ly_df, ly_en):
        verify.run_certification(ly, grid_n=5, n_samples=1000)
    assert len(signals) == 6
    for sig in signals:
        assert all(type(v) is float for v in sig.as_dict().values()), sig


@pytest.mark.parametrize("name, expected", [
    ("ly_df", [("check_df_continuity", {"seed": 7}),
               ("check_df_positive_definite", {"seed": 7}),
               ("check_df_grid_iss", {"n": 9}),
               ("_trajectory_checks", {"n_starts": 3, "seed": 7, "final_tol": 1e-3})]),
    ("ly_en", [("check_condition_50", {}),
               ("check_en_continuity", {"seed": 7}),
               ("check_en_sample_decrease", {"n": 30_000, "seed": 7}),
               ("check_en_iss_pointwise", {"n": verify.N_POINTWISE, "seed": 7}),
               ("_trajectory_checks", {"n_starts": 3, "seed": 7, "final_tol": 1e-2}),
               ("check_sublevel_nesting", {"seed": 7})]),
])
def test_check_suite_order_and_call_time_lookup(request, monkeypatch, name, expected):
    """run_certification runs the suite of `lyap.kind` in report order and
    looks each check up, and the module sizes it reads, when it runs; no
    numerics run."""
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

    def trajectory_checks(ly, starts, final_tol, signals, t_end, x0):
        # `starts` is what the stubbed start_states returned
        assert ly is lyap and len(signals) == 3 and (t_end, x0) == (None, None)
        n_starts, seed = starts
        calls.append(("_trajectory_checks",
                       {"n_starts": n_starts, "seed": seed, "final_tol": final_tol}))
        return (verify.CheckResult("trajectory_monotonicity", True, 0.0),
                [verify.CheckResult("iss_bound", True, 0.0) for _ in signals])

    for check in [n for n in dir(verify) if n.startswith("check_")]:
        monkeypatch.setattr(verify, check, recorder(check))
    monkeypatch.setattr(lyap_en, "check_condition_50", recorder("check_condition_50"))
    monkeypatch.setattr(verify, "_trajectory_checks", trajectory_checks)
    monkeypatch.setattr(lyap, "start_states", lambda n, seed: (n, seed))
    monkeypatch.setattr(verify, "_horizon", lambda ly, starts, final_tol: (60.0, False))
    monkeypatch.setattr(verify, "N_STARTS", 3)
    results = verify.run_certification(lyap, seed=7, grid_n=9, n_samples=30_000).checks
    assert calls == expected
    assert all(isinstance(r, verify.CheckResult) for r in results)
    renamed = {"check_condition_50": "condition_50",
               "_trajectory_checks": "trajectory_monotonicity"}
    assert [r.name for r in results] == [renamed.get(c, c) for c, _ in expected] + ["iss_bound"] * 3
    if name == "ly_en":
        assert results[0] == verify.CheckResult("condition_50", True, -0.0, 0.0, 2049)


def test_readme_names_every_check():
    """The README's sentence "The checks are ..." names exactly the public
    check_* functions defined in verify, each with its parameters."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme[readme.index("The checks are"):]
    sentence = sentence[:sentence.index(";")]
    named = re.findall(r"`(\w+)\(([^)]*)\)`", sentence)
    defined = {name: obj for name, obj in vars(verify).items()
               if name.startswith("check_") and getattr(obj, "__module__", None) == verify.__name__}
    assert sorted(name for name, _ in named) == sorted(defined)
    for name, params in named:
        assert params.split(", ") == list(inspect.signature(defined[name]).parameters), name


@pytest.mark.parametrize("half, name", [(0, "ly_df"), (1, "ly_en")])
def test_readme_names_each_suite_in_report_order(request, monkeypatch, half, name):
    """The README's sentence "The disease-free suite is ...; the endemic one
    is ..." names the checks of each certify report in order."""
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sentence = readme[readme.index("The disease-free suite is"):]
    sentence = sentence[:re.search(r"\.\s", sentence).start()]
    named = [check for three, check in re.findall(r"(three )?`(\w+)`", sentence.split(";")[half])
             for _ in range(3 if three else 1)]
    report, _ = _short_certification(monkeypatch, request.getfixturevalue(name))
    assert named == [c.name for c in report.checks]
