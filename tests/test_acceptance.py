"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; total runtime is about 25 s on a 2-vCPU VM.
"""
import numpy as np
import pytest

import sirlyap as sl
from sirlyap import levelset, lyap_df, lyap_en, ode, verify

SEED = verify.DEFAULT_SEED


def _report(num, desc, passed, info=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{tag}] {desc}{': ' + info if info else ''}")
    assert passed, f"criterion {num} failed: {desc} {info}"


def test_criterion_01_r0_reproduction(p_df, p_en):
    r_df = sl.r0_hat(p_df)
    r_en = sl.r0_hat(p_en)
    thresh = p_en.gamma / p_en.mu + 2.0
    ok = (abs(r_df - 0.851) <= 5e-4 * 0.851
          and abs(r_en - 4.82271) <= 1e-5 * 4.82271
          and abs(thresh - 4.1333) <= 1e-4 * 4.1333)
    _report(1, "reproduction-number values", ok,
            f"R0={r_df:.6f}/{r_en:.6f}, gamma/mu+2={thresh:.5f}")


def test_criterion_02_feasibility_witness(p_en, lp_en):
    k0 = lyap_en.k0_bound(p_en, lp_en.l_bar)
    margin_41 = k0 - lp_en.k
    terms = lyap_en.lambda3_bound_terms(p_en, lp_en)
    margin_42 = min(terms)
    res50 = lyap_en.check_condition_50(p_en, lp_en)
    L = np.linspace(lp_en.l_bar / 2048.0, lp_en.l_bar, 2048)
    s = L / lp_en.lam0
    interior = lyap_en.theta_inv(p_en, -s) - lyap_en.nu_fun(p_en, lp_en, s)
    # both sides vanish identically at L = 0; every positive budget must
    # clear the corner strictly
    ok = (margin_41 > 0.0 and margin_42 > 0.0 and res50.passed
          and abs(res50.worst_margin) <= 1e-12 and np.all(interior > 0.0))
    _report(2, "reference feasibility witness", ok,
            f"k0-k={margin_41:.4f}, lambda3 ceiling={margin_42:.3e}, "
            f"min interior (50) margin={interior.min():.3e}")


def test_criterion_03_df_certification(ly_df):
    grid = verify.check_df_grid_iss(ly_df, n=60)
    cont = verify.check_df_continuity(ly_df, n=1000, seed=SEED)
    ok = grid.passed and cont.passed
    _report(3, "disease-free grid certification", ok,
            f"grid margin={grid.worst_margin:.3e} on {grid.samples} checks, "
            f"continuity residual={-cont.worst_margin:.3e}")


def test_criterion_04_endemic_certification(ly_en):
    dec = verify.check_en_sample_decrease(ly_en, n=100_000, seed=SEED)
    cont = verify.check_en_continuity(ly_en, n_per_boundary=200, seed=SEED)
    ok = dec.passed and cont.passed
    _report(4, "endemic sampled certification", ok,
            f"decrease margin={dec.worst_margin:.3e} on {dec.samples} points "
            f"(max grad.f={dec.details['max_grad_dot_f']:.3e}), "
            f"continuity residual={-cont.worst_margin:.3e}")


def test_criterion_05_trajectory_monotonicity(ly_df, ly_en):
    df = verify.check_trajectory_monotonicity(ly_df, n_starts=50, seed=SEED,
                                              final_tol=1e-3)
    en = verify.check_trajectory_monotonicity(ly_en, n_starts=50, seed=SEED,
                                              final_tol=1e-2)
    ok = df.passed and en.passed
    _report(5, "trajectory monotone decrease and convergence", ok,
            f"df final dist={df.details['max_final_dist']:.2e}, "
            f"en final dist={en.details['max_final_dist']:.2e}")


def _iss_steps(ly, u_steps):
    """check_iss_bound from the anchor under steps b_hat -> b_hat + u at 20 % of 50/mu."""
    t_end = 50.0 / ly.p.mu
    b_hat = ly.p.b_hat
    return verify.check_iss_bound(ly, [ode.Step(0.2 * t_end, b_hat, b_hat + u) for u in u_steps])


def test_criterion_06_iss_bounds(ly_df, ly_en, p_df):
    scale = p_df.b_hat / 10.0
    u_steps = [f * scale for f in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    df = _iss_steps(ly_df, u_steps)
    lims = {u: r.details["limsup_v"] for u, r in zip(u_steps, df)}
    linear = all(
        lims[2.0 * s * c] <= 2.0 * ly_df.chi(abs(c)) * 1.001
        for c in (0.5 * scale, 1.0 * scale) for s in (1.0, -1.0))
    lo, hi = ly_en.admissible_u()
    en = _iss_steps(ly_en, [-1.1, -0.5, 0.5, 1.0, 2.0, 2.45])
    point = verify.check_en_iss_pointwise(ly_en, n=20_000, seed=SEED)
    ok = all(r.passed for r in df) and linear and all(r.passed for r in en) \
        and all(r.details["forward_invariant"] for r in en) and point.passed
    _report(6, "ISS gain bounds (df steps + linearity; endemic invariance)", ok,
            f"df worst margin={min(r.worst_margin for r in df):.3g}, "
            f"en worst margin={min(r.worst_margin for r in en):.3g}, "
            f"pointwise margin={point.worst_margin:.3e}, range=({lo:.3f},{hi:.3f})")


def test_criterion_07_nesting(ly_en):
    res = verify.check_sublevel_nesting(
        ly_en, lam_hat2_pairs=((0.005, 0.01), (0.002, 0.008)),
        k_pairs=((0.05, 0.0902), (0.03, 0.09)), n=10_000, seed=SEED)
    _report(7, "sublevel-set nesting", res.passed,
            f"violations={-res.worst_margin:.0f} over {res.samples} memberships")


def test_criterion_08_bifurcation_continuity(p_df):
    c_star = p_df.mu * (p_df.gamma + p_df.mu) / p_df.beta
    res = verify.check_bifurcation_continuity(
        p_df, c_values=np.linspace(0.71 * c_star, 1.30 * c_star, 21))
    ok = res.passed and res.details["limit_gap_at_threshold"] <= 1e-3
    _report(8, "steady-state continuity across the threshold", ok,
            f"max formula error={res.details['max_formula_error']:.3e}, "
            f"limit gap={res.details['limit_gap_at_threshold']:.2e}, "
            f"K={res.details['lipschitz_estimate']:.4g}")


def test_criterion_09_obstruction_demos(p_en):
    sep = verify.separability_obstruction_demo(p_en)
    pro = verify.prohibited_region_demo(p_en, l_bars=(340.0, 1e3, 3e3, 1e4))
    ok = (sep.passed and sep.details["required_sign_upper"] == 1
          and sep.details["required_sign_lower"] == -1
          and pro.passed and pro.details["excluded_for_all_l_bars"])
    _report(9, "separability and prohibited-region demonstrations", ok,
            f"sign margin={sep.worst_margin:.3g}, "
            f"closest pass to x_f={pro.details['min_distance_to_disease_free']:.1f}")


def test_criterion_10_level_sets(p_df, lp_df_ref, ly_en, p_en, lp_en):
    ly = lyap_df.DiseaseFreeLyapunov(p_df, lp_df_ref)
    window = ((-200.0, 600.0), (0.0, 620.0))
    res = (800, 800)
    cell = np.hypot((window[0][1] - window[0][0]) / (res[0] - 1),
                    (window[1][1] - window[1][0]) / (res[1] - 1))
    levels = [10.0, 30.0, 60.0, 100.0, 180.0, 260.0, 340.0, 420.0, 500.0]
    conts = levelset.extract_contours(ly, levels, window=window, resolution=res)
    worst = 0.0
    for cont in conts:
        oracle = levelset.analytic_contour_df(lp_df_ref, p_df, cont.level)
        assert cont.polylines
        for poly in cont.polylines:
            worst = max(worst, float(levelset.polyline_distance(poly, oracle.polylines[0]).max()))
    df_ok = worst <= 2.0 * cell

    window_e = ((-200.0, 420.0), (-260.0, 440.0))
    res_e = (800, 800)
    cell_e = np.hypot((window_e[0][1] - window_e[0][0]) / (res_e[0] - 1),
                      (window_e[1][1] - window_e[1][0]) / (res_e[1] - 1))
    lev_e = [20.0, 100.0, 180.0, 260.0, 340.0]
    conts_e = levelset.extract_contours(ly_en, lev_e, window=window_e, resolution=res_e)
    closed = all(len(c.polylines) == 1
                 and np.linalg.norm(np.asarray(c.polylines[0][0])
                                    - np.asarray(c.polylines[0][-1])) <= cell_e
                 for c in conts_e)
    nested = all(levelset.polygon_contains(b.polylines[0], a.polylines[0]).all()
                 for a, b in zip(conts_e[:-1], conts_e[1:]))
    ok = df_ok and closed and nested
    _report(10, "level-set extraction vs oracle; closed nested endemic loops", ok,
            f"df worst oracle distance={worst:.3f} (cell {cell:.3f}), "
            f"endemic loops closed={closed}, nested={nested}")
