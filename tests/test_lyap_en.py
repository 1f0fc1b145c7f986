import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sirlyap as sl
from sirlyap import lyap_en, model, verify
from sirlyap.errors import (DomainError, InfeasibleOverride, NoConvergence, OnBoundary,
                            OutOfH, RegimeError)
from sirlyap.model import Deviation, Regime

X1H = 235.0
X2H = 286.7021276595745


def test_theta_and_inverse(p_en, lp_en):
    assert lyap_en.theta(p_en, 0.0) == 0.0
    assert lyap_en.theta_inv(p_en, 0.0) == 0.0
    assert lyap_en.theta(p_en, X1H) == pytest.approx(X2H / 2.0, rel=1e-12)
    rng = np.random.default_rng(2)
    s = rng.uniform(-X1H * 0.999, 5000.0, 1000)
    back = lyap_en.theta_inv(p_en, lyap_en.theta(p_en, s))
    assert np.all(np.abs(back - s) <= 1e-12 * (1.0 + np.abs(s)))
    with pytest.raises(DomainError):
        lyap_en.theta(p_en, -X1H)
    with pytest.raises(DomainError):
        lyap_en.theta_inv(p_en, X2H)


def test_omega_and_inverse(p_en, lp_en):
    assert lyap_en.omega(p_en, lp_en, 0.0) == 0.0
    assert lyap_en.omega_inv(p_en, lp_en, 0.0) == 0.0
    for v in (-1000.0, -1.0, 1.0, 1000.0):
        w = lyap_en.omega(p_en, lp_en, lyap_en.omega_inv(p_en, lp_en, v))
        assert w == pytest.approx(v, rel=1e-10)
    s = np.linspace(-X1H * 0.99, 3000.0, 500)
    w = lyap_en.omega(p_en, lp_en, s)
    assert np.all(np.diff(w) > 0.0)
    # toward the pole the roots stay inside (-x1h, 0) and keep decreasing
    roots = lyap_en.omega_inv(p_en, lp_en, -10.0 ** np.arange(16))
    assert np.all((roots > -X1H) & (roots < 0.0))
    assert np.all(np.diff(roots) < 0.0)


def test_omega_inv_against_quadratic_formula(p_en, lp_en):
    # omega(s) = v reduces to a quadratic in s; the textbook formula for its
    # larger root is an oracle for the cancellation-free branch in omega_inv
    rng = np.random.default_rng(3)
    v = rng.uniform(-5000.0, 5000.0, 2000)
    a = lp_en.lambda1 * X1H
    c = lp_en.lambda_hat2 * X2H
    b = a + c - v
    s_oracle = (-b + np.sqrt(b * b + 4.0 * lp_en.lambda1 * X1H * v)) / (2.0 * lp_en.lambda1)
    s_num = lyap_en.omega_inv(p_en, lp_en, v)
    assert np.abs(s_num - s_oracle).max() <= 1e-10 * (1.0 + np.abs(s_oracle)).max()


def test_p_and_inverse(p_en, lp_en):
    assert lyap_en.p_fun(p_en, lp_en, 0.0) == 0.0
    assert lyap_en.p_inv(p_en, lp_en, 0.0) == 0.0
    rng = np.random.default_rng(4)
    s = rng.uniform(-X1H * 0.9, 4000.0, 1000)
    back = lyap_en.p_inv(p_en, lp_en, lyap_en.p_fun(p_en, lp_en, s))
    assert np.all(np.abs(back - s) <= 1e-9 * (1.0 + np.abs(s)))
    # derivative of the inverse stays above its closed-form floor
    w = rng.uniform(-500.0, lp_en.lam0 * X2H * 0.999, 500)
    dp = lyap_en.p_inv_prime(p_en, lp_en, w)
    assert np.all(dp > lp_en.lambda_hat2 / lp_en.lam0)
    h = 1e-5
    fd = (lyap_en.p_inv(p_en, lp_en, w + h) - lyap_en.p_inv(p_en, lp_en, w - h)) / (2 * h)
    assert np.abs(fd - dp).max() <= 1e-4 * (1.0 + np.abs(dp).max())
    with pytest.raises(DomainError):
        lyap_en.p_inv(p_en, lp_en, lp_en.lam0 * X2H)
    # the inverse blows up toward the domain edge
    assert lyap_en.p_inv(p_en, lp_en, lp_en.lam0 * X2H * (1.0 - 1e-9)) > 1e8


def test_nu(p_en, lp_en):
    assert lyap_en.nu_fun(p_en, lp_en, 0.0) == 0.0
    rng = np.random.default_rng(5)
    x2 = rng.uniform(0.0, lp_en.l_bar / lp_en.lam0, 100)
    x1 = lyap_en.nu_fun(p_en, lp_en, x2)
    left = lyap_en.p_inv(p_en, lp_en, -lp_en.lambda1 * x1 + lp_en.lambda_hat2 * x2)
    right = lp_en.lam0 * x2
    assert np.abs(left - right).max() <= 1e-9 * (1.0 + np.abs(right).max())
    # the curve stays left of the hyperbola branch on the certified range
    assert np.all(x1 <= lyap_en.theta_inv(p_en, -x2) + 1e-9)


def test_k0_bound(p_en, p_df, lp_en):
    k0 = lyap_en.k0_bound(p_en, 340.0)
    r0 = sl.r0_hat(p_en)
    term1 = 1.0 - (p_en.gamma + p_en.mu) / (p_en.mu * (r0 - 1.0))
    assert term1 == pytest.approx(0.180335, abs=5e-6)
    assert 0.0 < k0 <= term1
    assert lp_en.k < k0
    # numeric limit of the second expression as the budget vanishes:
    # lambda2*theta_inv(-L/lambda2) / (lambda1*theta_inv(-L/lambda2) - L)
    # tends to x1h/(x1h + x2h), so the first expression governs small budgets
    for l_bar in (1e-3, 1e-5):
        ti = lyap_en.theta_inv(p_en, -l_bar)
        term2 = ti / (ti - l_bar)
        assert term2 == pytest.approx(X1H / (X1H + X2H), rel=1e-4)
        assert lyap_en.k0_bound(p_en, l_bar) == pytest.approx(term1, rel=1e-12)
    with pytest.raises(RegimeError):
        lyap_en.k0_bound(p_df, 340.0)


def test_k0_monotone_in_budget(p_en):
    ks = [lyap_en.k0_bound(p_en, lb) for lb in (100.0, 200.0, 400.0, 800.0, 1600.0)]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


def test_lambda3_bound(p_en, lp_en):
    terms = lyap_en.lambda3_bound_terms(p_en, lp_en)
    assert all(t > 0.0 for t in terms)
    bound = lyap_en.lambda3_bound(p_en, lp_en)
    assert bound == min(terms)
    assert 0.0 < 0.5 * bound < bound
    from dataclasses import replace
    small_k = replace(lp_en, k=1e-6)
    t1_small = lyap_en.lambda3_bound_terms(p_en, small_k)[0]
    assert t1_small < 1e-4 * terms[0]  # first ceiling collapses with k


def test_condition_50(p_en, lp_en):
    res = lyap_en.check_condition_50(p_en, lp_en)
    assert res.passed
    assert res.samples == 2049
    # equality by construction at the zero endpoint, strict margins inside
    assert res.worst_margin == 0.0
    assert res.argmin_l == 0.0
    L = np.linspace(lp_en.l_bar / 2048, lp_en.l_bar, 512)
    s = L / lp_en.lam0
    interior = lyap_en.theta_inv(p_en, -s) - lyap_en.nu_fun(p_en, lp_en, s)
    assert np.all(interior > 0.0)


def test_condition_50_small_lambda_hat2_limit(p_en, lp_en):
    # the margin's limit stays nonnegative as lambda_hat2 shrinks, matching
    # the degenerate-limit claim without asserting the zero case itself
    from dataclasses import replace
    worsts = []
    for lh2 in (1e-2, 1e-4, 1e-6, 1e-8):
        lp = replace(lp_en, lambda_hat2=lh2)
        res = lyap_en.check_condition_50(p_en, lp)
        assert res.passed
        worsts.append(res.worst_margin)
    assert worsts[-1] >= -1e-9
    big = replace(lp_en, lambda_hat2=1e-10, l_bar=1e5, k=0.9 * lyap_en.k0_bound(p_en, 1e5))
    assert lyap_en.check_condition_50(p_en, big).passed


def test_en_params_from_validation(p_en):
    with pytest.raises(InfeasibleOverride):
        lyap_en.en_params_from(p_en, 340.0, 0.01, 0.5)  # k above its ceiling
    with pytest.raises(InfeasibleOverride):
        lyap_en.en_params_from(p_en, 340.0, 0.01, 0.0902, lambda3=1.0)


def _compared(err, pattern) -> list:
    """The numbers of an error message, as floats, by the groups of `pattern`."""
    groups = re.fullmatch(pattern, str(err.value)).groups()
    assert not any(g.startswith("-0") and float(g) == 0.0 for g in groups)
    return [float(g) for g in groups]


def test_bound_errors_show_the_compared_values(p_en, lp_en, ly_en):
    # at each boundary the message's numbers are the floats that were compared
    k0 = lyap_en.k0_bound(p_en, 340.0)
    with pytest.raises(InfeasibleOverride) as err:
        lyap_en.en_params_from(p_en, 340.0, 0.01, k0)
    assert _compared(err, r"k=(\S+) outside \((\S+), k0=(\S+)\)") == [k0, 0.0, k0]
    bound = lyap_en.lambda3_bound(p_en, replace(lp_en, lambda3=1e-300))
    with pytest.raises(InfeasibleOverride) as err:
        lyap_en.en_params_from(p_en, 340.0, 0.01, 0.0902, lambda3=bound)
    assert _compared(err, r"lambda3=(\S+) outside \((\S+), (\S+)\)") == [bound, 0.0, bound]
    level = 340.0000001
    with pytest.raises(DomainError) as err:
        ly_en.level_ring(level, ("x3t", 0.0), ly_en.default_window(("x3t", 0.0)), 10)
    pattern = r"level (\S+) outside the budget \[(\S+), l_bar\*\(1\+1e-12\)=(\S+)\]"
    assert _compared(err, pattern) == [level, 0.0, lp_en.l_bar * (1.0 + 1e-12)]


def test_out_of_range_overrides_are_infeasible(p_en):
    with pytest.raises(InfeasibleOverride):
        lyap_en.select_en_params(p_en, l_bar=340.0, delta=2.0)
    with pytest.raises(InfeasibleOverride):
        lyap_en.en_params_from(p_en, 340.0, 0.0, 0.0902)


def test_select_en_params(p_en, p_df):
    lp = lyap_en.select_en_params(p_en, l_bar=340.0)
    assert lyap_en.check_condition_50(p_en, lp).passed
    assert lp.k < lyap_en.k0_bound(p_en, 340.0)
    assert lp.lambda3 < lyap_en.lambda3_bound(p_en, lp)
    with pytest.raises(RegimeError):
        lyap_en.select_en_params(p_df, l_bar=10.0)


def test_en_region(p_en, lp_en):
    lab = lyap_en.en_region(p_en, lp_en, Deviation(5.0, 5.0, 0.0))
    assert lab.region is lyap_en.EnRegion.A
    assert lab.x3_sign is lyap_en.X3Sign.NONNEG
    x2 = -50.0
    x1 = lyap_en.theta_inv(p_en, 50.0) + 1.0
    lab = lyap_en.en_region(p_en, lp_en, Deviation(x1, x2, -1.0))
    assert lab.region is lyap_en.EnRegion.F
    assert lab.x3_sign is lyap_en.X3Sign.NEG
    # the hyperbola x1*x2 = x1h*x2h carries the E/F boundary
    for v in (10.0, 80.0, 150.0):
        x1b = lyap_en.theta_inv(p_en, v)
        prod = (X1H + x1b) * (X2H - v)
        assert prod == pytest.approx(X1H * X2H, rel=1e-12)
    with pytest.raises(OutOfH):
        lyap_en.en_region(p_en, lp_en, Deviation(-400.0, -250.0, 0.0))


def test_en_value(p_en, lp_en):
    assert lyap_en.en_value(p_en, lp_en, Deviation(0.0, 0.0, 0.0)) == 0.0
    expect = 3.0 + 3.0 * lp_en.lambda3
    assert lyap_en.en_value(p_en, lp_en, Deviation(1.0, 2.0, -3.0)) == pytest.approx(expect)
    rng = np.random.default_rng(9)
    X = np.column_stack([rng.uniform(-150.0, 330.0, 2000),
                         rng.uniform(-160.0, 360.0, 2000),
                         rng.uniform(-600.0, 900.0, 2000)])
    v = lyap_en.en_value_many(p_en, lp_en, X)
    good = np.isfinite(v)
    assert np.all(v[good] > 0.0)
    with pytest.raises(OutOfH):
        lyap_en.en_value(p_en, lp_en, Deviation(-400.0, -250.0, 0.0))


def test_en_continuity_five_boundaries(ly_en):
    res = verify.check_en_continuity(ly_en)
    assert res.passed
    assert all(v < 1e-9 for v in res.details["per_boundary_max"].values())


def test_en_gradient(p_en, lp_en):
    g = lyap_en.en_gradient(p_en, lp_en, Deviation(5.0, 5.0, 1.0))
    assert g == (1.0, 1.0, lp_en.lambda3)
    with pytest.raises(OnBoundary):
        lyap_en.en_gradient(p_en, lp_en, Deviation(5.0, 5.0, 0.0))
    with pytest.raises(OnBoundary):
        lyap_en.en_gradient(p_en, lp_en, Deviation(-lp_en.k * 5.0, 5.0, 1.0))


def test_en_gradient_matches_finite_differences(p_en, lp_en):
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 200:
        d = Deviation(float(rng.uniform(-140.0, 330.0)),
                      float(rng.uniform(-160.0, 360.0)),
                      float(rng.uniform(-600.0, 900.0)))
        try:
            g = np.array(lyap_en.en_gradient(p_en, lp_en, d))
        except (OnBoundary, OutOfH):
            continue
        h = 1e-6 * (1.0 + d.norm1())
        base = d.as_array()
        fd = []
        ok = True
        for i in range(3):
            hi, lo = base.copy(), base.copy()
            hi[i] += h
            lo[i] -= h
            try:
                fd.append((lyap_en.en_value(p_en, lp_en, Deviation(*hi))
                           - lyap_en.en_value(p_en, lp_en, Deviation(*lo))) / (2 * h))
            except OutOfH:
                ok = False
                break
        if not ok:
            continue
        assert np.abs(np.array(fd) - g).max() <= 1e-6 * (1.0 + np.abs(g).max())
        checked += 1


def test_in_h_and_sublevel(p_en, lp_en):
    zero = Deviation(0.0, 0.0, 0.0)
    assert lyap_en.in_H(p_en, lp_en, zero)
    assert lyap_en.in_sublevel(p_en, lp_en, zero, 0.0)
    assert not lyap_en.in_H(p_en, lp_en, Deviation(0.0, -X2H, 0.0))
    rng = np.random.default_rng(11)
    X = np.column_stack([rng.uniform(-160.0, 350.0, 10_000),
                         rng.uniform(-170.0, 380.0, 10_000),
                         rng.uniform(-610.0, 2000.0, 10_000)])
    members = lyap_en.in_sublevel_many(p_en, lp_en, X, lp_en.l_bar)
    # the sublevel set sits strictly inside the Lipschitz domain
    x2h = X2H
    m = X[members]
    assert np.all(m[:, 1] > -x2h)
    assert np.all(-m[:, 0] - m[:, 1] < (1.0 - lp_en.k) * x2h)
    assert np.all(-lp_en.lambda1 * m[:, 0] + lp_en.lambda_hat2 * m[:, 1]
                  < lp_en.lam0 * x2h)
    with pytest.raises(DomainError):
        lyap_en.in_sublevel(p_en, lp_en, zero, 2 * lp_en.l_bar)


def test_en_input_range(p_en, lp_en):
    lo, hi = lyap_en.en_input_range(p_en, lp_en)
    assert lo < 0.0 < hi
    pl = lyap_en.p_fun(p_en, lp_en, lp_en.l_bar)
    assert lo == pytest.approx(-lp_en.delta * p_en.mu * pl / lp_en.lambda1)
    assert hi == pytest.approx(lp_en.delta * p_en.mu * lp_en.l_bar / lp_en.lambda1)
    assert (-lo < hi) == (pl < lp_en.l_bar)
    from dataclasses import replace
    lo2, hi2 = lyap_en.en_input_range(p_en, replace(lp_en, delta=0.9))
    assert lo2 < lo and hi2 > hi


def test_en_eta(p_en, lp_en):
    assert lyap_en.en_eta(p_en, lp_en, 0.0) == 0.0
    grid = [1.0, 10.0, 50.0, 150.0, 340.0, 1000.0]
    vals = [lyap_en.en_eta(p_en, lp_en, l) for l in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    sup = lp_en.lam0 * X2H
    big = lyap_en.en_eta(p_en, lp_en, 1e9)
    assert big <= sup and big > 0.9 * sup


@settings(max_examples=40, deadline=None)
@given(log_mu=st.floats(-3.0, -1.0), log_ratio=st.floats(-0.5, 1.0),
       log_excess=st.floats(-1.5, 1.0), log_beta=st.floats(-5.0, -3.0),
       log_budget=st.floats(-1.0, 1.0), depth=st.floats(0.01, 4.0))
def test_en_eta_inv_brackets_en_eta(log_mu, log_ratio, log_excess, log_beta,
                                    log_budget, depth):
    # R0 above gamma/mu + 2, so the endemic construction applies
    mu, ratio, beta = 10.0 ** log_mu, 10.0 ** log_ratio, 10.0 ** log_beta
    r0 = (ratio + 2.0) * (1.0 + 10.0 ** log_excess)
    p = sl.ModelParams(beta=beta, gamma=ratio * mu, mu=mu,
                       b_hat=r0 * mu * (ratio * mu + mu) / beta)
    q = sl.model.endemic_eq(p).point
    lp = lyap_en.select_en_params(p, l_bar=10.0 ** log_budget * (q.s + q.i))
    S = lp.lam0 * q.i
    # y = S*(1 - 10^-depth) crowds toward sup eta = S, where both extrema are
    # interior (cubic and quartic roots); within 1e-4 of S a 1e-9 change in L
    # moves eta by less than rounding
    y = S * (1.0 - 10.0 ** -depth)
    L = lyap_en.en_eta_inv(p, lp, y)
    assert lyap_en.en_eta(p, lp, L) >= y * (1.0 - 1e-12)
    assert lyap_en.en_eta(p, lp, L * (1.0 - 1e-9)) < y
    # eta is the minimum of its objective over w = P(V12) in [0, P(L)]
    w = np.linspace(0.0, lyap_en.p_fun(p, lp, L), 2001)
    obj = w + lp.lambda3 * (L - lyap_en.p_inv(p, lp, w)) / lyap_en.p_inv_prime(p, lp, w)
    assert lyap_en.en_eta(p, lp, L) <= obj.min() * (1.0 + 1e-12)


@pytest.mark.parametrize("regime", list(Regime))
@settings(max_examples=25, deadline=None)
@given(frac=st.floats(0.0, 1.0), gamma=st.floats(0.02, 0.045), mu=st.floats(0.01, 0.02),
       log_l_bar=st.floats(-1.0, 5.0))
def test_select_en_params_in_every_regime(regime, frac, gamma, mu, log_l_bar):
    # feasible constants, or NoConvergence / RegimeError, and nothing else
    tol = model.REGIME_BOUNDARY_RTOL
    lo, hi = {Regime.DISEASE_FREE_STABLE: (0.3, 1.0 - 2.0 * tol),
              Regime.BOUNDARY: (1.0 - 0.5 * tol, 1.0 + 0.5 * tol),
              Regime.ENDEMIC_EXISTS: (1.0 + 2.0 * tol, gamma / mu + 2.0),
              Regime.ENDEMIC_THEOREM_APPLIES: (gamma / mu + 2.0, 100.0)}[regime]
    r0 = lo + frac * (hi - lo)
    p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu, b_hat=r0 * mu * (gamma + mu) / 2e-4)
    assume(model.classify_regime(p) is regime)  # the interval ends may round across
    try:
        lp = lyap_en.select_en_params(p, l_bar=10.0 ** log_l_bar)
    except (NoConvergence, RegimeError):
        return
    assert lyap_en.check_condition_50(p, lp).passed


def test_select_en_params_at_rounding_edge_of_theorem_regime():
    # R0 one ulp above gamma/mu + 2 classifies as ENDEMIC_THEOREM_APPLIES,
    # but k0 rounds to 0, so no slope k is admissible
    gamma, mu = 0.02, 0.016921266814305353
    r0 = gamma / mu + 2.0
    p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu, b_hat=r0 * mu * (gamma + mu) / 2e-4)
    assert model.classify_regime(p) is Regime.ENDEMIC_THEOREM_APPLIES
    assert lyap_en.k0_bound(p, 1.0) <= 0.0
    with pytest.raises(NoConvergence):
        lyap_en.select_en_params(p, l_bar=1.0)


def test_derived_constants(p_en, lp_en):
    dc = lyap_en.derived_constants(p_en, lp_en)
    assert dc.gamma_a >= 0.0 and dc.gamma_c >= 0.0 and dc.gamma_d >= 0.0
    assert dc.gamma_e > 0.0 and dc.gamma_f >= 0.0
    assert dc.a_b > 0.0


def test_json_and_report(p_en, lp_en):
    assert lyap_en.EnLyapParams.from_dict(lp_en.as_dict()) == lp_en
    rep = lyap_en.feasibility_report(p_en, lp_en)
    assert set(rep) == {"k0", "lambda3_bound", "cond50_margin", "cond50_argmin_l",
                        "input_range"}
    assert rep["k0"] > lp_en.k
    assert rep["lambda3_bound"] > lp_en.lambda3


def test_sampler_that_keeps_nothing_raises_no_convergence(monkeypatch, ly_en):
    monkeypatch.setattr(lyap_en, "in_sublevel_many",
                        lambda p, lp, X, L: np.zeros(len(X), dtype=bool))
    with pytest.raises(NoConvergence):
        lyap_en.sample_sublevel(ly_en, 10, seed=1)
