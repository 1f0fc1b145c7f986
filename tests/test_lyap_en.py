import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sirlyap as sl
from sirlyap import bands, lyap_en, model, verify
from sirlyap.errors import DomainError, InfeasibleOverride, NoConvergence, RegimeError
from sirlyap.model import Regime

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


def test_omega_inv_of_a_huge_level(p_en, lp_en):
    # b + sqrt(D) rounds to 0 here, in the branch omega_inv computes and drops
    assert lyap_en.omega_inv(p_en, lp_en, 1e19) == pytest.approx(1e19, rel=1e-12)
    roots = lyap_en.omega_inv(p_en, lp_en, np.array([1e19, 1e20, -1e16]))
    assert np.isfinite(roots).all() and roots[2] > -X1H
    # past |v| = 1e150 the discriminant is scaled, so b*b cannot overflow
    huge = [1e155, 1e300]
    for roots in ([lyap_en.omega_inv(p_en, lp_en, v) for v in huge],
                  lyap_en.omega_inv(p_en, lp_en, np.array(huge))):
        assert lyap_en.omega(p_en, lp_en, roots) == pytest.approx(huge, rel=1e-12)
    pl = lyap_en.p_fun(p_en, lp_en, np.array([1e155, 1e300]))
    assert lyap_en.p_fun(p_en, lp_en, 1e300) == pl[1] == pytest.approx(lp_en.lam0 * X2H)


@pytest.mark.parametrize("level", [-1e20, 1e306, -1e306])
def test_maps_refuse_a_level_without_a_finite_value(p_en, lp_en, level):
    # from about -2e16 down the root of omega rounds onto the pole -x1h, where
    # theta divides by 0; past about +-2e305 omega's discriminant overflows.
    # Floats and arrays alike raise a DomainError naming the level, and no
    # RuntimeWarning
    for f in (lyap_en.omega_inv, lyap_en.p_fun, lyap_en.nu_fun):
        for s in (level, np.array([0.0, level, 1.0])):
            with pytest.raises(DomainError, match=re.escape(
                    f"{f.__name__} has no finite value at level {level!r}")):
                f(p_en, lp_en, s)
    # the nearest levels that have a finite value keep it, as floats and arrays
    for f, s in ((lyap_en.omega_inv, -1e16), (lyap_en.p_fun, -1e16), (lyap_en.nu_fun, -1e16),
                 (lyap_en.omega_inv, 1e305),
                 (lyap_en.p_fun, 1e305), (lyap_en.nu_fun, 1e305)):
        value = f(p_en, lp_en, s)
        assert np.isfinite(value) and f(p_en, lp_en, np.array([s])).tolist() == [value]


@pytest.mark.parametrize("level", [-1.9e16, -1e17])
def test_omega_inv_refuses_a_root_on_the_pole(p_en, lp_en, level):
    # from about -1.8e16 down the larger root of omega(s) = v rounds onto
    # -x1h itself, outside the range (-x1h, inf): a DomainError naming the
    # level, as p_fun and nu_fun give there, for floats and arrays alike
    for v in (level, np.array([0.0, level])):
        with pytest.raises(DomainError, match=re.escape(
                f"omega_inv has no finite value at level {level!r}")):
            lyap_en.omega_inv(p_en, lp_en, v)
    with pytest.raises(DomainError):
        lyap_en.p_fun(p_en, lp_en, level)
    assert -X1H < lyap_en.omega_inv(p_en, lp_en, -1.8e16) < -X1H + 1e-13


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
    small_k = lp_en.replace(k=1e-6)
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
    worsts = []
    for lh2 in (1e-2, 1e-4, 1e-6, 1e-8):
        lp = lp_en.replace(lambda_hat2=lh2)
        res = lyap_en.check_condition_50(p_en, lp)
        assert res.passed
        worsts.append(res.worst_margin)
    assert worsts[-1] >= -1e-9
    big = lp_en.replace(lambda_hat2=1e-10, l_bar=1e5, k=0.9 * lyap_en.k0_bound(p_en, 1e5))
    assert lyap_en.check_condition_50(p_en, big).passed


def test_en_params_from_validation(p_en):
    with pytest.raises(InfeasibleOverride):
        lyap_en.en_params_from(p_en, 340.0, 0.01, 0.5)  # k above its ceiling
    with pytest.raises(InfeasibleOverride):
        lyap_en.en_params_from(p_en, 340.0, 0.01, 0.0902, lambda3=1.0)


def test_zero_lambda3_ceiling_is_refused(p_en):
    # a huge budget or beta rounds the spread, and with it the third
    # lambda3 ceiling, to 0
    with pytest.raises(InfeasibleOverride, match="no admissible lambda3"):
        lyap_en.select_en_params(p_en, 1e20)
    with pytest.raises(InfeasibleOverride, match="no admissible lambda3"):
        lyap_en.select_en_params(p_en.replace(beta=1e300), 340.0)
    k = 0.5 * lyap_en.k0_bound(p_en, 1e20)
    with pytest.raises(InfeasibleOverride, match="no admissible lambda3"):
        lyap_en.en_params_from(p_en, 1e20, 0.01, k)


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
    bound = lyap_en.lambda3_bound(p_en, lp_en.replace(lambda3=1e-300))
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
    # codes 0..5 for regions A..F; the x3t sign picks the sign of the x3 slope
    X = np.array([[5.0, 5.0, 0.0], [lyap_en.theta_inv(p_en, 50.0) + 1.0, -50.0, -1.0]])
    codes = lyap_en.en_region_terms(p_en, lp_en, X)[0]
    assert [lyap_en.REGION_LABELS[c] for c in codes] == ["A", "F"]
    assert lyap_en.en_gradient_arrays(p_en, lp_en, X)[:, 2].tolist() == [lp_en.lambda3,
                                                                         -lp_en.lambda3]
    # the hyperbola x1*x2 = x1h*x2h carries the E/F boundary
    for v in (10.0, 80.0, 150.0):
        x1b = lyap_en.theta_inv(p_en, v)
        prod = (X1H + x1b) * (X2H - v)
        assert prod == pytest.approx(X1H * X2H, rel=1e-12)


def test_en_value(p_en, lp_en, ly_en):
    v = ly_en.value_many(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -3.0], [-400.0, -250.0, 0.0]]))
    assert v[0] == 0.0
    assert v[1] == pytest.approx(3.0 + 3.0 * lp_en.lambda3)
    assert np.isnan(v[2])
    rng = np.random.default_rng(9)
    X = np.column_stack([rng.uniform(-150.0, 330.0, 2000),
                         rng.uniform(-160.0, 360.0, 2000),
                         rng.uniform(-600.0, 900.0, 2000)])
    v = lyap_en.en_value_many(p_en, lp_en, X)
    good = np.isfinite(v)
    assert np.all(v[good] > 0.0)


def test_en_continuity_five_boundaries(ly_en):
    res = verify.check_en_continuity(ly_en)
    assert res.passed
    assert all(v < 1e-9 for v in res.details["per_boundary_max"].values())


def test_en_gradient(p_en, lp_en, ly_en):
    # the second point sits on the x3t kink, the third on the A/B boundary
    X = np.array([[5.0, 5.0, 1.0], [5.0, 5.0, 0.0], [-lp_en.k * 5.0, 5.0, 1.0]])
    assert lyap_en.en_gradient_arrays(p_en, lp_en, X)[0].tolist() == [1.0, 1.0, lp_en.lambda3]
    assert ly_en.near_boundary(X).tolist() == [False, True, True]


def test_en_gradient_matches_finite_differences(p_en, lp_en, ly_en):
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 200:
        base = np.array([rng.uniform(-140.0, 330.0), rng.uniform(-160.0, 360.0),
                         rng.uniform(-600.0, 900.0)])
        X = base[None, :]
        if np.isnan(ly_en.value_many(X)[0]) or ly_en.near_boundary(X)[0]:
            continue
        g = lyap_en.en_gradient_arrays(p_en, lp_en, X)[0]
        h = 1e-6 * (1.0 + np.abs(base).sum())
        step = h * np.eye(3)
        fd = (ly_en.value_many(base + step) - ly_en.value_many(base - step)) / (2 * h)
        if np.isnan(fd).any():  # a step left H
            continue
        assert np.abs(fd - g).max() <= 1e-6 * (1.0 + np.abs(g).max())
        checked += 1


def test_in_h_and_sublevel(p_en, lp_en):
    zero = np.zeros((1, 3))
    v = lyap_en.en_value_many(p_en, lp_en, np.array([[0.0, 0.0, 0.0], [0.0, -X2H, 0.0]]))
    assert np.isfinite(v[0]) and np.isnan(v[1])  # in H, and outside it
    assert lyap_en.in_sublevel_many(p_en, lp_en, zero, 0.0)[0]
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
    for level in (2 * lp_en.l_bar, -1.0):
        with pytest.raises(DomainError, match=r"^L must lie in \[0, l_bar\]$"):
            lyap_en.in_sublevel_many(p_en, lp_en, zero, level)


def test_en_input_range(p_en, lp_en, ly_en):
    lo, hi = ly_en.admissible_u()
    assert lo < 0.0 < hi
    pl = lyap_en.p_fun(p_en, lp_en, lp_en.l_bar)
    assert lo == pytest.approx(-lp_en.delta * p_en.mu * pl / lp_en.lambda1)
    assert hi == pytest.approx(lp_en.delta * p_en.mu * lp_en.l_bar / lp_en.lambda1)
    assert (-lo < hi) == (pl < lp_en.l_bar)
    lo2, hi2 = lyap_en.EndemicLyapunov(p_en, lp_en.replace(delta=0.9)).admissible_u()
    assert lo2 < lo and hi2 > hi


def test_en_eta(p_en, lp_en):
    assert lyap_en.en_eta(p_en, lp_en, 0.0) == 0.0
    grid = [1.0, 10.0, 50.0, 150.0, 340.0, 1000.0]
    vals = [lyap_en.en_eta(p_en, lp_en, l) for l in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    sup = lp_en.lam0 * X2H
    big = lyap_en.en_eta(p_en, lp_en, 1e9)
    assert big <= sup and big > 0.9 * sup
    with pytest.raises(DomainError, match="l_total must be nonnegative"):
        lyap_en.en_eta(p_en, lp_en, -1.0)
    # en_eta_inv: no level is needed for y <= 0, and none reaches y >= sup
    assert lyap_en.en_eta_inv(p_en, lp_en, 0.0) == lyap_en.en_eta_inv(p_en, lp_en, -1.0) == 0.0
    assert lyap_en.en_eta_inv(p_en, lp_en, sup) == lyap_en.en_eta_inv(p_en, lp_en, 2 * sup) == np.inf


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
    q = sl.model.endemic_eq(p)
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
    # RegimeError exactly outside ENDEMIC_THEOREM_APPLIES; inside it,
    # feasible constants or NoConvergence, and nothing else.  The endemic
    # threshold's band (T, T*(1 + tol)] belongs to ENDEMIC_EXISTS
    tol, t = model.REGIME_BOUNDARY_RTOL, gamma / mu + 2.0
    lo, hi = {Regime.DISEASE_FREE_STABLE: (0.3, 1.0 - 2.0 * tol),
              Regime.BOUNDARY: (1.0 - 0.5 * tol, 1.0 + 0.5 * tol),
              Regime.ENDEMIC_EXISTS: (1.0 + 2.0 * tol, t * (1.0 + 0.5 * tol)),
              Regime.ENDEMIC_THEOREM_APPLIES: (t * (1.0 + 2.0 * tol), 100.0)}[regime]
    r0 = lo + frac * (hi - lo)
    p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu, b_hat=r0 * mu * (gamma + mu) / 2e-4)
    assume(model.classify_regime(p) is regime)  # the interval ends may round across
    if regime is not Regime.ENDEMIC_THEOREM_APPLIES:
        with pytest.raises(RegimeError):
            lyap_en.select_en_params(p, l_bar=10.0 ** log_l_bar)
        return
    assert lyap_en.k0_bound(p, 10.0 ** log_l_bar) > 0.0
    try:
        lp = lyap_en.select_en_params(p, l_bar=10.0 ** log_l_bar)
    except NoConvergence:
        return
    assert lyap_en.check_condition_50(p, lp).passed


def test_select_en_params_at_rounding_edge_of_theorem_regime():
    # R0 one ulp above gamma/mu + 2 lies inside the threshold's band: the
    # regime is ENDEMIC_EXISTS, so the construction refuses it, where k0
    # would round to 0
    gamma, mu = 0.02, 0.016921266814305353
    r0 = gamma / mu + 2.0
    p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu, b_hat=r0 * mu * (gamma + mu) / 2e-4)
    assert model.r0_hat(p) > gamma / mu + 2.0
    assert model.classify_regime(p) is Regime.ENDEMIC_EXISTS
    message = (f"R0={model.r0_hat(p)!r}, threshold gamma/mu + 2={gamma / mu + 2.0!r}")
    for construct in (lambda: lyap_en.k0_bound(p, 1.0),
                      lambda: lyap_en.select_en_params(p, l_bar=1.0)):
        with pytest.raises(RegimeError, match=re.escape(message)):
            construct()


def test_derived_constants(p_en, lp_en, ly_en):
    a_b, sp, gamma_ek = ly_en.rate_constants()
    assert sp == lyap_en.spread(p_en, lp_en)
    # the per-region decrease constants of the paper, which no rate reads
    g, lam2, lh2 = p_en.gamma, lp_en.lambda2, lp_en.lambda_hat2
    lam3, lam0 = lp_en.lambda3, lp_en.lam0
    gamma_a = g * (1.0 - lam3 / lam2)
    gamma_c = g * (1.0 - lam3 * lam0 / lh2 ** 2)
    gamma_d = g * (1.0 - lam3 * lam0 / (lam2 * lh2))
    gamma_e = 1.0 - lam3 * g / (lh2 * sp * p_en.beta)
    gamma_f = g * (1.0 - lam3 / lh2)
    assert gamma_a >= 0.0 and gamma_c >= 0.0 and gamma_d >= 0.0
    assert gamma_e > 0.0 and gamma_f >= 0.0
    assert a_b > 0.0
    # the sample check reads its region-E constant from the class
    assert verify.check_en_sample_decrease(ly_en, n=200).details["gamma_ek"] == gamma_ek


def test_json_and_report(p_en, lp_en, ly_en):
    assert lyap_en.EnLyapParams.from_dict(lp_en.as_dict()) == lp_en
    rep = ly_en.params_report()["feasibility"]
    assert set(rep) == {"k0", "lambda3_bound", "cond50_margin", "cond50_argmin_l",
                        "input_range"}
    assert rep["k0"] > lp_en.k
    assert rep["lambda3_bound"] > lp_en.lambda3


def test_sampler_that_keeps_nothing_raises_no_convergence(monkeypatch, ly_en):
    monkeypatch.setattr(lyap_en, "in_sublevel_many",
                        lambda p, lp, X, L: np.zeros(len(X), dtype=bool))
    with pytest.raises(NoConvergence):
        lyap_en.sample_sublevel(ly_en, 10, seed=1)


def _first_round_mask(monkeypatch, ly_en, n):
    """The acceptance mask of the first round of sample_sublevel(ly_en, n,
    DEFAULT_SEED), tested in one band."""
    masks = []
    in_sublevel_many = lyap_en.in_sublevel_many

    def recording(p, lp, X, L):
        masks.append(in_sublevel_many(p, lp, X, L))
        return masks[-1]

    with monkeypatch.context() as m:
        m.setattr(lyap_en, "in_sublevel_many", recording)
        m.setattr(lyap_en, "bands", lambda rows: [(0, rows)])
        lyap_en.sample_sublevel(ly_en, n, verify.DEFAULT_SEED)
    return masks[0]


def test_sampler_tests_only_the_bands_it_keeps_rows_from(monkeypatch, ly_en):
    # at the reference scenario and certify's seed the first round holds the
    # 100,000 rows kept: the sampler draws and tests the fewest whole bands
    # of BAND_POINTS that hold them, and not one row more
    n, band = 100_000, bands.BAND_POINTS
    last = int(np.flatnonzero(_first_round_mask(monkeypatch, ly_en, n))[n - 1])
    expected = min(-(-(last + 1) // band) * band, 4 * n)
    tested, drawn = [], []
    in_sublevel_many, stream = lyap_en.in_sublevel_many, lyap_en._stream

    def counting(p, lp, X, L):
        tested.append(len(X))
        return in_sublevel_many(p, lp, X, L)

    class Counting:
        """A generator that records the rows of each draw."""

        def __init__(self, g):
            self.g = g

        def __getattr__(self, name):
            def draw(*args):
                drawn.append(args[-1])
                return getattr(self.g, name)(*args)
            return draw

    monkeypatch.setattr(lyap_en, "in_sublevel_many", counting)
    monkeypatch.setattr(lyap_en, "_stream", lambda bg, start: Counting(stream(bg, start)))
    X = lyap_en.sample_sublevel(ly_en, n, verify.DEFAULT_SEED)
    assert sum(tested) == expected and X.shape == (n, 3)
    assert sum(drawn) == 6 * expected  # six columns, each drawn to the same row


# sha256 of the samples of whole-round draws, each column drawn at full size
# in turn from np.random.default_rng(DEFAULT_SEED): certify's draw, one over
# 47 rounds and one of the moderate x3t draw
_STREAM_CASES = {
    "certify": ((100_000, {}),
                "b2d5501fcefe778a30fa18f11eedb6f710dc81bd7c61e77c88f601dbf218fc67"),
    "multi_round": ((20_000, {"level_frac": 0.1}),
                    "bb0a14a4811d550d214e86b269ef62ddac6ed54da29d7c9873a2123ea049e72e"),
    "x3_moderate": ((5_000, {"level_frac": 0.95, "x3_moderate": True}),
                    "14c6e1b3958f82086852641a7ecb8cbf35617b1109b56e22c36d199bc023f1c9"),
}


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
@pytest.mark.parametrize("band_points", [None, 4_999, 7_000])
def test_sampler_keeps_the_whole_round_stream(monkeypatch, ly_en, case, band_points):
    # drawn band by band on jump-ahead copies of the round's generator, the
    # sample is the one of drawing each round in one band, which is the
    # whole-round draw; an odd band size leaves half of a 64-bit output for
    # the next band's signs
    (n, kw), digest = _STREAM_CASES[case]
    with monkeypatch.context() as m:
        m.setattr(lyap_en, "bands", lambda rows: [(0, rows)])
        whole = lyap_en.sample_sublevel(ly_en, n, verify.DEFAULT_SEED, **kw)
    assert hashlib.sha256(whole.tobytes()).hexdigest() == digest
    if band_points is not None:
        monkeypatch.setattr(bands, "BAND_POINTS", band_points)
    assert lyap_en.sample_sublevel(ly_en, n, verify.DEFAULT_SEED, **kw).tobytes() == whole.tobytes()


def test_sampler_memory_is_one_band_plus_its_result(ly_en):
    # drawn whole, a round's columns took 13.0 MB beyond the result at
    # n = 1e5 and 51.9 MB at n = 4e5; one band's draw and test take 2.0 MB
    # at both (BAND_POINTS = 16,384), bounded with about 1 MB to spare
    for n in (100_000, 400_000):
        tracemalloc.start()
        try:
            lyap_en.sample_sublevel(ly_en, n, verify.DEFAULT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - 24 * n) / 2 ** 20 <= 3.0
