import re

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import lyap_df
from sirlyap.errors import InfeasibleOverride, RegimeError


def test_select_defaults(p_df, lp_df):
    r0 = sl.r0_hat(p_df)
    assert lp_df.eps == pytest.approx(0.5 * (1.0 - r0))  # lower interval end is 0 here
    assert lp_df.mu0 == pytest.approx(0.99 * p_df.mu)
    assert 0.0 < lp_df.gamma0 < p_df.gamma
    assert lp_df.lambda3 == pytest.approx(1.0 - lp_df.gamma0 / p_df.gamma)
    assert lp_df.delta == 0.5


def test_select_reference_overrides(p_df, lp_df_ref):
    r0 = sl.r0_hat(p_df)
    g0 = (p_df.gamma + p_df.mu) * (r0 + 0.0745) - p_df.mu
    assert lp_df_ref.gamma0 == pytest.approx(g0, rel=1e-12)
    assert lp_df_ref.lambda3 == pytest.approx(1.0 - g0 / p_df.gamma, rel=1e-12)
    # the alternate quoted mu0 also satisfies the open interval
    lyap_df.select_df_params(p_df, mu0=0.0149)


def test_select_rejects_bad_overrides(p_df, p_en):
    r0 = sl.r0_hat(p_df)
    with pytest.raises(InfeasibleOverride):
        lyap_df.select_df_params(p_df, eps=1.0 - r0)  # open interval end
    with pytest.raises(InfeasibleOverride):
        lyap_df.select_df_params(p_df, mu0=p_df.mu)
    with pytest.raises(InfeasibleOverride):
        lyap_df.select_df_params(p_df, delta=1.0)
    with pytest.raises(RegimeError):
        lyap_df.select_df_params(p_en)  # R0 > 1
    with pytest.raises(RegimeError):
        lyap_df.select_df_params(sl.ModelParams(0.0002, 0.032, 0.015, 0.0))
    # R0 = 1 - 5e-13 lies inside the band REGIME_BOUNDARY_RTOL of R0 = 1
    edge = sl.ModelParams(0.0002, 0.032, 0.015, (1.0 - 5e-13) * 0.015 * 0.047 / 0.0002)
    assert sl.classify_regime(edge) is sl.Regime.BOUNDARY and sl.r0_hat(edge) < 1.0
    with pytest.raises(RegimeError, match=re.escape(f"R0={sl.r0_hat(edge)!r}, threshold 1.0")):
        lyap_df.select_df_params(edge)


def test_region_examples(p_df, lp_df_ref):
    # codes 0, 1, 2 for regions A, B, C; the threshold at x2t = 5, x3t = 0 is
    # -(0.0002*200/0.0148)*5 = -13.51... < -1, and x1t = 0 closes region A
    X = np.array([[1.0, 5.0, 5.0], [-1.0, 0.0, 0.0], [-1.0, 5.0, 0.0], [0.0, 5.0, 0.0]])
    codes = lyap_df.df_value_region_arrays(lp_df_ref, p_df, X)[1]
    assert codes.tolist() == [0, 2, 1, 0]


def test_value_examples(ly_df, lp_df):
    v = ly_df.value_many(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    assert v[0] == 0.0
    assert v[1] == pytest.approx(1.0 + 2.0 + 3.0 * lp_df.lambda3)
    # outside the domain R x R+^2 the value is NaN
    assert np.isnan(ly_df.value_many(np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 0.0],
                                               [0.0, 0.0, -1.0]]))).all()


def test_boundary_continuity(p_df, lp_df, ly_df):
    x2, x3 = np.random.default_rng(5).uniform(0.0, 600.0, (1000, 2)).T
    lin = x2 + lp_df.lambda3 * x3
    va = ly_df.value_many(np.column_stack([np.zeros(1000), x2, x3]))
    np.testing.assert_allclose(va, lin, rtol=1e-9)
    thr = -(p_df.beta * 200.0 / lp_df.mu0) * lin
    vc = -lp_df.mu0 * thr / (p_df.beta * 200.0)
    np.testing.assert_allclose(vc, lin, rtol=1e-9)


def test_gradient(p_df, lp_df, ly_df):
    X = np.array([[5.0, 5.0, 5.0], [-500.0, 1.0, 1.0], [0.0, 5.0, 5.0]])
    G = lyap_df.df_gradient_arrays(lp_df, p_df, X)
    assert G[0].tolist() == [1.0, 1.0, lp_df.lambda3]
    assert G[1].tolist() == [-lp_df.mu0 / (p_df.beta * 200.0), 0.0, 0.0]
    # the A/B boundary x1t = 0 lies in the band, the other two points do not
    assert ly_df.near_boundary(X).tolist() == [False, False, True]


def test_gradient_matches_finite_differences(p_df, lp_df, ly_df):
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 100:
        base = np.array([rng.uniform(-600.0, 600.0), rng.uniform(0.1, 600.0),
                         rng.uniform(0.1, 600.0)])
        X = base[None, :]
        if ly_df.near_boundary(X)[0]:
            continue
        g = lyap_df.df_gradient_arrays(lp_df, p_df, X)[0]
        h = 1e-6 * (1.0 + np.abs(base).sum())
        step = h * np.eye(3)
        if np.any((base - step)[:, 1:] < 0.0):
            continue
        fd = (ly_df.value_many(base + step) - ly_df.value_many(base - step)) / (2.0 * h)
        assert np.abs(fd - g).max() < 1e-6
        checked += 1


def test_chi(p_df, lp_df_ref):
    chi = lyap_df.DiseaseFreeLyapunov(p_df, lp_df_ref).chi
    assert chi(0.0) == 0.0
    # delta = 0.5 and mu - mu0 = 0.0002
    assert chi(1.0) == pytest.approx(10000.0, rel=1e-9)
    u = 0.37
    assert chi(2 * u) == pytest.approx(2 * chi(u), rel=1e-12)


def test_decrease_slack(p_df, lp_df, ly_df):
    # slack -grad V . f - rate*V of the decrease inequality under u = 0
    def slack(X):
        return -ly_df.grad_dot_f(X, 0.0) - ly_df.iss_decrease(X, [0.0])[1]

    assert slack(np.zeros((1, 3)))[0] == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(7)
    eps_lo = min(lp_df.eps * (lp_df.gamma0 + p_df.mu), p_df.mu)
    for _ in range(200):
        X = np.array([[rng.uniform(-200.0, 600.0), rng.uniform(0.0, 600.0),
                       rng.uniform(0.0, 600.0)]])
        assert slack(X)[0] >= -1e-12
        v, codes = lyap_df.df_value_region_arrays(lp_df, p_df, X)
        if codes[0] == 1:
            # sharper per-region rate in the middle region B
            gf = lyap_df.df_grad_dot_f_arrays(lp_df, p_df, X, 0.0)
            assert gf[0] <= -eps_lo * v[0] + 1e-12


def test_positive_definite_and_radially_unbounded(p_df, lp_df):
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.uniform(-1000.0, 1000.0, 1000),
                         rng.uniform(0.0, 1000.0, 1000),
                         rng.uniform(0.0, 1000.0, 1000)])
    v, _ = lyap_df.df_value_region_arrays(lp_df, p_df, X)
    assert np.all(v > 0.0)
    scales = np.array([1.0, 10.0, 100.0, 1000.0])
    for d in ([3.0, 1.0, 2.0], [-4.0, 0.5, 0.0]):
        vals = lyap_df.df_value_region_arrays(lp_df, p_df, scales[:, None] * np.array(d))[0]
        ratios = np.diff(np.log(vals))
        assert np.all(vals[:-1] < vals[1:])
        assert np.allclose(ratios, np.log(10.0), rtol=1e-6)  # linear growth


def test_json_round_trip(lp_df):
    assert lyap_df.DfLyapParams.from_dict(lp_df.as_dict()) == lp_df
