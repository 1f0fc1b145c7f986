"""The region rule of both Lyapunov functions: a point's region is the first,
in A..F (A..C) order, whose formula is largest, and V is that formula's value.

The oracle is the cut-based definition of the regions: sign tests against
-k*x2t, the theta^{-1} hyperbola for the E/F cut and, for B/C, the
comparison of the two formulas (disease-free: x1t = 0 and `df_threshold`).
The two agree on the domain H below its cap, on parameter sets drawn in
both endemic sub-regimes and in the disease-free one.
"""
import math

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import lyap_df, lyap_en, model, verify

A, B, C, D, E, F = range(6)


def _cut_codes_en(p, lp, x1t, x2t):
    """Regions A..F (codes 0..5) by the cuts: x2t >= 0 is the upper half,
    -k*x2t splits A from B and D from E, the hyperbola x1t = theta^{-1}(-x2t)
    splits E from F, and C is where C's formula exceeds B's."""
    x2h = model.endemic_eq(p).i
    kx2 = -lp.k * x2t
    ti = lyap_en.theta_inv(p, np.minimum(-x2t, x2h * (1.0 - 1e-15)))
    lower = np.where(x1t <= kx2, D, np.where(x1t <= ti, E, F))
    codes = np.where(x2t >= 0.0, np.where(x1t >= kx2, A, B), lower)
    c_over_b = (lyap_en.en_region_v12(p, lp, C, x1t, x2t)
                > lyap_en.en_region_v12(p, lp, B, x1t, x2t))
    return np.where((codes == B) & c_over_b, C, codes)


def _cut_codes_df(lp, p, X):
    x1t = X[:, 0]
    return np.where(x1t >= 0.0, A, np.where(x1t >= lyap_df.df_threshold(lp, p, X[:, 1], X[:, 2]),
                                            B, C))


def _endemic_draws(lo, hi, n, seed):
    """n (p, lp) pairs with R0 = (lo..hi) * (gamma/mu + 2) and a drawn l_bar."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gamma, mu = rng.uniform(0.02, 0.045), rng.uniform(0.01, 0.02)
        r0 = rng.uniform(lo, hi) * (gamma / mu + 2.0)
        p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu, b_hat=r0 * mu * (gamma + mu) / 2e-4)
        l_bar = float(np.exp(rng.uniform(np.log(20.0), np.log(2000.0))))
        out.append((p, lyap_en.select_en_params(p, l_bar)))
    return out


def _points_en(p, lp, n, rng):
    """n deviations (x3t = 0), half around the level-l_bar hexagon and half
    over the box of H below its cap."""
    q = model.endemic_eq(p)
    cap = lp.l_bar / (lp.lambda2 * (1.0 - lp.k))
    reach = lyap_en.p_fun(p, lp, lp.l_bar)
    half = n // 2
    x1 = np.concatenate([rng.uniform(-3.0 * reach / lp.lambda1, 3.0 * lp.l_bar, half),
                         rng.uniform(-q.s, 10.0 * (cap + q.s), n - half)])
    x2 = np.concatenate([rng.uniform(-3.0 * reach / lp.lam0, cap, half),
                         rng.uniform(-q.i, cap, n - half)])
    return np.column_stack([x1, x2, np.zeros(n)])


@pytest.mark.parametrize("lo, hi, seed", [(1.001, 1.3, 1), (1.3, 4.0, 2)])
def test_endemic_rule_matches_the_cuts_in_h(lo, hi, seed):
    rng = np.random.default_rng(seed)
    checked = 0
    for p, lp in _endemic_draws(lo, hi, 40, seed):
        X = _points_en(p, lp, 20_000, rng)
        v = lyap_en.en_value_many(p, lp, X)
        X = X[np.isfinite(v)]  # the points of H below the cap
        v = v[np.isfinite(v)]
        codes = lyap_en.en_region_terms(p, lp, X)[0]
        assert np.array_equal(codes, _cut_codes_en(p, lp, X[:, 0], X[:, 1]))
        for r in range(6):
            at = codes == r
            assert np.array_equal(v[at], lyap_en.en_region_v12(p, lp, r, X[at, 0], X[at, 1]))
        checked += len(X)
    assert checked > 40 * 10_000


def test_disease_free_rule_matches_the_cuts():
    rng = np.random.default_rng(3)
    for _ in range(40):
        gamma, mu = rng.uniform(0.02, 0.045), rng.uniform(0.01, 0.02)
        p = sl.ModelParams(beta=2e-4, gamma=gamma, mu=mu,
                           b_hat=rng.uniform(0.3, 0.95) * mu * (gamma + mu) / 2e-4)
        lp = lyap_df.select_df_params(p, mu0=rng.uniform(0.9, 0.99) * mu)
        x1h = p.b_hat / p.mu
        X = np.column_stack([rng.uniform(-5.0 * x1h, 5.0 * x1h, 20_000),
                             rng.uniform(0.0, 5.0 * x1h, 20_000),
                             rng.uniform(0.0, 5.0 * x1h, 20_000)])
        v, codes = lyap_df.df_value_region_arrays(lp, p, X)
        assert np.array_equal(codes, _cut_codes_df(lp, p, X))
        assert np.array_equal(v, np.choose(codes, lyap_df.df_region_values(lp, p, X)))


def test_cap_is_load_bearing(p_en, lp_en):
    # far above the cap the largest formula is no longer the cut's region:
    # on the A/B cut at x2t = 2400, C's formula exceeds A's
    x2 = np.array([2400.0])
    x1 = -lp_en.k * x2
    X = np.column_stack([x1, x2, [0.0]])
    assert _cut_codes_en(p_en, lp_en, x1, x2).tolist() == [A]
    assert lyap_en.en_region_terms(p_en, lp_en, X)[0].tolist() == [C]
    assert np.isnan(lyap_en.en_value_many(p_en, lp_en, X)[0])


def _ulps(x, n=8):
    """x and the n floats either side of each entry."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _exact_ties(p, lp, r, s, x1, x2):
    """The points, within 8 ulps of x1 on each x2, where the formulas of
    regions r and s are equal and none is larger; C, D and E compare by
    their linear forms, which P^{-1} takes in order."""
    x1, x2 = _ulps(x1), np.tile(x2, 17)
    forms = np.array([lyap_en.en_region_v12(p, lp, c, x1, x2) for c in range(6)])
    tie = forms[r] == forms[s]
    if r in (C, D, E) and s in (C, D, E):
        (c1, c2), (d1, d2) = lyap_en._region_forms(lp)[[r, s]]
        tie = c1 * x1 + c2 * x2 == d1 * x1 + d2 * x2
    tie &= forms[r] >= forms.max(axis=0)
    return np.column_stack([x1[tie], x2[tie], np.zeros(int(tie.sum()))])


def test_endemic_boundaries_take_the_closed_side(p_en, lp_en):
    rng = np.random.default_rng(4)
    k, top = lp_en.k, lp_en.l_bar / lp_en.lam0
    bottom = -lyap_en.p_fun(p_en, lp_en, lp_en.l_bar) / lp_en.lam0
    x2h = model.endemic_eq(p_en).i
    up, down, zero = rng.uniform(1.0, top, 200), rng.uniform(bottom, -1.0, 200), np.zeros(200)
    boundaries = {
        (F, A): (rng.uniform(1e-6, lp_en.l_bar, 200), zero),
        (A, B): (-k * up, up),
        (B, C): (lyap_en.nu_fun(p_en, lp_en, up), up),
        (C, D): (rng.uniform(-0.9 * (1.0 - k) * x2h, -1e-6, 200), zero),
        (D, E): (-k * down, down),
        (E, F): (lyap_en.theta_inv(p_en, -down), down),
    }
    for (r, s), (x1, x2) in boundaries.items():
        X = _exact_ties(p_en, lp_en, r, s, x1, x2)
        assert len(X) >= 20, (r, s)
        assert (lyap_en.en_region_terms(p_en, lp_en, X)[0] == min(r, s)).all(), (r, s)
        assert np.array_equal(lyap_en.en_value_many(p_en, lp_en, X),
                              lyap_en.en_region_v12(p_en, lp_en, r, X[:, 0], X[:, 1]))


def test_disease_free_boundaries_take_the_closed_side(p_df, lp_df):
    rng = np.random.default_rng(5)
    x1h = p_df.b_hat / p_df.mu
    x2, x3 = rng.uniform(0.0, 3.0 * x1h, 200), rng.uniform(0.0, 3.0 * x1h, 200)
    # A at x1t = 0
    X = np.column_stack([np.zeros(200), x2, x3])
    assert (lyap_df.df_value_region_arrays(lp_df, p_df, X)[1] == A).all()
    # B on the tilted plane, where B's and C's formulas are equal
    X = np.column_stack([_ulps(lyap_df.df_threshold(lp_df, p_df, x2, x3)),
                         np.tile(x2, 17), np.tile(x3, 17)])
    _, vb, vc = lyap_df.df_region_values(lp_df, p_df, X)
    X = X[vb == vc]
    assert len(X) >= 20
    assert (lyap_df.df_value_region_arrays(lp_df, p_df, X)[1] == B).all()


def test_value_at_the_anchor_is_positive_zero(ly_df, ly_en):
    # every formula is 0 there, some of them -0.0: the first region's +0.0 wins
    for ly in (ly_df, ly_en):
        assert math.copysign(1.0, ly.value_many(np.zeros((1, 3)))[0]) == 1.0
    v0 = verify.check_df_positive_definite(ly_df, n=10).details["value_at_zero"]
    assert math.copysign(1.0, v0) == 1.0
