import itertools

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import model
from sirlyap.errors import DomainError, R0NotAboveOne


def test_r0_hat_values(p_df, p_en):
    # quoted reference figures are rounded prints of the exact ratios
    assert sl.r0_hat(p_df) == pytest.approx(0.851, rel=5e-4)
    assert sl.r0_hat(p_en) == pytest.approx(4.82271, rel=1e-5)
    p0 = sl.ModelParams(0.0002, 0.032, 0.015, 0.0)
    assert sl.r0_hat(p0) == 0.0


def test_disease_free_eq(p_df, p_en):
    assert sl.disease_free_eq(p_df).point == sl.State(200.0, 0.0, 0.0)
    p0 = sl.ModelParams(0.0002, 0.032, 0.015, 0.0)
    assert sl.disease_free_eq(p0).point == sl.State(0.0, 0.0, 0.0)
    assert sl.disease_free_eq(p_en).point.s == pytest.approx(1133.33, abs=5e-3)


def test_endemic_eq(p_df, p_en):
    q = sl.endemic_eq(p_en).point
    # direct evaluation of the equilibrium formulas with R0 = 4.822695...
    assert q.s == pytest.approx(235.0, rel=1e-12)
    assert q.i == pytest.approx(286.7021276595745, rel=1e-12)
    assert q.r == pytest.approx(611.6312056737589, rel=1e-12)
    assert q.s * p_en.beta == pytest.approx(p_en.gamma + p_en.mu, rel=1e-15)
    with pytest.raises(R0NotAboveOne):
        sl.endemic_eq(p_df)
    # exactly at the bifurcation value the equilibrium is refused as well
    c_star = p_df.mu * (p_df.gamma + p_df.mu) / p_df.beta
    with pytest.raises(R0NotAboveOne):
        sl.endemic_eq(sl.ModelParams(0.0002, 0.032, 0.015, c_star))


def test_rhs_hand_value(p_df):
    ds, di, dr = model.rhs_arrays(p_df, 100.0, 50.0, 0.0, 3.0)
    assert ds == pytest.approx(0.5, rel=1e-12)
    assert di == pytest.approx(-1.35, rel=1e-12)
    assert dr == pytest.approx(1.6, rel=1e-12)


def test_rhs_vanishes_at_equilibria(p_df, p_en):
    for p in (p_df, p_en):
        q = sl.disease_free_eq(p).point
        scale = max(1.0, q.n)
        assert np.abs(model.rhs_arrays(p, q.s, q.i, q.r, p.b_hat)).max() < 1e-9 * scale
    q = sl.endemic_eq(p_en).point
    assert np.abs(model.rhs_arrays(p_en, q.s, q.i, q.r, p_en.b_hat)).max() < 1e-9 * max(1.0, q.n)


def test_rhs_orthant_invariance(p_en):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(0.0, 500.0, 3)
        i = rng.integers(0, 3)
        x[i] = 0.0
        f = model.rhs_arrays(p_en, *x, float(rng.uniform(0.0, 20.0)))
        assert f[i] >= 0.0


def test_rhs_sum_identity(p_en):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = sl.State(*rng.uniform(0.0, 800.0, 3))
        b = float(rng.uniform(0.0, 30.0))
        f = model.rhs_arrays(p_en, x.s, x.i, x.r, b)
        assert sum(f) == pytest.approx(b - p_en.mu * x.n, rel=1e-12, abs=1e-12)


def test_stacked_field_matches_rhs_arrays_bit_for_bit(p_df, p_en):
    rng = np.random.default_rng(5)
    for m, p in itertools.product((1, 2, 53, 64), (p_df, p_en)):  # 1, 2: the edge widths
        for _ in range(50):
            Y = rng.uniform(0.0, 800.0, (3, m))
            Y[rng.random((3, m)) < 0.15] = 0.0
            Y[rng.random((3, m)) < 0.15] = -0.0
            small = rng.random((3, m)) < 0.15
            Y[small] = -rng.uniform(0.0, 1e-9, small.sum())
            for b in (float(rng.uniform(0.0, 30.0)), 0.0, -0.0,
                      rng.choice([0.0, -0.0, 17.0, 3.5], m)):
                want = np.array(model.rhs_arrays(p, *Y, b))
                out = np.full((3, m), np.nan)
                field = model.rhs_stacked(p, out)
                assert field(Y, Y[0], Y[1], b) is out
                assert np.array_equal(out, want)
                assert np.array_equal(np.signbit(out), np.signbit(want))
        Y = np.array([[1e200] * m, [1e200] * m, [0.0] * m])  # beta*I*S overflows
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                model.rhs_arrays(p, *Y, 1.0)
            with pytest.raises(FloatingPointError):
                model.rhs_stacked(p, np.empty((3, m)))(Y, Y[0], Y[1], 1.0)


def test_total_population_bound(p_df):
    x0 = sl.State(100.0, 50.0, 0.0)
    assert sl.total_population_bound(x0, 3.0, p_df, 0.0) == pytest.approx(350.0)
    assert sl.total_population_bound(x0, 3.0, p_df, 1e9) == pytest.approx(200.0)
    # a start above b_max/mu decays at rate mu, not at rate 1
    big = sl.State(1000.0, 0.0, 0.0)
    exact = float(model.total_population_exact(big, 3.0, p_df, 10.0))
    assert exact == pytest.approx(888.57, abs=0.01)
    assert sl.total_population_bound(big, 3.0, p_df, 10.0) >= exact
    with pytest.raises(DomainError):
        sl.total_population_bound(x0, 3.0, p_df, -1.0)


def test_classify_regime(p_df, p_en):
    assert sl.classify_regime(p_df) is sl.Regime.DISEASE_FREE_STABLE
    assert sl.classify_regime(p_en) is sl.Regime.ENDEMIC_THEOREM_APPLIES
    assert sl.r0_hat(p_en) > p_en.gamma / p_en.mu + 2.0
    # pick b_hat so the reproduction number is exactly 2 (< gamma/mu + 2)
    b2 = 2.0 * p_df.mu * (p_df.gamma + p_df.mu) / p_df.beta
    assert sl.classify_regime(sl.ModelParams(0.0002, 0.032, 0.015, b2)) \
        is sl.Regime.ENDEMIC_EXISTS
    c_star = p_df.mu * (p_df.gamma + p_df.mu) / p_df.beta
    assert sl.classify_regime(sl.ModelParams(0.0002, 0.032, 0.015, c_star)) \
        is sl.Regime.BOUNDARY


def test_params_validation_and_json(p_df):
    with pytest.raises(ValueError):
        sl.ModelParams(0.0, 0.032, 0.015, 3.0)
    with pytest.raises(ValueError):
        sl.ModelParams(0.0002, 0.032, 0.015, -1.0)
    with pytest.raises(ValueError, match="state components must be nonnegative"):
        sl.State(-1.0, 0.0, 0.0)
    d = p_df.as_dict()
    assert sl.ModelParams.from_dict(d) == p_df
    with pytest.raises(ValueError):
        sl.ModelParams.from_dict({**d, "extra": 1.0})


@pytest.mark.parametrize("record", ["p_df", "lp_df", "lp_en"])
def test_float_records_take_exactly_their_keys(request, record):
    rec = request.getfixturevalue(record)
    d = rec.as_dict()
    assert type(rec).from_dict(d) == rec
    first = next(iter(d))
    bad = [{**d, "extra": 1.0}, {k: v for k, v in d.items() if k != first},
           {**d, first: True}, {**d, first: str(d[first])}]
    for b, key in zip(bad, ["extra", first, first, first]):
        with pytest.raises(ValueError, match=key):
            type(rec).from_dict(b)


def test_decode_number():
    assert model.decode_number("x", 2) == 2.0 and type(model.decode_number("x", 2)) is float
    for v in (True, "1", None, [1.0], float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            model.decode_number("x", v)

