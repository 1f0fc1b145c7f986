"""Each float form equals its array path bit for bit: the monotone maps of
the endemic function on a Python float, condition (50)'s float loop and the
level chord's interpolation.  The traced benchmark run wraps library
functions by name, so every name it lists must still resolve."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import sirlyap as sl
from sirlyap import lyap_en

ROOT = Path(__file__).resolve().parents[1]


def _same(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _theorem_regime_params(log_mu, log_ratio, log_excess, log_beta):
    """Model constants with R0 above gamma/mu + 2, where the endemic
    construction applies."""
    mu, ratio, beta = 10.0 ** log_mu, 10.0 ** log_ratio, 10.0 ** log_beta
    r0 = (ratio + 2.0) * (1.0 + 10.0 ** log_excess)
    return sl.ModelParams(beta=beta, gamma=ratio * mu, mu=mu,
                          b_hat=r0 * mu * (ratio * mu + mu) / beta)


_THEOREM_REGIME = dict(log_mu=st.floats(-3.0, -1.0), log_ratio=st.floats(-0.5, 1.0),
                       log_excess=st.floats(-1.5, 1.0), log_beta=st.floats(-5.0, -3.0),
                       log_budget=st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**_THEOREM_REGIME, fracs=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=4))
def test_float_maps_match_array_path(log_mu, log_ratio, log_excess, log_beta, log_budget,
                                     fracs):
    # each monotone map on a Python float returns a Python float equal, bit
    # for bit (the sign of zero included), to its 1-element array path
    p = _theorem_regime_params(log_mu, log_ratio, log_excess, log_beta)
    q = sl.model.endemic_eq(p)
    lp = lyap_en.select_en_params(p, l_bar=10.0 ** log_budget * (q.s + q.i))
    maps = [(lyap_en.theta, (p,), q.s), (lyap_en.theta_inv, (p,), q.i),
            (lyap_en.omega_inv, (p, lp), 3.0 * lp.l_bar), (lyap_en.p_fun, (p, lp), 3.0 * lp.l_bar),
            (lyap_en.p_inv, (p, lp), lp.lam0 * q.i),
            (lyap_en.p_inv_prime, (p, lp), lp.lam0 * q.i),
            (lyap_en.nu_fun, (p, lp), 3.0 * lp.l_bar / lp.lam0)]
    for fn, args, scale in maps:
        for s in [0.0, -0.0] + [f * scale for f in fracs]:
            got = fn(*args, s)
            assert type(got) is float, fn.__name__
            assert _same(got, fn(*args, np.array([s]))[0]), (fn.__name__, s)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**_THEOREM_REGIME, log_stretch=st.floats(0.0, 3.0))
def test_condition_50_matches_array_evaluation(log_mu, log_ratio, log_excess, log_beta,
                                               log_budget, log_stretch):
    # the float loop gives the verdict, worst margin and its L of the array
    # evaluation on linspace(0, l_bar, 2049); stretched budgets may fail (50)
    p = _theorem_regime_params(log_mu, log_ratio, log_excess, log_beta)
    q = sl.model.endemic_eq(p)
    lp = lyap_en.select_en_params(p, l_bar=10.0 ** log_budget * (q.s + q.i))
    for lq in (lp, lp.replace(l_bar=lp.l_bar * 10.0 ** log_stretch)):
        L = np.linspace(0.0, lq.l_bar, 2049)
        s = L / lq.lam0
        lhs, rhs = lyap_en.nu_fun(p, lq, s), lyap_en.theta_inv(p, -s)
        margin = rhs - lhs
        j = int(np.argmin(margin))
        res = lyap_en.check_condition_50(p, lq)
        assert res.passed is bool(np.all(margin >= -1e-9 * (1.0 + np.abs(rhs) + np.abs(lhs))))
        assert _same(res.worst_margin, margin[j]) and _same(res.argmin_l, L[j])
        assert res.samples == len(L)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frac=st.floats(0.001, 1.0), t=st.one_of(st.just(0.0), st.floats(-0.999, 0.999)))
def test_level_chord_matches_numpy_interp(p_en, lp_en, frac, t):
    # each end of the chord on x2t = c is numpy.interp on a 3-vertex chain
    # of the hexagon, bit for bit
    level = frac * lp_en.l_bar
    H = np.asarray(lyap_en.en_level_hexagon(p_en, lp_en, level))
    c = t * (H[1, 1] if t > 0.0 else -H[4, 1])  # strictly between bottom and top
    left, right = H[[4, 3, 2]], H[[5, 0, 1]]
    got = lyap_en.en_level_chord(p_en, lp_en, level, c)
    assert _same(got[0], np.interp(c, left[:, 1], left[:, 0]))
    assert _same(got[1], np.interp(c, right[:, 1], right[:, 0]))


def test_tracer_paths_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = list(tracer.SPANS) + [(mod, path) for mod, path, _ in tracer.LEAVES]
    assert paths
    for mod, path in paths:
        obj = importlib.import_module(f"sirlyap.{mod}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod}.{path}"
