"""The scalar functions are thin wrappers: each equals its array path row by
row, bit for bit, and raises where the array path marks a point as outside
the domain.  The traced benchmark run wraps library functions by name, so
every name it lists must still resolve."""
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirlyap as sl
from sirlyap import lyap_df, lyap_en, model, ode
from sirlyap.errors import DomainError, NotConverged, OnBoundary, OutOfH
from sirlyap.model import Deviation

ROOT = Path(__file__).resolve().parents[1]


def _same(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _coord(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi, allow_nan=False))


_DF_ROWS = st.lists(st.tuples(_coord(-600.0, 600.0), _coord(-50.0, 600.0),
                              _coord(-50.0, 600.0)), min_size=1, max_size=6)
_EN_ROWS = st.lists(st.tuples(_coord(-300.0, 400.0), _coord(-300.0, 400.0),
                              _coord(-700.0, 1000.0)), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(rows=_DF_ROWS, u=st.floats(-3.0, 30.0))
def test_df_wrappers_match_array_path(p_df, lp_df, rows, u):
    X = np.array(rows)
    v, codes = lyap_df.df_value_region_arrays(lp_df, p_df, X)
    G = lyap_df.df_gradient_arrays(lp_df, p_df, X)
    near = lyap_df.df_near_boundary(lp_df, p_df, X)
    gf = lyap_df.df_grad_dot_f_arrays(lp_df, p_df, X, u)
    for j, row in enumerate(rows):
        dev = Deviation(*row)
        if dev.x2t < 0.0 or dev.x3t < 0.0:
            for fn in (lyap_df.df_region, lyap_df.df_value, lyap_df.df_gradient):
                with pytest.raises(DomainError):
                    fn(lp_df, p_df, dev)
            with pytest.raises(DomainError):
                lyap_df.df_grad_dot_f(lp_df, p_df, dev, u)
            continue
        assert _same(lyap_df.df_value(lp_df, p_df, dev), v[j])
        assert lyap_df.df_region(lp_df, p_df, dev) is list(lyap_df.DfRegion)[codes[j]]
        assert _same(lyap_df.df_grad_dot_f(lp_df, p_df, dev, u), gf[j])
        if near[j]:
            with pytest.raises(OnBoundary):
                lyap_df.df_gradient(lp_df, p_df, dev)
        else:
            g = lyap_df.df_gradient(lp_df, p_df, dev)
            assert all(_same(a, b) for a, b in zip(g, G[j]))


@settings(max_examples=60, deadline=None)
@given(rows=_EN_ROWS, frac=st.floats(0.0, 1.0))
def test_en_wrappers_match_array_path(p_en, lp_en, rows, frac):
    X = np.array(rows)
    v = lyap_en.en_value_many(p_en, lp_en, X)
    codes = lyap_en.en_region_terms(p_en, lp_en, X)[0]
    G = lyap_en.en_gradient_arrays(p_en, lp_en, X)
    near = lyap_en.en_near_boundary(p_en, lp_en, X)
    level = frac * lp_en.l_bar
    member = lyap_en.in_sublevel_many(p_en, lp_en, X, level)
    for j, row in enumerate(rows):
        dev = Deviation(*row)
        assert lyap_en.in_sublevel(p_en, lp_en, dev, level) == member[j]
        if math.isnan(v[j]):
            for fn in (lyap_en.en_region, lyap_en.en_value, lyap_en.en_gradient):
                with pytest.raises(OutOfH):
                    fn(p_en, lp_en, dev)
            continue
        assert _same(lyap_en.en_value(p_en, lp_en, dev), v[j])
        assert lyap_en.en_region(p_en, lp_en, dev).region is list(lyap_en.EnRegion)[codes[j]]
        if near[j]:
            with pytest.raises(OnBoundary):
                lyap_en.en_gradient(p_en, lp_en, dev)
        else:
            g = lyap_en.en_gradient(p_en, lp_en, dev)
            assert all(_same(a, b) for a, b in zip(g, G[j]))


_NONNEG = st.floats(0.0, 1000.0)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_NONNEG, _NONNEG, _NONNEG, st.floats(0.0, 30.0)),
                     min_size=1, max_size=6))
def test_rhs_matches_array_path(p_en, rows):
    S, I, R, B = (np.array(c) for c in zip(*rows))
    F = model.rhs_arrays(p_en, S, I, R, B)
    for j, (s, i, r, b) in enumerate(rows):
        f = model.rhs(p_en, sl.State(s, i, r), b)
        assert all(_same(f[k], F[k][j]) for k in range(3))


@settings(max_examples=5, deadline=None)
@given(x0=st.tuples(_NONNEG, st.floats(0.0, 300.0), _NONNEG), c=st.floats(0.0, 20.0))
def test_steady_state_matches_batch(p_en, x0, c):
    args = dict(tol=1e-6, t_max=1000.0, dt=1.0)
    try:
        batch = ode.steady_state_batch(p_en, [c], np.array([x0]), **args)[0]
    except NotConverged:
        with pytest.raises(NotConverged):
            ode.steady_state(p_en, c, sl.State(*x0), **args)
        return
    single = ode.steady_state(p_en, c, sl.State(*x0), **args)
    assert all(_same(a, b) for a, b in zip(single.as_array(), batch))


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
