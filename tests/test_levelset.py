import csv

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import levelset, lyap_df, lyap_en
from sirlyap.errors import DomainError


def _df_plane_values(ly, poly):
    X = np.column_stack([poly, np.zeros(len(poly))])
    return ly.value_many(X)


def test_analytic_contour_shape(p_df, lp_df):
    cont = levelset.analytic_contour_df(lp_df, p_df, 100.0)
    poly = cont.polylines[0]
    c = p_df.beta * 200.0 / lp_df.mu0
    assert np.allclose(poly, [[100.0, 0.0], [0.0, 100.0],
                              [-c * 100.0, 100.0], [-c * 100.0, 0.0]])
    v = _df_plane_values(lyap_df.DiseaseFreeLyapunov(p_df, lp_df), poly)
    assert np.allclose(v, 100.0, rtol=1e-12)


def test_marching_squares_matches_oracle(ly_df, p_df, lp_df):
    window = ((-300.0, 500.0), (0.0, 520.0))
    res = (300, 300)
    cell = np.hypot((window[0][1] - window[0][0]) / (res[0] - 1),
                    (window[1][1] - window[1][0]) / (res[1] - 1))
    conts = levelset.extract_contours(ly_df, [30.0, 100.0], window=window, resolution=res)
    for cont in conts:
        oracle = levelset.analytic_contour_df(lp_df, p_df, cont.level)
        assert cont.polylines
        for poly in cont.polylines:
            d = levelset.polyline_distance(poly, oracle.polylines[0])
            assert d.max() <= 2.0 * cell


def test_vertex_residual_invariant(ly_df):
    conts = levelset.extract_contours(ly_df, [10.0, 180.0],
                                      window=((-300.0, 500.0), (0.0, 520.0)),
                                      resolution=(250, 250))
    for cont in conts:
        resid = cont.max_residual(lambda poly: _df_plane_values(ly_df, poly))
        assert resid <= 1e-3 * (1.0 + cont.level)


def test_endemic_closed_nested_loops(ly_en, p_en, lp_en):
    window = ((-200.0, 420.0), (-260.0, 440.0))
    res = (280, 280)
    cell = np.hypot((window[0][1] - window[0][0]) / (res[0] - 1),
                    (window[1][1] - window[1][0]) / (res[1] - 1))
    levels = [20.0, 180.0, 340.0]
    conts = levelset.extract_contours(ly_en, levels, window=window, resolution=res)
    for cont in conts:
        assert len(cont.polylines) == 1
        poly = cont.polylines[0]
        assert np.linalg.norm(poly[0] - poly[-1]) <= cell  # closed loop
        def val(q):
            X = np.column_stack([q, np.zeros(len(q))])
            return lyap_en.en_value_many(p_en, lp_en, X, l_cap=1.05 * lp_en.l_bar)
        assert cont.max_residual(val) <= 1e-3 * (1.0 + cont.level)
    for small, big in zip(conts[:-1], conts[1:]):
        inside = levelset.polygon_contains(big.polylines[0], small.polylines[0])
        assert inside.all()  # nested without crossings


@pytest.mark.parametrize("name", ["ly_df", "ly_en"])
def test_default_window_x2t_plane_holds_default_levels(request, name):
    # on x2t = 0 the set {V <= L} reaches x3t = L/lambda3 at x1t = 0
    ly = request.getfixturevalue(name)
    plane = ("x2t", 0.0)
    (_, _), (bottom, top) = ly.default_window(plane)
    cell = (top - bottom) / 199
    conts = levelset.extract_contours(ly, ly.default_levels(), plane=plane,
                                      resolution=(200, 200))
    for cont in conts:
        assert cont.polylines
        x3 = np.concatenate([poly[:, 1] for poly in cont.polylines])
        assert np.all(x3 < top)
        assert abs(x3.max() - cont.level / ly.lp.lambda3) <= cell


def test_level_zero_marker(ly_df):
    conts = levelset.extract_contours(ly_df, [0.0], window=((-10.0, 10.0), (0.0, 10.0)),
                                      resolution=(20, 20))
    assert conts[0].polylines == []
    assert conts[0].marker == (0.0, 0.0)


def test_window_domain_errors(ly_df, ly_en):
    with pytest.raises(DomainError):
        levelset.extract_contours(ly_df, [10.0], window=((-10.0, 10.0), (-5.0, 10.0)))
    x2h = ly_en.equilibrium.point.i
    with pytest.raises(DomainError):
        levelset.extract_contours(ly_en, [10.0],
                                  window=((-10.0, 10.0), (-x2h - 1.0, 10.0)))
    with pytest.raises(DomainError):
        levelset.extract_contours(ly_df, [-1.0], window=((-10.0, 10.0), (0.0, 10.0)))


def test_contours_csv(tmp_path, ly_df):
    conts = levelset.extract_contours(ly_df, [10.0, 0.0],
                                      window=((-40.0, 40.0), (0.0, 40.0)),
                                      resolution=(80, 80))
    path = tmp_path / "contours.csv"
    levelset.write_contours_csv(path, conts)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["level", "polyline_id", "x1", "x2"]
    assert any(r[1] == "-1" for r in rows[1:])  # the degenerate-level marker
    path_abs = tmp_path / "contours_abs.csv"
    levelset.write_contours_csv(path_abs, conts, lyap=ly_df, absolute=True)
    rel = [r for r in rows[1:] if r[0] == "10.0"][0]
    ab = [r for r in list(csv.reader(open(path_abs)))[1:] if r[0] == "10.0"][0]
    assert float(ab[2]) == pytest.approx(float(rel[2]) + 200.0)
