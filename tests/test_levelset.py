import csv
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sirlyap as sl
from sirlyap import cli, levelset, lyap_df, lyap_en
from sirlyap.errors import DomainError

ROOT = Path(__file__).resolve().parents[1]


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


class _Stub:
    """A Lyapunov stand-in whose value on the x3t = 0 plane is fn(u, v); it
    counts the rows and calls it is asked to evaluate."""

    def __init__(self, fn, window=((-1.0, 1.0), (-1.0, 1.0))):
        self.fn, self.window = fn, window
        self.rows = self.calls = 0

    def default_window(self, plane):
        return self.window

    def contour_values(self, levels, plane, window):
        return self.values

    def values(self, X):
        self.rows += len(X)
        self.calls += 1
        return self.fn(X[:, 0], X[:, 1])


def _contours(stub, level, resolution):
    """The polylines of one level, checked against the two marching-squares
    invariants: every vertex within the contour tolerance of the level, and
    every segment of the march in exactly one chain."""
    polys = levelset.extract_contours(stub, [level], resolution=resolution)[0].polylines
    for poly in polys:
        resid = np.abs(stub.fn(poly[:, 0], poly[:, 1]) - level)
        assert resid.max() <= levelset.CONTOUR_TOL * (1.0 + level)
    (u0, u1), (v0, v1) = stub.window
    U, V = np.meshgrid(np.linspace(u0, u1, resolution[0]), np.linspace(v0, v1, resolution[1]))
    Z = stub.fn(U, V)
    segments = levelset._march(Z, [level])[0]
    chains = levelset._stitch(segments)
    links = Counter(frozenset(pair) for chain in chains for pair in zip(chain[:-1], chain[1:]))
    assert links == Counter(frozenset(pair) for pair in segments.tolist())
    assert set(links.values()) <= {1}
    assert len(chains) == len(polys)
    return polys, segments


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_saddle_cells_take_both_resolutions(sign):
    # one cell whose diagonal corners lie 1 above and 1 below the offset a:
    # case 5 for sign +1, case 10 for sign -1.  The centre value a picks the
    # resolution that agrees with it: above the level it joins the two
    # corners above, so the segments cut off the two corners below.
    # Edge ids: bottom 0, top 1, left 2, right 3; each segment cuts a corner.
    cut_c01_c10 = {frozenset({2, 1}), frozenset({0, 3})}
    cut_c00_c11 = {frozenset({2, 0}), frozenset({3, 1})}
    expected = {1.2: cut_c01_c10, 0.8: cut_c00_c11} if sign > 0 else \
        {1.2: cut_c00_c11, 0.8: cut_c01_c10}
    for a, cut in expected.items():
        stub = _Stub(lambda u, v: a + sign * u * v)
        polys, segments = _contours(stub, 1.0, (2, 2))
        assert len(polys) == 2 and all(len(poly) == 2 for poly in polys)
        assert {frozenset(pair) for pair in segments.tolist()} == cut


def test_cells_with_a_nan_corner_are_skipped():
    # the unit circle, undefined right of u = 0.3: one open arc whose ends
    # sit on the last finite grid column
    stub = _Stub(lambda u, v: np.where(u > 0.3, np.nan, u * u + v * v),
                 window=((-2.0, 2.0), (-2.0, 2.0)))
    polys, _ = _contours(stub, 1.0, (41, 41))
    xs = np.linspace(-2.0, 2.0, 41)
    last = xs[xs <= 0.3].max()
    assert len(polys) == 1
    poly = polys[0]
    assert np.all(poly[:, 0] <= last)
    assert poly[0, 0] == poly[-1, 0] == last
    assert poly[0, 1] * poly[-1, 1] < 0.0


def test_one_level_two_disjoint_loops():
    stub = _Stub(lambda u, v: np.minimum((u - 1.0) ** 2, (u + 1.0) ** 2) + v * v,
                 window=((-2.5, 2.5), (-1.5, 1.5)))
    polys, _ = _contours(stub, 0.25, (101, 61))
    assert len(polys) == 2
    for poly in polys:
        assert np.array_equal(poly[0], poly[-1])  # closed
    assert sorted(round(float(poly[:, 0].mean())) for poly in polys) == [-1, 1]


def test_open_chains_come_before_loops():
    # the loop around (-1, 0) starts in an earlier cell than the arc that the
    # right border cuts from the disc around (2.2, 0)
    stub = _Stub(lambda u, v: np.minimum((u + 1.0) ** 2, (u - 2.2) ** 2) + v * v,
                 window=((-2.5, 2.5), (-1.0, 1.0)))
    polys, _ = _contours(stub, 0.25, (101, 41))
    assert len(polys) == 2
    assert polys[0][0, 0] == polys[0][-1, 0] == 2.5  # the arc, open on the border
    assert np.array_equal(polys[1][0], polys[1][-1])  # the loop, closed


def test_open_chain_ends_on_the_window_border():
    stub = _Stub(lambda u, v: (u + 0.5) ** 2 + v * v, window=((0.0, 2.0), (-2.0, 2.0)))
    polys, _ = _contours(stub, 1.0, (60, 80))
    assert len(polys) == 1
    ends = polys[0][[0, -1]]
    assert np.all(ends[:, 0] == 0.0)
    assert np.allclose(np.abs(ends[:, 1]), np.sqrt(0.75), atol=1e-3)
    assert ends[0, 1] * ends[1, 1] < 0.0


@pytest.mark.parametrize("levels", [[-1.0], [0.0], []])
def test_no_grid_evaluation_without_a_positive_level(levels):
    stub = _Stub(lambda u, v: u * u + v * v)
    if levels and levels[0] < 0.0:
        with pytest.raises(DomainError):
            levelset.extract_contours(stub, levels)
    else:
        conts = levelset.extract_contours(stub, levels)
        assert [c.marker for c in conts] == [(0.0, 0.0)] * len(levels)
    assert stub.rows == 0


def test_one_bisection_pass_for_all_levels():
    # the grid costs the same in every run, so the extra calls are the
    # bisection steps, and they do not grow with the number of levels
    calls = []
    for levels in ([0.3], [0.1, 0.3, 0.6, 0.9]):
        stub = _Stub(lambda u, v: u * u + v * v)
        levelset.extract_contours(stub, levels, resolution=(300, 500))
        calls.append(stub.calls)
    assert calls[0] == calls[1]


def test_banded_grid_matches_one_call():
    # 300 columns give 218-row bands, so 500 rows take three bands, the last
    # one short
    xs, ys = np.linspace(-1.0, 2.0, 300), np.linspace(0.5, 3.0, 500)
    stub = _Stub(lambda u, v: np.abs(u - v) / (1.0 + v))
    Z = levelset._grid_values(stub.values, xs, ys, [0, 1], 2, 0.0)
    U, V = np.meshgrid(xs, ys)
    assert stub.calls == 3
    assert np.array_equal(Z, stub.fn(U, V))


def _golden_config(name, axis):
    """A checked-in config at 120x120 on the plane `axis` = 0; the x2t plane
    takes the function's default window."""
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    cfg.update(resolution=[120, 120], plane={"axis": axis, "value": 0.0})
    if axis == "x2t":
        del cfg["window"]
    return cfg


@pytest.mark.parametrize("axis", ["x3t", "x2t"])
@pytest.mark.parametrize("name", ["df", "endemic"])
def test_levelsets_match_golden_csv(tmp_path, capsys, name, axis):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_golden_config(name, axis)))
    assert cli.main(["levelsets", "--config", str(path), "--out", str(tmp_path)]) == 0
    golden = ROOT / "tests" / "data" / f"levelsets_{name}_{axis}.csv"
    assert (tmp_path / f"levelsets_{name}.csv").read_bytes() == golden.read_bytes()
