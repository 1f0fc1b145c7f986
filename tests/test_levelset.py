import csv
import json
from pathlib import Path

import numpy as np
import pytest

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
    with pytest.raises(DomainError, match="level must be positive"):
        levelset.analytic_contour_df(lp_df, p_df, 0.0)


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
        for poly in cont.polylines:
            resid = np.abs(_df_plane_values(ly_df, poly) - cont.level)
            assert resid.max() <= 1e-3 * (1.0 + cont.level)


def test_endemic_closed_nested_loops(ly_en, p_en, lp_en):
    window = ((-200.0, 420.0), (-260.0, 440.0))
    res = (280, 280)
    cell = np.hypot((window[0][1] - window[0][0]) / (res[0] - 1),
                    (window[1][1] - window[1][0]) / (res[1] - 1))
    levels = [20.0, 180.0, 340.0]
    conts = levelset.extract_contours(ly_en, levels, window=window, resolution=res)
    for cont in conts:
        assert len(cont.polylines) == 1
        poly = np.asarray(cont.polylines[0])
        assert np.linalg.norm(poly[0] - poly[-1]) <= cell  # closed loop
        X = np.column_stack([poly, np.zeros(len(poly))])
        v = lyap_en.en_value_many(p_en, lp_en, X, l_cap=1.05 * lp_en.l_bar)
        assert np.abs(v - cont.level).max() <= 1e-3 * (1.0 + cont.level)
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
        x3 = np.concatenate([np.asarray(poly)[:, 1] for poly in cont.polylines])
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
    x2h = ly_en.equilibrium.i
    with pytest.raises(DomainError):
        levelset.extract_contours(ly_en, [10.0],
                                  window=((-10.0, 10.0), (-x2h - 1.0, 10.0)))
    with pytest.raises(DomainError):
        levelset.extract_contours(ly_df, [-1.0], window=((-10.0, 10.0), (0.0, 10.0)))
    for window in (((10.0, 10.0), (0.0, 10.0)), ((-10.0, 10.0), (5.0, 0.0))):
        with pytest.raises(DomainError, match="window must have positive extent"):
            levelset.extract_contours(ly_df, [10.0], window=window)
    with pytest.raises(ValueError, match="plane axis must be 'x2t' or 'x3t'"):
        levelset.extract_contours(ly_df, [10.0], plane=("x1t", 0.0))
    for resolution in ((1, 20), (20, 1)):
        with pytest.raises(ValueError, match="resolution must be at least 2x2"):
            levelset.extract_contours(ly_df, [10.0], resolution=resolution)


def test_contours_csv(tmp_path, ly_df):
    conts = levelset.extract_contours(ly_df, [10.0, 0.0],
                                      window=((-40.0, 40.0), (0.0, 40.0)),
                                      resolution=(80, 80))
    path = tmp_path / "contours.csv"
    levelset.write_contours_csv(path, conts)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["level", "polyline_id", "x1", "x2"]
    assert any(r[1] == "-1" for r in rows[1:])  # the degenerate-level marker


def test_failed_contours_csv_leaves_the_earlier_file(tmp_path, ly_df):
    conts = levelset.extract_contours(ly_df, [10.0, 20.0], window=((-40.0, 40.0), (0.0, 40.0)))
    path = tmp_path / "levelsets_df.csv"
    levelset.write_contours_csv(path, conts)
    before = path.read_bytes()
    # the second level's vertex is no number: the write raises after the first level's rows
    bad = [conts[0], levelset.Contour(20.0, ("x3t", 0.0), [[(1.0, 2.0), ("x", 3.0)]])]
    with pytest.raises(ValueError):
        levelset.write_contours_csv(path, bad)
    assert path.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["levelsets_df.csv"]


def _plane_points(plane, pts):
    """The deviations, an (n, 3) array, of points given in a plane's free coordinates."""
    X = np.empty((len(pts), 3))
    free = [0, 1] if plane[0] == "x3t" else [0, 2]
    X[:, free] = pts
    X[:, 2 if plane[0] == "x3t" else 1] = plane[1]
    return X


def _values(ly, X):
    """V as the benchmark gate takes it: the endemic domain cap dropped."""
    if isinstance(ly, lyap_en.EndemicLyapunov):
        return lyap_en.en_value_many(ly.p, ly.lp, X, l_cap=np.inf)
    return ly.value_many(X)


#: per function, planes at c = 0 and c != 0 on both axes (the disease-free
#: function needs x2t, x3t >= 0)
_PLANES = {"ly_df": [("x3t", 0.0), ("x3t", 400.0), ("x2t", 0.0), ("x2t", 40.0)],
           "ly_en": [("x3t", 0.0), ("x3t", 2000.0), ("x2t", 0.0), ("x2t", -40.0),
                     ("x2t", 60.0)]}


@pytest.mark.parametrize("name", ["ly_df", "ly_en"])
def test_ring_agrees_with_value_signs(request, name):
    # an independent cross-check of each level ring: on a dense grid of the
    # default window, V < level exactly at the points the ring encloses.  The
    # grid's x1t nodes are the endemic x2t-plane graph's abscissae, where its
    # chords are exact; the disease-free ring is closed along w = 0, below
    # the window.
    ly = request.getfixturevalue(name)
    n = 161
    for plane in _PLANES[name]:
        window = ly.default_window(plane)
        us = np.linspace(*window[0], n)
        vs = np.linspace(*window[1], 203)
        pts = np.stack(np.meshgrid(us, vs), axis=-1).reshape(-1, 2)
        v = ly.value_many(_plane_points(plane, pts))
        compared = 0
        for level in ly.default_levels():
            ring = ly.level_ring(level, plane, window, n)
            if ring is None:
                assert np.all(~(v < level))
                continue
            inside = levelset.polygon_contains(ring, pts)
            clear = np.isfinite(v) & (np.abs(v - level) > 1e-9 * (1.0 + level))
            assert np.array_equal(inside[clear], v[clear] < level), (plane, level)
            assert not np.any(inside & ~np.isfinite(v))  # the ring stays in the domain
            compared += 1
        assert compared >= 3


@pytest.mark.parametrize("name", ["ly_df", "ly_en"])
def test_every_vertex_lies_on_its_level(request, name):
    ly = request.getfixturevalue(name)
    levels = ly.default_levels()
    for plane in _PLANES[name]:
        conts = levelset.extract_contours(ly, levels, plane=plane, resolution=(300, 300))
        assert sum(len(c.polylines) for c in conts) >= 3
        for cont in conts:
            for poly in cont.polylines:
                resid = np.abs(_values(ly, _plane_points(plane, poly)) - cont.level)
                assert resid.max() <= 1e-12 * (1.0 + cont.level), (plane, cont.level)


def test_endemic_hexagon_at_the_budget(ly_en, p_en, lp_en):
    # at level l_bar the A/B vertex lies on the closed edge x2t <= l_bar/lam0 of H
    hexagon = np.asarray(lyap_en.en_level_hexagon(p_en, lp_en, lp_en.l_bar))
    X = np.column_stack([hexagon, np.zeros(6)])
    assert hexagon[1, 1] == lp_en.l_bar / (lp_en.lambda2 * (1.0 - lp_en.k))
    v = lyap_en.en_value_many(p_en, lp_en, X)
    assert np.all(np.abs(v - lp_en.l_bar) <= 1e-12 * (1.0 + lp_en.l_bar))
    cont, = levelset.extract_contours(ly_en, [lp_en.l_bar])
    assert len(cont.polylines) == 1 and len(cont.polylines[0]) == 7
    assert np.array_equal(cont.polylines[0][0], cont.polylines[0][-1])


@pytest.mark.parametrize("plane", [("x3t", 0.0), ("x2t", 0.0)])
def test_endemic_levels_beyond_the_budget_are_refused(ly_en, lp_en, plane):
    levelset.extract_contours(ly_en, [lp_en.l_bar * (1.0 + 1e-13)], plane=plane)
    with pytest.raises(DomainError, match="budget"):
        levelset.extract_contours(ly_en, [20.0, lp_en.l_bar * (1.0 + 1e-9)], plane=plane)


def test_window_cuts_rings_into_open_pieces(ly_en):
    # the right border x1t = 0 leaves the left half of each hexagon; a band
    # |x2t| <= 17.1 leaves a left and a right piece of the level-180 hexagon,
    # each ending exactly on the band's edges (where interpolation alone
    # would miss them by rounding)
    half, = levelset.extract_contours(ly_en, [180.0], window=((-200.0, 0.0), (-260.0, 440.0)))
    band, = levelset.extract_contours(ly_en, [180.0], window=((-200.0, 420.0), (-17.1, 17.1)))
    assert len(half.polylines) == 1
    ends = np.asarray(half.polylines[0])[[0, -1]]
    assert np.all(ends[:, 0] == 0.0) and ends[0, 1] * ends[1, 1] < 0.0
    assert len(band.polylines) == 2
    for poly in map(np.asarray, band.polylines):
        assert sorted(poly[[0, -1], 1]) == [-17.1, 17.1]
        assert np.all(np.abs(poly[:, 1]) <= 17.1)
    assert sorted(np.sign(np.asarray(poly)[0, 0]) for poly in band.polylines) == [-1.0, 1.0]


@pytest.mark.parametrize("c", [60.0, -40.0])
def test_endemic_graph_has_vertices_at_region_boundaries(ly_en, p_en, lp_en, c):
    # on x2t = c the graph kinks where the line crosses x1t = -k*x2t and the
    # curve nu (c > 0) or theta^{-1}(-x2t) (c < 0); a chord across a kink
    # would cut its corner, so each is a vertex of the ring
    plane = ("x2t", c)
    ring = ly_en.level_ring(180.0, plane, ly_en.default_window(plane), 50)
    kink = lyap_en.nu_fun(p_en, lp_en, c) if c > 0.0 else lyap_en.theta_inv(p_en, -c)
    assert {-lp_en.k * c, float(kink)} <= set(np.asarray(ring)[:, 0].tolist())


def test_planes_that_miss_the_level(ly_df, ly_en):
    # on x3t = c the endemic level L needs L > lambda3*|c|, and on x2t = c
    # a chord of the hexagon; the disease-free ring needs L > lambda3*c
    lam3 = ly_en.lp.lambda3
    for c in (100.0 / lam3, -100.0 / lam3, 200.0 / lam3):
        conts = levelset.extract_contours(ly_en, [50.0, 100.0], plane=("x3t", c))
        assert all(cont.polylines == [] and cont.marker is None for cont in conts)
    top = 20.0 / ly_en.lp.lam0
    conts = levelset.extract_contours(ly_en, [20.0, 100.0], plane=("x2t", top))
    assert conts[0].polylines == [] and len(conts[1].polylines) == 1
    c = 200.0 / ly_df.lp.lambda3
    conts = levelset.extract_contours(ly_df, [100.0, 300.0], plane=("x3t", c))
    assert conts[0].polylines == [] and len(conts[1].polylines) == 1


@pytest.mark.parametrize("plane", [("x3t", 0.0), ("x2t", 0.0)])
def test_endemic_level_zero_marker(ly_en, plane):
    cont, = levelset.extract_contours(ly_en, [0.0], plane=plane)
    assert cont.polylines == [] and cont.marker == (0.0, 0.0)


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


@pytest.mark.parametrize("name, plane", [("ly_df", ("x3t", 400.0)), ("ly_df", ("x2t", 40.0)),
                                         ("ly_en", ("x3t", 2000.0)), ("ly_en", ("x2t", -40.0)),
                                         ("ly_en", ("x2t", 60.0))])
def test_level_zero_marks_nothing_off_the_anchor(request, name, plane):
    # a plane x3t = c > 0 or x2t = c != 0 misses the anchor, and V > 0 all
    # over it, so its level-0 set is empty: no marker at (0, 0)
    ly = request.getfixturevalue(name)
    assert ly.value_many(_plane_points(plane, [(0.0, 0.0)]))[0] > 0.0
    cont, = levelset.extract_contours(ly, [0.0], plane=plane)
    assert cont.polylines == [] and cont.marker is None
