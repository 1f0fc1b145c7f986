import csv
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirlyap as sl
from sirlyap import flow, model, ode
from sirlyap.errors import NonFiniteState

DATA = Path(__file__).resolve().parent / "data"


def test_signal_value_examples():
    assert ode.Constant(3.0).value(10.0) == 3.0
    step = ode.Step(5.0, 3.0, 17.0)
    assert step.value(4.9) == 3.0
    assert step.value(5.0) == 17.0
    sin = ode.Sinusoid(1.0, 2.0, 1.0)
    assert sin.value(3.0 * np.pi / 2.0) == 0.0
    pw = ode.Piecewise(((0.0, 1.0), (2.0, 5.0), (4.0, 0.5)))
    assert pw.value(1.99) == 1.0
    assert pw.value(2.0) == 5.0
    assert pw.value(100.0) == 0.5


def test_signal_value_range():
    assert ode.Constant(3.0).value_range(10.0) == (3.0, 3.0)
    assert ode.Step(5.0, 3.0, 17.0).value_range(10.0) == (3.0, 17.0)
    assert ode.Step(5.0, 3.0, 17.0).value_range(4.0) == (3.0, 3.0)
    pw = ode.Piecewise(((0.0, 1.0), (2.0, 5.0), (4.0, 0.5)))
    assert pw.value_range(3.0) == (1.0, 5.0)
    assert pw.value_range(100.0) == (0.5, 5.0)
    sin = ode.Sinusoid(1.0, 2.0, 1.0)
    assert sin.value_range(10.0) == (0.0, 3.0)  # trough clipped at 0
    lo, hi = sin.value_range(1.0)  # rising quarter wave: no crest in range
    assert lo == 1.0 and hi == pytest.approx(1.0 + 2.0 * np.sin(1.0), rel=1e-15)
    assert ode.Sinusoid(1.0, 0.5, -1.0).value_range(2.0)[0] == 0.5  # trough at t = pi/2


def test_signal_validation_and_json():
    with pytest.raises(ValueError):
        ode.Constant(-1.0)
    with pytest.raises(ValueError):
        ode.Piecewise(((1.0, 2.0), (0.5, 3.0)))
    for sig in (ode.Constant(3.0), ode.Step(5.0, 3.0, 17.0),
                ode.Piecewise(((0.0, 1.0), (2.0, 5.0))), ode.Sinusoid(3.0, 1.0, 0.1)):
        assert ode.signal_from_dict(ode.signal_to_dict(sig)) == sig
    with pytest.raises(ValueError):
        ode.signal_from_dict({"kind": "sawtooth"})

    class Ramp(ode.InputSignal):
        slope: float

    with pytest.raises(ValueError, match="unsupported signal type"):
        ode.signal_to_dict(Ramp(1.0))


def test_equilibrium_is_fixed_point(p_df):
    q = sl.disease_free_eq(p_df)
    traj = sl.integrate(p_df, q, ode.Constant(p_df.b_hat), 100.0, dt=0.05)
    assert np.abs(traj.states - q.as_array()).max() <= 1e-9 * max(1.0, q.n)


def test_long_horizon_convergence_df(p_df):
    traj = sl.integrate(p_df, sl.State(100.0, 50.0, 0.0), ode.Constant(3.0),
                        5000.0, dt=0.05)
    assert np.abs(traj.states[-1] - [200.0, 0.0, 0.0]).sum() < 1e-3


def test_long_horizon_convergence_endemic(p_en):
    q = sl.endemic_eq(p_en)
    traj = sl.integrate(p_en, sl.State(400.0, 100.0, 100.0), ode.Constant(17.0),
                        5000.0, dt=0.05)
    assert np.abs(traj.states[-1] - q.as_array()).sum() < 1e-2


def test_population_bound_and_exact_n(p_df):
    x0 = sl.State(100.0, 50.0, 0.0)
    traj = sl.integrate(p_df, x0, ode.Constant(3.0), 400.0, dt=0.05)
    n_traj = traj.states.sum(axis=1)
    n_exact = model.total_population_exact(x0, 3.0, p_df, traj.times)
    assert np.abs(n_traj - n_exact).max() <= 1e-6 * np.abs(n_exact).max()


def test_rk4_order(p_df):
    x0 = sl.State(150.0, 30.0, 10.0)
    sig = ode.Sinusoid(3.0, 1.0, 0.05)
    ref = sl.integrate(p_df, x0, sig, 50.0, dt=0.0625).states[-1]
    e1 = np.abs(sl.integrate(p_df, x0, sig, 50.0, dt=0.5).states[-1] - ref).sum()
    e2 = np.abs(sl.integrate(p_df, x0, sig, 50.0, dt=0.25).states[-1] - ref).sum()
    assert 8.0 <= e1 / e2 <= 32.0


def test_nonnegativity_preserved(p_en):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x0 = sl.State(*rng.uniform(0.0, 50.0, 3))
        traj = sl.integrate(p_en, x0, ode.Step(10.0, 0.0, 17.0), 200.0, dt=0.05)
        assert traj.states.min() >= 0.0


def test_nonfinite_detection(p_en, monkeypatch):
    # an absurd step size blows the quadratic term up
    with pytest.raises(NonFiniteState):
        sl.integrate(p_en, sl.State(1e5, 1e5, 0.0), ode.Constant(17.0), 4000.0, dt=2000.0)
    # the float rows and the columns raise the same error: here a component
    # below the -1e-12*N floor; with one row overflowing to inf in the same
    # step as another (R = -1) falls below it, the non-finite one
    cases = [(np.array([[1e5, 1e5, 0.0]] * 3), 4000.0, 2000.0,
              "state component below -1e-12*N at t=2000; reduce dt"),
             (np.array([[100.0, 0.0, -1.0], [1e200, 1e200, 0.0]]), 1.0, 0.1,
              "non-finite state at t=0.1; reduce dt")]
    for X0, t_end, dt, message in cases:
        for width in (0, len(X0) + 1):  # all columns, then all float rows
            monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
            with pytest.raises(NonFiniteState) as err, np.errstate(over="ignore", invalid="ignore"):
                ode.integrate_batch(p_en, X0, [ode.Constant(17.0)] * len(X0), t_end, dt)
            assert str(err.value) == message


def test_step_alignment_preserves_order(p_df):
    x0 = sl.State(100.0, 5.0, 0.0)
    sig = ode.Step(2.5, 3.0, 8.0)
    tr = sl.integrate(p_df, x0, sig, 10.0, dt=1.0)
    assert 2.5 in tr.times
    # with the grid aligned to the switch, fourth order survives the jump
    ref = sl.integrate(p_df, x0, sig, 50.0, dt=0.03125).states[-1]
    e1 = np.abs(sl.integrate(p_df, x0, sig, 50.0, dt=0.5).states[-1] - ref).sum()
    e2 = np.abs(sl.integrate(p_df, x0, sig, 50.0, dt=0.25).states[-1] - ref).sum()
    assert 8.0 <= e1 / e2 <= 32.0


def test_integrate_batch_one_signal_per_row(p_df, monkeypatch):
    X0 = np.array([[100.0, 5.0, 0.0], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0]])
    # rows whose signals share their switch times step on the grid of their solo runs
    for sigs in ([ode.Step(2.5, 3.0, 8.0), ode.Step(2.5, 3.0, 1.0)],
                 [ode.Sinusoid(3.0, 1.0, 0.7), ode.Constant(5.0), ode.Sinusoid(8.0, 2.0, 0.3)]):
        for width in (0, 4):  # all stacked, then all float rows
            monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
            rows = ode.integrate_batch(p_df, X0[:len(sigs)], sigs, 10.0, dt=0.5)
            for j, sig in enumerate(sigs):
                alone = ode.integrate_batch(p_df, X0[j:j + 1], [sig], 10.0, dt=0.5)
                assert np.array_equal(rows[j], alone[0])
    # the grid holds every row's switch times
    times = []
    ode.integrate_batch(p_df, X0[:2], [ode.Step(2.5, 3.0, 8.0), ode.Sinusoid(3.0, 1.0, 0.1)],
                        10.0, dt=1.0, observer=lambda t, X, b: times.extend(t[1:]))
    assert 2.5 in times and times[-1] == 10.0
    # exactly one signal per row: a bare signal or a wrong count is refused
    for m, sigs in ((2, [ode.Constant(3.0)] * 3), (2, [ode.Constant(3.0)]), (1, ode.Constant(3.0))):
        with pytest.raises(ValueError, match="one signal per row of X0"):
            ode.integrate_batch(p_df, X0[:m], sigs, 1.0)
    for shape in ((3,), (2, 2), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"X0 must have shape \(m, 3\)"):
            ode.integrate_batch(p_df, np.ones(shape), [ode.Constant(3.0)], 1.0)
    for t_end, dt, message in ((1.0, 0.0, "dt must be positive"), (1.0, -0.5, "dt must be positive"),
                               (-1.0, 0.5, "t_end must be nonnegative")):
        with pytest.raises(ValueError, match=message):
            ode.integrate_batch(p_df, X0, [ode.Constant(3.0)] * 3, t_end, dt=dt)


def test_integrate_batch_observer_sees_blocks(p_df, monkeypatch):
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 4)
    X0 = np.array([[100.0, 5.0, 0.0], [150.0, 20.0, 1.0]])
    sigs = [ode.Step(2.5, 3.0, 8.0), ode.Step(6.0, 3.0, 1.0)]
    blocks = []
    Xf = ode.integrate_batch(p_df, X0, sigs, 10.0, dt=0.5,
                             observer=lambda t, X, b: blocks.append((t, X, b)))
    assert len(blocks) == 5  # twenty steps in blocks of four
    t, X, b = blocks[0]
    assert t[0] == 0.0 and np.array_equal(X[0], X0) and np.array_equal(b[0], [3.0, 3.0])
    for (t, X, b), (t_next, X_next, b_next) in zip(blocks, blocks[1:]):
        assert X.shape == (len(t), 2, 3) and b.shape == (len(t), 2) and 2 <= len(t) <= 5
        assert t_next[0] == t[-1]
        assert np.array_equal(X_next[0], X[-1]) and np.array_equal(b_next[0], b[-1])
    assert np.array_equal(blocks[-1][1][-1], Xf)
    # the blocks' steps form the full grid, each switch time exactly once
    grid = np.concatenate([t[1:] for t, _, _ in blocks])
    expected = []
    for a, c, n in ((0.0, 2.5, 5), (2.5, 6.0, 7), (6.0, 10.0, 8)):
        expected += [a + j * ((c - a) / n) for j in range(1, n)] + [c]
    assert np.array_equal(grid, expected)
    assert list(grid).count(2.5) == 1 and list(grid).count(6.0) == 1


@pytest.mark.parametrize("width", [2, 4])
def test_float_rows_and_columns_agree(p_en, monkeypatch, width):
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 16)
    sigs = [ode.Constant(17.0), ode.Step(2.5, 17.0, 5.0), ode.Sinusoid(17.0, 6.0, 0.7),
            ode.Constant(3.0), ode.Step(6.0, 3.0, 25.0)]
    X0 = np.array([[100.0, 0.0, -1e-13], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0],
                   [50.0, 200.0, 10.0], [400.0, 1.0, 0.0]])

    def run(m, float_rows):
        monkeypatch.setattr(ode, "_FLOAT_ROWS", float_rows)
        blocks = []
        Xf = ode.integrate_batch(p_en, X0[:m], sigs[:m], 10.0, dt=0.1,
                                 observer=lambda t, X, b: blocks.append((t, X, b)))
        return Xf, blocks

    for m in (1, 3, 5):
        Xf, blocks = run(m, width)
        assert blocks[0][1][1, 0, 2] == 0.0 > blocks[0][1][0, 0, 2]  # the first step clips R
        # the same batch once all on float rows and once all on columns
        for ref_width in (m + 1, m):
            Xf_ref, blocks_ref = run(m, ref_width)
            assert np.array_equal(Xf, Xf_ref) and len(blocks) == len(blocks_ref) > 2
            for block, ref in zip(blocks, blocks_ref):
                assert all(np.array_equal(a, b) for a, b in zip(block, ref))
                assert block[1].shape == ref[1].shape == (len(block[0]), m, 3)


def _feeds(monkeypatch, run, m):
    """run() once all on the stacked feed and once all on float rows."""
    out = []
    for width in (0, m + 1):
        monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
        out.append(run())
    return out


def test_stacked_step_follows_the_step_size_of_each_segment(p_en, monkeypatch):
    # three segments of different step sizes: 4 of 0.0925 to the switch at
    # 0.37, 7 of 0.09 to 1.0 and 10 of 0.1; the scalars of one h must not serve another
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 8)
    X0 = np.array([[150.0, 20.0, 1.0], [300.0, 80.0, 40.0], [50.0, 200.0, 10.0]])
    sigs = [ode.Step(0.37, 17.0, 5.0), ode.Piecewise(((0.0, 17.0), (1.0, 3.0))),
            ode.Sinusoid(17.0, 6.0, 0.7)]

    def run():
        blocks = []
        Xf = ode.integrate_batch(p_en, X0, sigs, 2.0, dt=0.1,
                                 observer=lambda t, X, b: blocks.append((t, X, b)))
        return Xf, blocks

    (Xf, blocks), (Xf_ref, blocks_ref) = _feeds(monkeypatch, run, len(X0))
    h = np.diff(np.concatenate([blocks[0][0]] + [t[1:] for t, _, _ in blocks[1:]]))
    assert len(np.unique(h.round(12))) == 3
    assert np.array_equal(Xf, Xf_ref) and len(blocks) == len(blocks_ref) == 3
    for block, ref in zip(blocks, blocks_ref):
        assert all(np.array_equal(a, b) for a, b in zip(block, ref))


def test_replayed_block_reads_the_levels_of_a_switch_inside_it(p_en, monkeypatch):
    # row 0's R = -1e-13 is clipped by the first step, so the first block is
    # replayed, and the step row switches inside it: the replay must start
    # the new segment from its own held level, as the unchecked pass did
    X0 = np.array([[100.0, 0.0, -1e-13], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0]])
    sigs = [ode.Constant(17.0), ode.Step(0.45, 17.0, 5.0), ode.Sinusoid(17.0, 6.0, 0.7)]

    def run():
        blocks = []
        Xf = ode.integrate_batch(p_en, X0, sigs, 2.0, dt=0.1,
                                 observer=lambda t, X, b: blocks.append((t, X, b)))
        return Xf, blocks

    for Xf, blocks in _feeds(monkeypatch, run, len(X0)):
        (t, X, b), = blocks
        assert X[1, 0, 2] == 0.0 > X[0, 0, 2]  # the first step clips R
        assert [sig.value(0.0) for sig in sigs] == list(b[0])
        for k in range(1, len(t)):  # a held level from the step's start, the sinusoid's at its end
            assert list(b[k]) == [sigs[0].value(t[k - 1]), sigs[1].value(t[k - 1]),
                                  sigs[2].value(t[k])]
        alone = []  # the step row as if stepped alone, on the same grid
        ode.integrate_batch(p_en, X0[1:2], sigs[1:2], 2.0, dt=0.1,
                            observer=lambda t, X, b: alone.append(X))
        assert np.array_equal(X[:, 1], alone[0][:, 0]) and np.array_equal(Xf, X[-1])


@pytest.mark.parametrize("m", [1, 2, 12])
def test_observer_levels_have_one_column_per_row(p_en, monkeypatch, m):
    # b is (k+1, m) on both feeds, a one-row batch included, whether the
    # first row's signal holds its level or moves
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 4)
    kinds = [ode.Step(0.45, 17.0, 5.0), ode.Sinusoid(17.0, 6.0, 0.7), ode.Constant(3.0)]
    X0 = np.linspace([50.0, 1.0, 0.0], [400.0, 200.0, 40.0], m)
    for k in range(len(kinds)):
        sigs = ((kinds[k:] + kinds[:k]) * 4)[:m]

        def run():
            levels = []
            ode.integrate_batch(p_en, X0, sigs, 1.0, dt=0.1,
                                observer=lambda t, X, b: levels.append((len(t), b)))
            return levels

        feeds = _feeds(monkeypatch, run, m)
        for levels in feeds:
            assert len(levels) == 3  # ten steps in blocks of four
            assert all(b.shape == (n, m) for n, b in levels)
            assert list(levels[0][1][0]) == [sig.value(0.0) for sig in sigs]
        assert [b.tobytes() for _, b in feeds[0]] == [b.tobytes() for _, b in feeds[1]]


def test_observer_owns_its_blocks(p_en, monkeypatch):
    # what the wide feed hands out must not alias the states it steps on
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 3)
    monkeypatch.setattr(ode, "_FLOAT_ROWS", 2)
    X0 = np.array([[100.0, 5.0, 0.0], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0]])
    sigs = [ode.Constant(17.0), ode.Step(0.45, 17.0, 5.0), ode.Sinusoid(17.0, 6.0, 0.7)]

    def run(observer):
        return ode.integrate_batch(p_en, X0, sigs, 1.0, dt=0.1, observer=observer)

    kept = []
    Xf = run(lambda t, X, b: kept.append((t.copy(), X.copy(), b.copy())))
    starts = []

    def spoil(t, X, b):
        starts.append((t[0], X[0].copy(), b[0].copy()))
        for a in (t, X, b):
            a[...] = np.nan

    Xf_spoilt = run(spoil)
    assert len(starts) == len(kept) == 4  # ten steps in blocks of three
    for (t0, x0, b0), (t, X, b) in zip(starts, kept):
        assert t0 == t[0] and np.array_equal(x0, X[0]) and np.array_equal(b0, b[0])
    assert np.array_equal(Xf_spoilt, Xf)
    last = []
    Xf = run(lambda t, X, b: last.append(X))
    final_row = last[-1][-1].copy()
    Xf[...] = np.nan
    assert np.array_equal(last[-1][-1], final_row)


def test_state_check_at_block_boundaries(p_en, monkeypatch):
    # one step per block: every step starts from the row the previous block
    # ended on, and both feeds check and clip it alike
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 1)
    cases = [(np.array([[1e5, 1e5, 0.0]] * 3), 4000.0, 2000.0,
              "state component below -1e-12*N at t=2000; reduce dt"),
             (np.array([[100.0, 0.0, -1.0], [1e200, 1e200, 0.0]]), 1.0, 0.1,
              "non-finite state at t=0.1; reduce dt")]
    for X0, t_end, dt, message in cases:
        for width in (0, len(X0) + 1):
            monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
            with pytest.raises(NonFiniteState) as err, np.errstate(over="ignore", invalid="ignore"):
                ode.integrate_batch(p_en, X0, [ode.Constant(17.0)] * len(X0), t_end, dt)
            assert str(err.value) == message
    X0 = np.array([[100.0, 0.0, -1e-13], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0]])
    sigs = [ode.Constant(17.0), ode.Step(2.5, 17.0, 5.0), ode.Sinusoid(17.0, 6.0, 0.7)]
    runs = []
    for width in (0, len(X0) + 1):
        monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
        blocks = []
        Xf = ode.integrate_batch(p_en, X0, sigs, 10.0, dt=0.1,
                                 observer=lambda t, X, b: blocks.append((t, X, b)))
        assert blocks[0][1][1, 0, 2] == 0.0 > blocks[0][1][0, 0, 2]  # the first step clips R
        assert len(blocks) == 100 and all(len(t) == 2 for t, _, _ in blocks)
        runs.append((Xf, blocks))
    (Xf, blocks), (Xf_ref, blocks_ref) = runs
    assert np.array_equal(Xf, Xf_ref)
    for block, ref in zip(blocks, blocks_ref):
        assert all(np.array_equal(a, b) for a, b in zip(block, ref))


def _observed(p, X0, signals, t_end, dt, expect):
    """Run integrate_batch; return its rows 1.. joined over the observer
    blocks, the final batch (None on error) and the error text."""
    blocks, Xf, error = [], None, None
    with pytest.raises(NonFiniteState) if expect else nullcontext() as err:
        Xf = ode.integrate_batch(p, X0, signals, t_end, dt,
                                 observer=lambda t, X, b: blocks.append((t, X, b)))
    if expect:
        error = str(err.value)
    rows = [np.concatenate([blk[j][1:] for blk in blocks]) if blocks else None
            for j in range(3)]
    return rows, Xf, error


def test_mid_block_failures_replay_exactly(p_en, monkeypatch):
    # nineteen steps of 1e-9 (the switch times of a constant Piecewise) come
    # before the step that fails or clips: the 20th, the fourth of the second
    # block of 16
    ticks = ode.Piecewise(tuple((j * 1e-9, 17.0) for j in range(20)))
    t_c = 0.13688950680820497  # step 20 ends at t_c with I = -1.1e-9: clipped to 0
    clip = ode.Piecewise(ticks.points + tuple((t_c + 0.01 * j, 17.0) for j in range(13)))
    cases = [(np.array([[1e5, 1e5, 0.0]] * 3), [ticks] * 3, 4000.0, 2000.0,
              "state component below -1e-12*N at t=2000; reduce dt"),
             # one row falls below the floor as the other overflows (its
             # input jumps to 1e308): the non-finite one is reported
             (np.array([[1e5, 1e5, 0.0], [100.0, 50.0, 10.0]]),
              [ticks, ode.Step(19e-9, 17.0, 1e308)], 4000.0, 2000.0,
              "non-finite state at t=2000; reduce dt"),
             (np.array([[1e5, 1e5, 0.0], [150.0, 20.0, 1.0], [300.0, 80.0, 40.0]]),
              [clip, ode.Constant(17.0), ode.Sinusoid(17.0, 6.0, 0.7)], t_c + 0.13, 1.0, None)]
    for X0, sig, t_end, dt, message in cases:
        runs = {}
        for width in (0, len(X0) + 1):  # all stacked, then all float rows
            monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
            for block_steps in (16, 1):
                monkeypatch.setattr(flow, "_BLOCK_STEPS", block_steps)
                with np.errstate(over="ignore", invalid="ignore"):
                    runs[width, block_steps] = _observed(p_en, X0, sig, t_end, dt, message)
        rows, Xf, error = runs[0, 1]
        assert error == message and len(rows[0]) == (19 if message else 33)
        if message is None:
            assert rows[1][19, 0, 1] == 0.0 and rows[1][18, 0, 1] > 0.0  # the clip at step 20
        for (width, block_steps), (rows_k, Xf_k, error_k) in runs.items():
            # a failing run observes the first block of 16 only
            n = 16 if message and block_steps == 16 else len(rows[0])
            assert error_k == error and len(rows_k[0]) == n
            assert all(np.array_equal(a[:n], b) for a, b in zip(rows, rows_k))
            assert Xf_k is None if message else np.array_equal(Xf_k, Xf)


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}])
def test_replay_gives_the_same_numpy_warnings(p_en, monkeypatch, errstate):
    # the overflow of the second case above, on the stacked feed: the
    # unchecked run warns of nothing, the replay as the per-step check does
    monkeypatch.setattr(ode, "_FLOAT_ROWS", 0)
    ticks = ode.Piecewise(tuple((j * 1e-9, 17.0) for j in range(20)))
    X0 = np.array([[1e5, 1e5, 0.0], [100.0, 50.0, 10.0]])
    sigs = [ticks, ode.Step(19e-9, 17.0, 1e308)]
    seen = []
    for block_steps in (16, 1):
        monkeypatch.setattr(flow, "_BLOCK_STEPS", block_steps)
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
            warnings.simplefilter("always")
            with pytest.raises((NonFiniteState, FloatingPointError)) as err:
                ode.integrate_batch(p_en, X0, sigs, 4000.0, 2000.0)
        seen.append((type(err.value), str(err.value),
                     [(w.category, str(w.message), w.filename, w.lineno) for w in caught]))
    assert seen[0] == seen[1]
    assert seen[0][2] if not errstate else seen[0][0] is FloatingPointError


def test_negative_zero_is_replayed_and_clipped(p_en, monkeypatch):
    # with dR/dt = R a -0.0 in R stays -0.0 through a step; the state check
    # clips it to +0.0, so the block that holds it is replayed
    calls = []

    def field(p, s, i, r, b):
        calls.append(1)
        ds, di, _ = model.rhs_arrays(p, s, i, r, b)
        return ds, di, r * 1.0

    def stacked(p, out):
        library = model.rhs_stacked(p, out)

        def field(Y, s, i, b):
            calls.append(1)
            library(Y, s, i, b)
            np.multiply(Y[2], 1.0, out=out[2])
            return out

        return field

    monkeypatch.setattr(ode, "rhs_stacked", stacked)  # the stacked feed
    monkeypatch.setattr(flow, "rhs_arrays", field)  # the float rows
    monkeypatch.setattr(flow, "_BLOCK_STEPS", 4)
    for width in (0, 3):
        monkeypatch.setattr(ode, "_FLOAT_ROWS", width)
        runs = []
        for r0 in (0.0, -0.0):
            calls.clear()
            X0 = np.array([[100.0, 5.0, r0], [150.0, 20.0, 1.0]])
            rows, Xf, _ = _observed(p_en, X0, [ode.Constant(17.0)] * 2, 1.0, 0.1, None)
            runs.append((rows, Xf, len(calls)))
        (rows, Xf, n), (rows_neg, Xf_neg, n_neg) = runs
        assert not np.signbit(rows_neg[1]).any() and rows_neg[1][0, 0, 2] == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(rows, rows_neg))
        assert np.array_equal(Xf, Xf_neg) and not np.signbit(Xf_neg).any()
        assert n_neg == n * 14 // 10  # ten steps, the first block of four twice


_LEVEL = st.floats(0.0, 30.0)
_SIGNAL = st.one_of(st.builds(ode.Constant, _LEVEL),
                    st.builds(ode.Step, st.floats(0.0, 3.0), _LEVEL, _LEVEL),
                    st.builds(ode.Sinusoid, _LEVEL, st.floats(0.0, 20.0), st.floats(0.1, 5.0)))
#: a plain start, or one whose R = -1e-13 makes its block replay and clip
_START = st.one_of(st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
                   st.builds(lambda s: (s, 0.0, -1e-13), st.floats(1.0, 500.0)))


@st.composite
def _batches(draw):
    m = draw(st.integers(1, 30))
    X0 = np.array(draw(st.lists(_START, min_size=m, max_size=m)))
    if draw(st.sampled_from([False, False, False, True])):
        X0[draw(st.integers(0, m - 1))] = [1e200, 1e200, 0.0]  # overflows: NonFiniteState
    # a signal of its own for each row, or one signal repeated on every row
    sig = draw(st.lists(_SIGNAL, min_size=m, max_size=m)) if draw(st.booleans()) \
        else [draw(_SIGNAL)] * m
    return X0, sig, draw(st.floats(0.0, 3.0)), draw(st.sampled_from([0.1, 0.3]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=_batches(), block_steps=st.sampled_from([1, 3, 512]))
def test_both_feeds_run_one_block_stepper_bit_identically(p_en, batch, block_steps):
    X0, sig, t_end, dt = batch
    runs = []
    for float_rows in (0, len(X0) + 1):  # all stacked, then all float rows
        calls, blocks, Xf, error = [], [], None, None
        with pytest.MonkeyPatch.context() as mp:
            stepper = flow.blocks
            mp.setattr(flow, "blocks", lambda *args: calls.append(1) or stepper(*args))
            mp.setattr(flow, "_BLOCK_STEPS", block_steps)
            mp.setattr(ode, "_FLOAT_ROWS", float_rows)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    Xf = ode.integrate_batch(p_en, X0, sig, t_end, dt, observer=lambda t, X, b:
                                             blocks.append([(a.tobytes(), a.flags.c_contiguous)
                                                            for a in (t, X, b)]))
            except NonFiniteState as exc:
                error = str(exc)
        assert calls == [1]  # each feed steps through flow.blocks
        assert all(contiguous for block in blocks for _, contiguous in block)
        runs.append((None if Xf is None else Xf.tobytes(), blocks, error))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name, sig", [("step", ode.Step(3.05, 17.0, 5.0)),
                                       ("sinusoid", ode.Sinusoid(17.0, 6.0, 0.7))])
def test_trajectory_csv_matches_golden(tmp_path, monkeypatch, p_en, name, sig):
    # recorded before the state check moved to once per block and the input
    # levels to once per segment; the 16-step blocks cross the step's switch
    golden = (DATA / f"trajectory_{name}.csv").read_bytes()
    for block_steps in (flow._BLOCK_STEPS, 16):
        monkeypatch.setattr(flow, "_BLOCK_STEPS", block_steps)
        traj = sl.integrate(p_en, sl.State(300.0, 80.0, 40.0), sig, 10.0, dt=0.1)
        traj.to_csv(tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == golden


def test_step_calls_library_vector_field(p_df, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return model.rhs_arrays(*args)

    monkeypatch.setattr(flow, "rhs_arrays", counted)
    sl.integrate(p_df, sl.State(100.0, 50.0, 0.0), ode.Constant(3.0), 1.0, dt=0.1)
    assert len(calls) == 40  # four stages for each of the ten steps


def test_trajectory_csv(tmp_path, p_df):
    x0, sig = sl.State(100.0, 50.0, 0.0), ode.Constant(3.0)
    traj = sl.integrate(p_df, x0, sig, 5.0, dt=0.1)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["t", "S", "I", "R", "B"]
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 5.0
    assert len(rows) - 1 == 51  # row 0 and one row per step


@pytest.mark.parametrize("thin", [1, 3, 4096])
def test_trajectory_csv_matches_csv_module_across_blocks(tmp_path, thin):
    # more rows than one block of CSV text (at thin 1), with values whose
    # repr is unusual; the trajectory keeps every `thin`-th record plus the last
    rng = np.random.default_rng(3)
    n = 9000
    states = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    states[0] = [-0.0, 0.0, 1e-320]
    times, inputs = np.arange(n) * 0.1, rng.random(n)
    keep = sorted(set(range(0, n, thin)) | {n - 1})
    ode.Trajectory(times[keep], states[keep], inputs[keep]).to_csv(tmp_path / "traj.csv")
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "S", "I", "R", "B"])
        for j in keep:
            w.writerow([repr(float(x)) for x in (times[j], *states[j], inputs[j])])
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_streamed_rows_keep_times_strictly_increasing(p_df, monkeypatch):
    grid = flow._grid

    def stalled(*args):  # the third step ends where the second did
        for k, (t, h, t_next, rate) in enumerate(grid(*args)):
            yield t, h, t if k == 2 else t_next, rate

    monkeypatch.setattr(flow, "_grid", stalled)
    x0, sig = sl.State(100.0, 50.0, 0.0), ode.Constant(3.0)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        sl.integrate(p_df, x0, sig, 1.0, dt=0.1)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        ode.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        ode.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)), np.zeros(2))

