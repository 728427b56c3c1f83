import threading

import numpy as np
import numpy.testing as npt
import pytest

from snbsde import grids
from snbsde.errors import ConfigurationError
from snbsde.grids import (NoiseSource, Path, TimeGrid, increment_rows,
                          window_grid)
from snbsde.models import simulate_forward
from snbsde.presets import build_preset


def test_grid_nodes_and_step():
    grid = TimeGrid(0.0, 1.0, 4)
    npt.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.h == 0.25
    assert grid.n_steps == 4


def test_node_index_exact_and_tolerant():
    grid = TimeGrid(0.0, 1.0, 1000)
    assert grid.node_index(0.5) == 500
    # float noise below the node tolerance still resolves
    assert grid.node_index(0.5 + 1e-12) == 500
    with pytest.raises(ConfigurationError):
        grid.node_index(0.50041)


def test_invalid_grid_rejected():
    with pytest.raises(ConfigurationError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ConfigurationError):
        TimeGrid(0.0, 1.0, 0)


def test_prefix_and_window():
    grid = TimeGrid(0.0, 1.0, 10)
    pre = grid.prefix(0.3)
    assert pre.n_steps == 3
    assert pre.t_end == pytest.approx(0.3)
    win = window_grid(grid, 0.3)
    assert win.t_start == pytest.approx(0.3)
    assert win.n_steps == 7
    npt.assert_allclose(win.times, grid.times[3:])


def test_path_validation():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ConfigurationError):
        Path(grid, np.zeros(4))  # wrong length
    with pytest.raises(ConfigurationError):
        Path(grid, np.array([0.0, 1.0, np.nan, 2.0, 3.0]))
    p = Path(grid, np.arange(5))
    assert p.values.dtype == np.float64 and np.array_equal(p.values, np.arange(5.0))


def test_noise_reproducible_and_stream_separated():
    g = TimeGrid(0.0, 1.0, 64)
    a = NoiseSource(123, 0).increments(g.n_steps, g.h)
    b = NoiseSource(123, 0).increments(g.n_steps, g.h)
    c = NoiseSource(123, 1).increments(g.n_steps, g.h)
    d = NoiseSource(124, 0).increments(g.n_steps, g.h)
    npt.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
    assert np.max(np.abs(a - d)) > 1e-3


def test_noise_increment_scale():
    # variance h per increment, checked loosely on a long stream
    h = 0.01
    inc = NoiseSource(7, 3).increments(200_000, h)
    assert abs(np.var(inc) / h - 1.0) < 0.02
    assert abs(np.mean(inc)) < 3.0 * np.sqrt(h / 200_000)


def test_noise_rejects_bad_ids():
    with pytest.raises(ConfigurationError):
        NoiseSource(-1, 0)
    with pytest.raises(ConfigurationError):
        NoiseSource(0, 2**64)
    with pytest.raises(ConfigurationError):
        increment_rows(2**64, [0], 4, 0.1)
    with pytest.raises(ConfigurationError):
        increment_rows(0, [0, -1], 4, 0.1)
    with pytest.raises(ConfigurationError):
        increment_rows(0, [0], 0, 0.1)
    with pytest.raises(ConfigurationError):
        increment_rows(0, [0], 4, 0.0)


def _philox_oracle(seed, sid, n, h):
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | sid))
    return gen.standard_normal(n) * np.sqrt(h)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 1000])
def test_increment_rows_match_a_fresh_philox_per_stream(seed, n):
    # a re-keyed generator must draw exactly what a generator built from the
    # 128-bit key (seed, stream id) draws, at the edges of both words
    h = 1e-3
    sids = [0, (3 << 32) | 17, 2**64 - 1]
    rows = increment_rows(seed, sids, n, h)
    assert rows.shape == (3, n) and rows.flags.c_contiguous
    for r, sid in enumerate(sids):
        want = _philox_oracle(seed, sid, n, h)
        assert np.array_equal(rows[r], want)
        assert np.array_equal(NoiseSource(seed, sid).increments(n, h), want)


def test_increment_rows_golden_values():
    # frozen draws; any change to the stream layout breaks every stored result
    inc = NoiseSource(20240901, (2 << 32) | 17).increments(1000, 1e-3)
    assert inc[0] == -0.028905906408198713
    assert inc[1] == 0.009304402772468657
    assert inc[999] == -0.016629017608506578


def test_increment_row_independent_of_its_position():
    ids = [5, 2**40 + 1, 0, 77]
    rows = increment_rows(9, ids, 50, 0.02)
    shuffled = increment_rows(9, ids[::-1], 50, 0.02)
    npt.assert_array_equal(rows, shuffled[::-1])
    into = np.full((2, 50), np.nan)
    got = increment_rows(9, ids[2:], 50, 0.02, out=into)
    assert got is into
    npt.assert_array_equal(into, rows[2:])
    # the engine draws into the columns 1..n of its path buffer: rows that
    # are each contiguous, with column 0 left as it was
    wide = np.full((4, 51), np.nan)
    got = increment_rows(9, ids, 50, 0.02, out=wide[:, 1:])
    assert np.shares_memory(got, wide)
    assert wide[:, 1:].tobytes() == rows.tobytes()
    assert np.all(np.isnan(wide[:, 0]))


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 37, 1000])
def test_increment_rows_do_not_depend_on_the_worker_count(monkeypatch, w, m):
    # each row is bit for bit its stream's one-row draw, whatever the split;
    # one worker, or one row, starts no thread
    monkeypatch.setattr(grids, "worker_count", lambda: w)
    if w == 1 or m == 1:
        monkeypatch.setattr(threading, "Thread", _no_thread)
    sids = [(r * 7919) % 2**20 for r in range(m)]
    rows = increment_rows(31, sids, 64, 0.01)
    for r, sid in enumerate(sids):
        assert rows[r].tobytes() == NoiseSource(31, sid).increments(64, 0.01).tobytes()


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("group", [1, 3, 64])
def test_increment_rows_scale_each_row_once_in_groups(monkeypatch, w, group):
    # a worker scales its rows in groups of SCALE_BLOCK // n_steps rows; a
    # group that does not divide a worker's range stops at the range's end,
    # so no row is scaled twice or left unscaled
    monkeypatch.setattr(grids, "worker_count", lambda: w)
    monkeypatch.setattr(grids, "SCALE_BLOCK", group * 50)
    sids = list(range(37))
    rows = increment_rows(9, sids, 50, 0.02)
    for r, sid in enumerate(sids):
        assert rows[r].tobytes() == _philox_oracle(9, sid, 50, 0.02).tobytes()


@pytest.mark.parametrize("w", [1, 2])
def test_increment_rows_check_every_stream_id_before_drawing(monkeypatch, w):
    monkeypatch.setattr(grids, "worker_count", lambda: w)
    out = np.full((4, 8), np.nan)
    with pytest.raises(ConfigurationError):
        increment_rows(3, [0, 1, 2, 2**64], 8, 0.1, out=out)
    assert np.all(np.isnan(out))


def test_run_parts_raises_the_lowest_failing_part_after_joining_all():
    ran = []
    before = threading.active_count()

    def fn(part):
        ran.append(part)
        if part in (2, 3):
            raise ValueError(f"part {part}")

    with pytest.raises(ValueError, match="part 2"):
        grids.run_parts(fn, 4)
    assert sorted(ran) == [0, 1, 2, 3]
    assert threading.active_count() == before

    def first_fails(part):
        if part == 0:
            raise KeyError(part)
        ran.append(part)

    ran.clear()
    with pytest.raises(KeyError):
        grids.run_parts(first_fails, 3)
    assert sorted(ran) == [1, 2]
    assert threading.active_count() == before


def test_brownian_path_starts_at_zero():
    # the driving path simulate_forward returns: W(0) = 0, then the running
    # sums of the stream's increments
    grid = TimeGrid(0.0, 1.0, 100)
    _, w = simulate_forward(build_preset("linear-constant-drift").model, 1.0, 0.1, grid,
                            NoiseSource(5, 0))
    assert w.values[0] == 0.0
    assert w.values.shape == (101,)
    assert np.array_equal(w.values[1:], np.cumsum(NoiseSource(5, 0).increments(100, grid.h)))
