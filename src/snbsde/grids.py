"""Uniform time grids, discrete paths, and reproducible Brownian noise."""

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

# Relative tolerance used when matching a requested time to a grid node.
NODE_ATOL = 1e-9
# Element cap of the groups of rows the draw scales in one multiply each.
SCALE_BLOCK = 32_768


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start = t_0 < t_1 < ... < t_n = t_end."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ConfigurationError("TimeGrid requires t_end > t_start")
        if self.n_steps < 1:
            raise ConfigurationError("TimeGrid requires n_steps >= 1")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    def node_index(self, t: float) -> int:
        """Index of the node equal to t; raises if t is not a node."""
        i = int(round((t - self.t_start) / self.h))
        if i < 0 or i > self.n_steps:
            raise ConfigurationError(f"time {t} outside grid [{self.t_start}, {self.t_end}]")
        if abs(self.times[i] - t) > NODE_ATOL * max(1.0, abs(t)):
            raise ConfigurationError(f"time {t} is not a node of the grid (h={self.h})")
        return i

    def prefix(self, t: float) -> "TimeGrid":
        """Sub-grid from t_start up to the node at t."""
        i = self.node_index(t)
        if i == 0:
            raise ConfigurationError("prefix grid must contain at least one step")
        return TimeGrid(self.t_start, float(self.times[i]), i)


@dataclass
class Path:
    """Real-valued function sampled on every node of a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_steps + 1,):
            raise ConfigurationError(
                f"path has {self.values.shape} values for a grid of {self.grid.n_steps + 1} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("path contains non-finite values")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def _check_u64(name: str, value) -> int:
    v = int(value)
    if not 0 <= v < 2**64:
        raise ConfigurationError(f"{name} must be an unsigned 64-bit integer")
    return v


def worker_count() -> int:
    """Number of CPUs this process may run on: the workers of a split pass."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_parts(fn: Callable[[int], None], parts: int) -> None:
    """Call fn(0), ..., fn(parts - 1) at once: part 0 on the calling thread
    and every other part on a plain thread of its own, each under the
    caller's NumPy error state (it is per thread).  With one part fn(0) is
    simply called and no thread is started.

    Every thread is joined before this returns or raises.  If parts failed,
    the exception of the lowest-numbered one is raised, so a caller that
    hands its parts contiguous, increasing ranges of work gets the error a
    single thread going through them in order would have met first.
    """
    if parts <= 1:
        fn(0)
        return
    err = np.geterr()
    failed = [None] * parts

    def work(part):
        try:
            with np.errstate(**err):
                fn(part)
        except BaseException as exc:  # raised again in the calling thread
            failed[part] = exc

    threads = []
    try:
        for part in range(1, parts):
            thread = threading.Thread(target=work, args=(part,))
            thread.start()
            threads.append(thread)
        fn(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in failed:
        if exc is not None:
            raise exc


def increment_rows(seed: int, stream_ids: Sequence[int], n_steps: int, h: float,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Brownian increments for a block of streams, one C-ordered row each.

    Row r holds the first n_steps draws of the Philox stream keyed by
    (seed, stream_ids[r]), scaled to variance h: bit for bit
    sqrt(h) * Generator(Philox(key=(seed << 64) | sid)).standard_normal(n_steps).
    One bit generator is re-keyed per row through its `state` setter
    (key = [sid, seed], counter 0, empty buffer) instead of constructing a
    generator per row.  `out`, if given, is a (len(stream_ids), n_steps)
    float64 array whose rows are each contiguous, such as the columns
    X[:, 1:] of a C-ordered (M, n_steps + 1) path array; it is filled in
    place and returned, and nothing outside it is written.

    Every stream id is checked before any row is drawn.  The rows are then
    split into up to W = worker_count() contiguous ranges, drawn at once by
    run_parts, each range with a bit generator of its own made here; the
    draw releases the interpreter lock.  Each range scales its rows to
    variance h in groups of about SCALE_BLOCK elements, one multiply per
    group while it is still in cache, so short rows do not pay a call per
    row; a product is the same whatever its group.  A row's draws depend
    only on its own key, so no bit depends on W, and a single row is drawn
    on the calling thread.  The draw calls no model code; engine.run_batch's
    row-block pass, the other stage split this way, calls the model's
    coefficients and the value function from its workers.
    """
    if n_steps < 1:
        raise ConfigurationError("n_steps must be >= 1")
    if h <= 0:
        raise ConfigurationError("h must be positive")
    seed = _check_u64("seed", seed)
    sids = [_check_u64("stream_id", sid) for sid in stream_ids]
    m = len(sids)
    if out is None:
        out = np.empty((m, n_steps))
    parts = max(1, min(worker_count(), m))
    gens = [np.random.Generator(np.random.Philox(0)) for _ in range(parts)]
    scale = np.sqrt(h)
    group = max(1, SCALE_BLOCK // n_steps)

    def draw(part):
        gen = gens[part]
        bitgen = gen.bit_generator
        key = [0, seed]
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        lo, hi = part * m // parts, (part + 1) * m // parts
        for g in range(lo, hi, group):
            end = min(g + group, hi)
            for r in range(g, end):
                key[0] = sids[r]
                bitgen.state = state
                gen.standard_normal(out=out[r])
            out[g: end] *= scale

    run_parts(draw, parts)
    return out


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based Gaussian increment stream.

    Increments are a pure function of (seed, stream_id, step index): each
    (seed, stream_id) pair keys an independent Philox stream, and the k-th
    increment is the k-th draw of that stream.  Replications can therefore be
    generated in any order, or in parallel, without changing any draw.  A
    stream's increments are the one-row case of `increment_rows`, which the
    batched engine uses for whole blocks of streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_u64("seed", self.seed)
        _check_u64("stream_id", self.stream_id)

    def increments(self, n_steps: int, h: float) -> np.ndarray:
        """n_steps Brownian increments with variance h each."""
        return increment_rows(self.seed, (self.stream_id,), n_steps, h)[0]


def window_grid(grid: TimeGrid, t_from: float) -> TimeGrid:
    """Sub-grid of `grid` from the node at t_from through t_end."""
    i = grid.node_index(t_from)
    if i >= grid.n_steps:
        raise ConfigurationError("window must contain at least one step")
    return TimeGrid(float(grid.times[i]), grid.t_end, grid.n_steps - i)
