"""Lockstep vectorized replication engine for Monte Carlo runs.

Replications are statistically independent, so the harness advances many of
them simultaneously: one array op per Euler step, per RK4 stage, per score
update.  No state crosses replications; the pilot's Gauss-Newton refinement
freezes a replication at its own convergence point, and every reduction runs
along one replication's own row or along the time axis, so each
replication's numbers are a pure function of (seed, stream_id), bit for bit
the same for any chunking or blocking of the replication set.

A block reads each path only up to its last node: the latest report
time, or T for the sup statistic.  The one-step at t is a function of the
path on [0, t], so `run_batch` simulates and scores nodes 0..last of the
grid and nothing after them; the information test reads I(theta_pilot, T)
from the ThetaTable, which needs no path.

`run_batch` keeps one path-sized array, the row-major paths X (M, last+1),
and makes every other pass in cache-sized pieces.  `simulate_batch` draws
each Philox noise row straight into X[:, 1:]; with residuals it forms the
limiting Gaussian factor xi from those increments in row blocks, and then
steps Euler-Maruyama in place over time tiles, each copied into a small
time-major buffer before its states are written back transposed over it.
A run of many chunks and blocks allocates X once and hands that buffer to
every one of them.  The pilot and the head score read the window
[0, delta] of every row.  Then each block of about ROW_BLOCK elements of
rows goes through the information read, the tail score on [delta, t_last],
the one-step and the sup sweep before the next block starts.  The blocks
share one scratch set, allocated once per run_batch call: the information
read and the tail profile are written into it (`ThetaTable.info` and
`score_tail_profile_batch` take out=), the one-step is formed in place over
them, and the sup sweep takes the value difference in the array the value
function returned.  The one-step is formed only at the nodes some output
reads: the report nodes, or, for the sup statistic, every node of
[delta, T].

Two stages run on every CPU the process may use (grids.worker_count, W):
the Philox draw, split into contiguous ranges of rows, and the row-block
pass, whose blocks of ROW_BLOCK // W elements split into contiguous runs of
blocks, each with a scratch set of its own.  Both release the interpreter
lock.  Everything else (the Euler loop, the pilot, the head score and the
report-time reads) stays on the calling thread.  No bit moves with W: rows
are independent, and a block's operations are the same whichever worker
runs it.  The model's coefficients and the value function's `value` are
therefore called from worker threads, so they must not keep state between
calls; a one-row batch, or a one-CPU process, starts no thread.

No stage integrates a limit flow per replication.  The flow depends on a row
only through one scalar theta, so a ThetaTable samples what the engine reads
of it (the window flow and its RK4 sensitivity on [0, delta], the
information profile) at Chebyshev points of theta_interval, and each row
reads its values by barycentric interpolation.  A study builds one table per
window, all sharing one information part, and hands it to every block and
chunk.  Every contraction sums over the nodes in the same order for every
row and column, so neither the chunking, the columns read nor the sharing
moves a bit.  A table part whose interpolant misses direct RK4 at its probe
points falls back to RK4 per row, where a row whose flow diverges is flagged
(window objective +inf, information 0), never raised.

Each stage is also the scalar API: `estimation` and `bsde` run these
functions on the one-row batch holding an observed path, and `refine_scan`
also serves the full-likelihood comparator `estimation.full_mle`.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import grids
from .errors import ConfigurationError
from .grids import TimeGrid, increment_rows
from .models import (ModelSpec, broadcast_eval, finite_or_raise, flow_ode, rk4,
                     sensitivity_ode, _euler_maruyama)

# Element cap per value-function evaluation block; keeps the quadrature
# work matrix (elements x nodes) around half a GB.
EVAL_BLOCK = 500_000
# Element cap of the row blocks that run_batch carries from the information
# read through the sup sweep, shared by its workers: 2 MB of float64 per
# (rows, last+1) array in all, ROW_BLOCK // W elements per worker's block.
ROW_BLOCK = 262_144
# Floor below which the information integral is treated as non-invertible.
INFO_FLOOR = 1e-10
# Coarse scan size of the 1-d minimizers, and their settling tolerance as a
# fraction of the parameter interval.
SCAN_POINTS = 64
REFINE_FACTOR = 1e-8
# Gauss-Newton passes of refine_scan before an unsettled row is flagged.
PILOT_MAX_PASSES = 40
# Chebyshev points of a ThetaTable; the fractions of theta_interval, none of
# them a table point, at which a new table is checked against direct RK4; and
# the relative accuracy it must meet there to be used.
TABLE_NODES = 24
TABLE_PROBES = (0.0137, 0.3183, 0.6931, 0.9862)
TABLE_TOL = 1e-12


def _trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def _cumtrapz_rows(values: np.ndarray, h: float) -> np.ndarray:
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    incr = np.add(values[..., 1:], values[..., :-1], out=out[..., 1:])
    incr *= 0.5 * h
    np.cumsum(incr, axis=-1, out=incr)
    return out


def simulate_batch(model: ModelSpec, theta0: float, epsilon: float, grid: TimeGrid,
                   seed: int, stream_ids: Sequence[int], *, last: Optional[int] = None,
                   limit=None, xi_nodes: Sequence[int] = (),
                   paths: Optional[np.ndarray] = None):
    """Euler-Maruyama paths for a block of replications on the nodes 0..last
    of grid (all of them by default).

    Row r is driven by the stream (seed, stream_ids[r]), drawn by
    grids.increment_rows bit for bit as the first `last` draws of
    NoiseSource(seed, sid).increments, straight into the columns 1..last of
    the row-major paths X (M, last+1).  The steps read grid.times and grid.h,
    so X is bit for bit the first last+1 columns of the paths to T.  With
    limit = limit_weights(model, theta0, grid), the limiting Gaussian factor
    xi (M, len(xi_nodes)) is formed from those increments at the grid nodes
    xi_nodes, none beyond last; then the one Euler-Maruyama loop
    simulate_forward also runs steps X in place over cache-sized time tiles.
    Nothing path-sized is allocated but X itself, and not even X when the
    caller owns a path buffer: paths, a C-ordered float64 array of at least
    M rows and last+1 columns, whose first M rows become X and are
    overwritten; a caller that reuses it for the next block must be done
    with this X.

    Returns (X, xi, diverged), xi None without limit.  A row is diverged
    when it leaves the blow-up guard at or before the node last; it is
    frozen at x0 from that node on, and its numbers are never used
    downstream.
    """
    m = len(stream_ids)
    last = grid.n_steps if last is None else last
    if not 1 <= last <= grid.n_steps:
        raise ConfigurationError(f"last node {last} outside 1..{grid.n_steps}")
    if paths is None:
        X = np.empty((m, last + 1))
    elif paths.dtype != np.float64 or not paths.flags.c_contiguous or \
            paths.shape[0] < m or paths.shape[1:] != (last + 1,):
        raise ConfigurationError(f"path buffer {paths.shape} cannot hold {m} paths "
                                 f"of {last + 1} nodes")
    else:
        X = paths[:m]
    increment_rows(seed, stream_ids, last, grid.h, out=X[:, 1:])
    xi = None if limit is None else \
        _limit_factor(limit, X[:, 1:], np.asarray(xi_nodes, dtype=int))[0]
    first = _euler_maruyama(model, theta0, epsilon, grid, X)
    return X, xi, first <= last


def _resolution(f: np.ndarray) -> np.ndarray:
    """Smallest difference of window-objective values treated as real."""
    return 1e-12 * np.maximum(1.0, np.abs(f))


def _step(grad: np.ndarray, curv: np.ndarray) -> np.ndarray:
    """Newton-type step grad / curv per row, 0 where the curvature vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(curv > 0.0, grad / curv, 0.0)


def _gauss_newton(xw: np.ndarray, x: np.ndarray, xdot: np.ndarray, w: np.ndarray):
    """Window objective F = sum w (xw - x)^2 and Gauss-Newton step per row.

    All arrays are C-ordered (k, nw+1) rows, so every sum runs along one
    contiguous row and a row's numbers do not depend on the other rows.  One
    scratch array holds each weighted product in turn.
    """
    r = xw - x
    wxdot = w * xdot
    t = np.square(r)
    f = np.sum(np.multiply(w, t, out=t), axis=1)
    grad = np.sum(np.multiply(wxdot, r, out=t), axis=1)
    return f, _step(grad, np.sum(np.multiply(wxdot, xdot, out=t), axis=1))


def refine_scan(cand: np.ndarray, obj: np.ndarray, first_step, evaluate):
    """Bracketed Gauss-Newton refinement of scanned 1-d minima, one per row.

    obj (k, len(cand)) holds each row's objective F at the increasing scan
    candidates cand, which span the parameter interval [lo, hi]; F = +inf
    (a candidate whose flow diverged) is never picked.  A row whose other
    scan values have no usable spread, or hold a NaN, is flat.  Otherwise its
    minimum is bracketed between the neighbours of its best candidate and
    refined inside that bracket, one lockstep pass over the rows still moving:
    first_step(best) gives each row's pair (F, step) at its best candidate,
    and evaluate(idx, thetas) the pair of the rows idx at their trial values.
    obj decides only each row's best candidate and whether it is flat; the
    refinement compares trial values with the F of first_step.  A step that
    raises F by more than the scan's flatness threshold, below which F
    differences are rounding, is halved; otherwise the trial is accepted and
    stepped on.  A row settles once its step is at most half of
    (hi - lo) * REFINE_FACTOR.

    Returns (theta, flat) where flat also marks rows that had not settled
    after PILOT_MAX_PASSES; flat rows get the middle of the interval.
    """
    lo, hi = cand[0], cand[-1]
    half_tol = 0.5 * (hi - lo) * REFINE_FACTOR
    # the spread of the candidates below +inf, which is never picked; a NaN
    # makes the spread NaN, so its row is flat
    kept = obj != np.inf
    top = np.max(obj, axis=1, where=kept, initial=-np.inf)
    flat = ~(top - np.min(obj, axis=1, where=kept, initial=np.inf) > _resolution(top))

    best = np.argmin(obj, axis=1)
    a = cand[np.maximum(best - 1, 0)]
    b = cand[np.minimum(best + 1, cand.size - 1)]
    theta = cand[best]
    f_acc, step = first_step(best)
    trial = np.clip(theta + step, a, b)
    live = ~flat & (np.abs(trial - theta) > half_tol)
    for _ in range(PILOT_MAX_PASSES):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        f, step = evaluate(idx, trial[idx])
        th, tr = theta[idx], trial[idx]
        rose = f - f_acc[idx] > _resolution(f_acc[idx])
        theta[idx] = np.where(rose, th, tr)
        f_acc[idx] = np.where(rose, f_acc[idx], f)
        trial[idx] = np.where(rose, th + 0.5 * (tr - th),
                              np.clip(tr + step, a[idx], b[idx]))
        live[idx] = np.abs(trial[idx] - theta[idx]) > half_tol
    flat |= live
    return np.where(flat, 0.5 * (lo + hi), trial), flat


def _chebyshev_points(lo: float, hi: float, k: int) -> np.ndarray:
    """k second-kind Chebyshev points of [lo, hi], increasing, ends exact."""
    pts = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * np.arange(k) / (k - 1))
    pts[0], pts[-1] = lo, hi
    return pts


def _barycentric_rows(nodes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """(k, K) barycentric weights of the interpolant through second-kind
    Chebyshev points; a theta on a node gets that node's unit row."""
    wts = np.where(np.arange(nodes.size) % 2 == 0, 1.0, -1.0)
    wts[[0, -1]] *= 0.5
    d = thetas[:, None] - nodes[None, :]
    on = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = wts / d
    hit = on.any(axis=1)
    c[hit] = on[hit]
    c /= np.sum(c, axis=1, keepdims=True)
    return c


def _contract(c: np.ndarray, values: np.ndarray, out=None) -> np.ndarray:
    # einsum without `optimize` over C-ordered (K, n) values with n >= 2 adds
    # one node's products to the whole output at a time, so every entry sums
    # the nodes in their order, whatever the rows and columns.  A single
    # column would make the node sum einsum's inner loop, and a BLAS product
    # (c @ values) may block the rows: either can change the last bit.  The
    # table reads and the pilot's scan both contract through here.
    v = np.ascontiguousarray(values)
    if v.shape[1] > 1:
        return np.einsum("mk,kn->mn", c, v, out=out)
    res = np.einsum("mk,kn->mn", c, np.repeat(v, 2, axis=1))[:, :1]
    if out is None:
        return res
    out[...] = res
    return out


def _within(got: np.ndarray, want: np.ndarray) -> bool:
    """Every row of got within TABLE_TOL of want, relative to the row's sup norm."""
    err = np.max(np.abs(got - want), axis=1)
    return bool(np.all(err <= TABLE_TOL * np.max(np.abs(want), axis=1)))


class ThetaTable:
    """What the engine reads of the limit flow, once per (model, grid, delta).

    The flow depends on a replication only through one scalar theta, so the
    window flow and its RK4 sensitivity on [0, delta] and the information
    profile are sampled at TABLE_NODES Chebyshev points of the closed
    theta_interval and read back by barycentric interpolation (Trefethen,
    Approximation Theory and Approximation Practice, ch. 5).  `scan` holds
    the pilot's scan candidates with their exact window flow and sensitivity,
    and `centred_scan` the weighted candidate rows the scan contracts with.
    Each part is built on first use and then kept, so a study that hands one
    table to all its blocks and chunks builds each part once, and a single
    path builds only the parts it reads.  The content depends only on
    (model, grid, delta), never on the replications, so a row's numbers do
    not depend on the chunk or block it runs in.

    The information part depends on (model, grid) only: it holds the whole
    profiles on [0, T].  The tables that `for_window` derives for other
    windows share it, so a study over several windows integrates the
    information flow once.

    A node part is checked when it is built: its interpolant at the
    TABLE_PROBES fractions of theta_interval must match direct RK4 within
    TABLE_TOL, relative to the sup norm of each profile.  If it misses, or
    the RK4 diverges at a node or a probe, the part is None and each read
    integrates RK4 at the rows' own thetas in one lockstep pass, so every
    row reads its direct RK4 values: a drift that is not smooth in theta, or
    that blows up near an edge of theta_interval, costs time but never
    aborts a block.  A row whose flow diverges there reads window rows
    x = +inf with a NaN sensitivity, so its window objective is +inf, and
    information 0, so the one-step flags it.
    """

    def __init__(self, model: ModelSpec, grid: TimeGrid, delta: float):
        self.model = model
        self.grid = grid
        self.i_delta = grid.node_index(delta)
        self.wgrid = grid.prefix(delta)
        self.nodes = _chebyshev_points(*model.theta_interval, TABLE_NODES)
        # the table that builds the information part, None for this one
        self._info_owner = None

    def for_window(self, delta: float) -> "ThetaTable":
        """The table of (model, grid, delta), sharing this one's information part."""
        table = ThetaTable(self.model, self.grid, delta)
        table._info_owner = self._info_owner or self
        return table

    def _window_rows(self, thetas):
        """RK4 window flow and sensitivity at thetas, C-ordered (k, i+1) rows,
        and whether each lane stayed finite; a lane that did not reads
        x = +inf and a NaN sensitivity."""
        y = rk4(*sensitivity_ode(self.model, thetas), self.wgrid)
        ok = np.isfinite(y).all(axis=(0, 1))
        x, xdot = np.ascontiguousarray(y[:, 0].T), np.ascontiguousarray(y[:, 1].T)
        x[~ok], xdot[~ok] = np.inf, np.nan
        return x, xdot, ok

    def _direct_window(self, thetas):
        x, xdot, ok = self._window_rows(thetas)
        return (x, xdot), ok

    def _direct_info(self, thetas):
        flows = flow_batch(self.model, thetas, self.grid)
        ok = np.isfinite(flows[:, -1])
        flows[~ok] = self.model.x0
        with np.errstate(over="ignore", invalid="ignore"):
            info = fisher_profile_batch(self.model, thetas, flows, self.grid)
        ok &= np.isfinite(info[:, -1])  # a running sum of squares ends non-finite
        info[~ok] = 0.0
        return (info,), ok

    def _checked(self, direct):
        lo, hi = self.model.theta_interval
        probes = lo + (hi - lo) * np.asarray(TABLE_PROBES)
        values, ok = direct(np.concatenate((self.nodes, probes)))
        if not ok.all():
            return None
        k = self.nodes.size
        c = _barycentric_rows(self.nodes, probes)
        with np.errstate(invalid="ignore"):
            ok = all(_within(_contract(c, v[:k]), v[k:]) for v in values)
        return tuple(np.ascontiguousarray(v[:k]) for v in values) if ok else None

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal weights w of the window nodes."""
        return _trapezoid_weights(self.i_delta + 1, self.wgrid.h)

    @cached_property
    def scan(self):
        """(candidates, flow, sensitivity, ok): SCAN_POINTS points spanning
        the closed theta_interval, their (SCAN_POINTS, i+1) window rows, and
        whether each candidate's window RK4 stayed finite; the rows of the
        others read x = +inf and a NaN sensitivity.  The pilot scores the
        candidates through `centred_scan` and refines from these exact rows."""
        cand = np.linspace(*self.model.theta_interval, SCAN_POINTS)
        return (cand,) + self._window_rows(cand)

    @cached_property
    def centred_scan(self):
        """(-2 w g, sum w g^2) of the scan candidates' centred window flows
        g_j = x_j - x0: a C-ordered (i+1, SCAN_POINTS) array, one column per
        candidate, and the SCAN_POINTS weighted norms.  Every flow and every
        path starts at x0, so centring keeps the terms of the expanded window
        objective as small as its differences.  A candidate whose window RK4
        diverged reads 0 in both."""
        _, x, _, ok = self.scan
        g = np.where(ok[:, None], x - self.model.x0, 0.0)
        return (np.ascontiguousarray((-2.0 * self.weights)[:, None] * g.T),
                np.sum(self.weights * g**2, axis=1))

    @cached_property
    def node_window(self):
        """(flow, sensitivity) rows (K, i+1) at the nodes, or None."""
        return self._checked(self._direct_window)

    @cached_property
    def grid_info(self):
        """Information rows (K, n+1) at the nodes on the whole grid, or None;
        built once, by the table that owns it, for every table sharing it."""
        if self._info_owner is not None:
            return self._info_owner.grid_info
        part = self._checked(self._direct_info)
        return None if part is None else part[0]

    def window(self, thetas: np.ndarray):
        """Window flow and its RK4 sensitivity at thetas, C-ordered (k, i+1) rows."""
        if self.node_window is None:
            return self._direct_window(thetas)[0]
        c = _barycentric_rows(self.nodes, thetas)
        return tuple(_contract(c, v) for v in self.node_window)

    def info(self, thetas: np.ndarray, cols=None, out=None) -> np.ndarray:
        """Information profiles at thetas on the grid nodes cols of [delta, T]
        (all of them by default), (k, len(cols)) rows: bit for bit those
        columns of the whole profiles.  out, a C-ordered (k, len(cols))
        float64 array, receives them in place of a new array."""
        return self.info_reader(cols)(thetas, out)

    def info_reader(self, cols=None):
        """info(., cols, .) as a function of (thetas, out=None) that gathers
        the nodes' columns cols once, C-ordered, for all its reads: a caller
        that reads row block after row block into one scratch buffer pays
        the gather once."""
        sel = slice(self.i_delta, None) if cols is None else np.asarray(cols)
        if self.grid_info is None:
            def read(thetas, out=None):
                info = self._direct_info(thetas)[0][0][:, sel]
                if out is None:
                    return info
                out[...] = info
                return out
            return read
        node_cols = np.ascontiguousarray(self.grid_info[:, sel])
        return lambda thetas, out=None: _contract(_barycentric_rows(self.nodes, thetas),
                                                  node_cols, out=out)


def _table_for(model: ModelSpec, grid: TimeGrid, delta: float,
               table: Optional[ThetaTable]) -> ThetaTable:
    if table is None:
        return ThetaTable(model, grid, delta)
    if table.model is not model or table.grid != grid or \
            table.i_delta != grid.node_index(delta):
        raise ConfigurationError("theta table was built for another model, grid or window")
    return table


def pilot_batch(model: ModelSpec, X: np.ndarray, grid: TimeGrid, delta: float,
                table: Optional[ThetaTable] = None):
    """Minimum-distance pilots for all rows of X on the window [0, delta].

    Minimizes F(theta) = sum_k w_k (X_k - x_k(theta))^2, the trapezoidal
    L^2 distance to the RK4 limit flow: a SCAN_POINTS scan over the closure
    of theta_interval, then refine_scan with Gauss-Newton steps on the
    sensitivity of the RK4 flow.  With y = X - x0 and the table's centred
    candidate rows g_j (`ThetaTable.centred_scan`), the scan scores every
    candidate at once as F_j = sum w y^2 - 2 sum w y g_j + sum w g_j^2, one
    contraction of the window rows plus a norm per row.  That F decides only
    each row's best candidate and whether the row is flat; the refinement
    starts from the exact F and step at the best candidate's flow.  Each
    Gauss-Newton pass reads x and its sensitivity at the live rows' trial
    values from the table's interpolants (from RK4 per row when the table
    fell back).  Without a table, the one of (model, grid, delta) is built,
    so a single path gets the numbers a block gets.

    Returns (theta_pilot, flat) where flat marks rows whose window objective
    has no usable spread or that had not settled after PILOT_MAX_PASSES.
    """
    table = _table_for(model, grid, delta, table)
    xw = X[:, : table.i_delta + 1]
    w = table.weights
    cand, flows, sens, ok = table.scan
    wg, gg = table.centred_scan

    # obj outlives the window-sized scratch y, so it is allocated first and
    # freeing y leaves no hole below it
    obj = np.empty((X.shape[0], SCAN_POINTS))
    y = np.subtract(xw, model.x0)
    _contract(y, wg, out=obj)
    obj += np.sum(np.multiply(w, np.square(y, out=y), out=y), axis=1)[:, None]
    obj += gg
    # a candidate whose window flow diverges is never the best one
    obj[:, ~ok] = np.inf
    del y

    def first_step(best):
        # the scan holds the exact flow and sensitivity at each row's best candidate
        return _gauss_newton(xw, flows[best], sens[best], w)

    def evaluate(idx, thetas):
        # a trial whose window flow diverged, or overflows F, reads F = +inf
        with np.errstate(over="ignore", invalid="ignore"):
            return _gauss_newton(xw[idx], *table.window(thetas), w)

    return refine_scan(cand, obj, first_step, evaluate)


def flow_batch(model: ModelSpec, thetas: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Limit flows for a vector of parameters, C-ordered rows of shape (M, n+1).
    A lane that diverges runs on without touching the others and ends non-finite."""
    return np.ascontiguousarray(rk4(*flow_ode(model, thetas), grid).T)


def fisher_profile_batch(model: ModelSpec, thetas: np.ndarray, flows: np.ndarray,
                         grid: TimeGrid) -> np.ndarray:
    """Information profiles int_0^t (S_theta / sigma)^2 ds along each flow row."""
    times = grid.times[None, :]
    q = np.square(model.drift_dtheta(thetas[:, None], times, flows))
    q = np.divide(q, np.square(model.diffusion(times, flows)),
                  out=q if np.shape(q) == flows.shape else None)
    return _cumtrapz_rows(broadcast_eval(q, flows.shape), grid.h)


def score_tail_profile_batch(model: ModelSpec, thetas: np.ndarray, X: np.ndarray,
                             grid: TimeGrid, i_delta: int, cols=None,
                             out=None) -> np.ndarray:
    """Tail score profiles sum_{i_delta <= k < j} B (X_{k+1} - X_k - S h) at
    the increasing grid nodes j in cols of [delta, t_last] (all of them by
    default), for every row of X, whose columns are the grid nodes
    0..last.  Its scratch arrays have the size of X on [delta, t_last], so
    run_batch hands it one block of rows at a time.

    The increments are formed in the columns 1.. of the whole profile and
    summed there in place.  out, a C-ordered float64 array of X's rows and
    the last+1-i_delta columns of [delta, t_last], holds that profile in
    place of a new array, so row blocks reuse one scratch buffer; the result
    is then a view of out when cols is a contiguous range (or None), and a
    copy of its columns otherwise.  Each profile is a running sum in node
    order, so its columns do not depend on last."""
    tk = grid.times[None, i_delta:X.shape[1] - 1]
    xk = X[:, i_delta:-1]
    th = thetas[:, None]
    prof = np.empty((X.shape[0], xk.shape[1] + 1)) if out is None else out
    prof[:, 0] = 0.0
    incr = np.subtract(X[:, i_delta + 1:], xk, out=prof[:, 1:])
    incr -= np.multiply(model.drift(th, tk, xk), grid.h)
    # B = S_theta / sigma^2 on the coefficients' own shapes
    incr *= np.divide(model.drift_dtheta(th, tk, xk), np.square(model.diffusion(tk, xk)))
    np.cumsum(incr, axis=1, out=incr)
    return prof if cols is None else prof[:, _columns(np.asarray(cols) - i_delta)]


def score_head_batch(model: ModelSpec, thetas: np.ndarray, X: np.ndarray,
                     grid: TimeGrid, i_delta: int, epsilon: float) -> np.ndarray:
    """Head score on [0, delta] for every row of X.

    The pilot is a function of the path on [0, delta], so the head is the
    stochastic-integral-free form of the score.  With B = S_theta / sigma^2
    and its state primitive A(theta, s, x) = int_{x0}^{x} B dz it reads

        A(theta, delta, X_delta) - int_0^delta A_s ds
          - int_0^delta [(epsilon^2/2) B_x sigma^2 + B S](theta, s, X_s) ds,

    and by the Stratonovich chain rule its first two terms are
    int_0^delta B o dX.  The code takes that integral as the trapezoidal path
    sum (Kloeden & Platen, Numerical Solution of SDEs, 1992), which is
    A(delta, X_delta) - int A_s ds telescoped segment by segment, and the time
    integral by the trapezoid rule, with B_x sigma^2 = S_theta_x -
    2 S_theta sigma_x / sigma:

        sum_{k<i} (B_k + B_{k+1}) / 2 (X_{k+1} - X_k)
          - sum_k w_k [(epsilon^2/2) B_x sigma^2 + B S]_k.

    For a B linear in x and free of s (constant drift, linear-ou) this is the
    integral-free form up to rounding; otherwise the two differ by
    O(sum |X_{k+1} - X_k|^3).  The left-point Ito sum the tail uses would be
    several times further from a fine-grid head, since the pilot
    anticipates the window's path.  Every sum runs along one row, so a row's
    head does not depend on the batch.
    """
    xs = X[:, : i_delta + 1]
    th = thetas[:, None]
    tk = grid.times[None, : i_delta + 1]
    # B, sigma and the correction on the coefficients' own shapes, broadcast
    # where they meet the path
    sig = model.diffusion(tk, xs)
    b = np.divide(model.drift_dtheta(th, tk, xs), np.square(sig))
    bp = broadcast_eval(b, xs.shape)
    path = bp[:, 1:] + bp[:, :-1]
    path *= np.diff(xs, axis=1)
    head = 0.5 * np.sum(path, axis=1)
    del path
    # corr is a fresh result: it is scaled in place, and takes B S in place
    # once it is path-sized
    corr = np.subtract(model.drift_dtheta_dx(th, tk, xs),
                       2.0 * b * sig * model.diffusion_dx(tk, xs))
    corr *= 0.5 * epsilon**2
    corr = np.add(corr, b * model.drift(th, tk, xs),
                  out=corr if np.shape(corr) == xs.shape else None)
    head -= np.sum(_trapezoid_weights(i_delta + 1, grid.h) * broadcast_eval(corr, xs.shape),
                   axis=1)
    return head


@dataclass
class BatchResult:
    """Per-replication outputs of one engine block (all arrays length M).

    diverged marks rows that left the blow-up guard at or before the last
    node the block reads (run_batch's last_node); a row that would leave it
    only later is not simulated that far, so it is not flagged.  y_plugin is set
    only with plugin=True, xi, r_y and r_z only with residuals=True (r_y and
    r_z also need epsilon > 0), and sup_abs_y_err, sup |Y_hat - Y| over
    every node of [delta, T], only with sup=True; otherwise they are None.
    """

    diverged: np.ndarray
    flat: np.ndarray
    failed: np.ndarray
    theta_pilot: np.ndarray
    report_times: np.ndarray
    theta_onestep: np.ndarray      # (M, R)
    clamped: np.ndarray            # (M, R)
    y_hat: np.ndarray              # (M, R)
    y_true: np.ndarray
    z_hat: np.ndarray
    z_true: np.ndarray
    y_plugin: Optional[np.ndarray]
    xi: Optional[np.ndarray]       # (M, R), limiting Gaussian factor; residuals only
    r_y: Optional[np.ndarray]
    r_z: Optional[np.ndarray]
    sup_abs_y_err: Optional[np.ndarray]

    # No stage flags a row for quadrature.  The benchmark tracer still counts
    # this flag, so it stays, always False, until that counter is dropped.
    quad_failed = False


def _blocked_value(vf, method, t_nodes, x_rows, theta_rows):
    """Evaluate a value-function method over (M, K) arrays in bounded blocks;
    theta_rows may also be one scalar theta for every element."""
    m, k = x_rows.shape
    out = np.empty((m, k))
    rows_per_block = max(1, EVAL_BLOCK // max(k, 1))
    fn = getattr(vf, method)
    for lo in range(0, m, rows_per_block):
        hi = min(lo + rows_per_block, m)
        th = theta_rows if np.ndim(theta_rows) == 0 else theta_rows[lo:hi]
        out[lo:hi] = fn(t_nodes[None, :], x_rows[lo:hi], th)
    return out


def _columns(idx: np.ndarray):
    """Increasing column indices idx as a slice when they are a contiguous
    range, so reading them is a view rather than a copy."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def value_pair(model: ModelSpec, vf, epsilon: float, t_nodes: np.ndarray,
               x_rows: np.ndarray, theta_rows: np.ndarray):
    """(Y, Z) = (u, epsilon sigma u_x) at (t_nodes, x_rows, theta_rows), (M, K)
    each; theta_rows may be one scalar theta."""
    eps_sig = np.multiply(epsilon, model.diffusion(t_nodes[None, :], x_rows))
    y = _blocked_value(vf, "value", t_nodes, x_rows, theta_rows)
    z = eps_sig * _blocked_value(vf, "value_x", t_nodes, x_rows, theta_rows)
    return y, z


def residual_pair(model: ModelSpec, vf, theta0: float, epsilon: float,
                  t_nodes: np.ndarray, x_rows: np.ndarray, xi: np.ndarray,
                  y_err: np.ndarray, z_err: np.ndarray):
    """First-order residuals (r_Y, r_Z) from the errors y_err = Y_hat - Y and
    z_err = Z_hat - Z, with udot and udot_x the theta-derivatives of u at theta0:

        r_Y = (Y_hat - Y - eps udot xi) / eps,
        r_Z = (Z_hat - Z - eps^2 sigma udot_x xi) / eps^2.
    """
    udot = _blocked_value(vf, "value_theta", t_nodes, x_rows, theta0)
    udot_x = _blocked_value(vf, "value_theta_x", t_nodes, x_rows, theta0)
    eps2_sig = np.multiply(epsilon**2, model.diffusion(t_nodes[None, :], x_rows))
    r_y = (y_err - epsilon * udot * xi) / epsilon
    r_z = (z_err - eps2_sig * udot_x * xi) / epsilon**2
    return r_y, r_z


def limit_weights(model: ModelSpec, theta0: float, grid: TimeGrid):
    """What the limiting Gaussian factor reads of the flow at theta0: the
    left-point weights (S_theta / sigma)(theta0, t_k, x_k), k < n, and the
    information profile I(theta0, t) at every node."""
    times = grid.times
    flow0 = finite_or_raise(rk4(*flow_ode(model, float(theta0)), grid), grid)
    info0 = fisher_profile_batch(model, np.array([float(theta0)]), flow0[None, :], grid)[0]
    wgt = np.divide(model.drift_dtheta(theta0, times[:-1], flow0[:-1]),
                    model.diffusion(times[:-1], flow0[:-1]))
    return broadcast_eval(wgt, (grid.n_steps,)), info0


def _limit_factor(limit, dW: np.ndarray, nodes: np.ndarray):
    """Limiting Gaussian factor xi(t) = int_0^t (S_theta / sigma) dW / I(t)
    along the flow at theta0, at the given nodes, with a left-point
    stochastic sum over the increments dW (M, k), the first k steps of the
    grid, which may be the view X[:, 1:] of a path buffer; limit is
    limit_weights(model, theta0, grid) and no node lies beyond k.
    Returns (xi, info): xi of shape (M, len(nodes)), 0 where I(theta0, t) is
    below INFO_FLOOR, and I(theta0, t) at the nodes.  The running sums are
    formed in blocks of about ROW_BLOCK elements of rows, each row's in node
    order, so no array of the size of dW is built."""
    wgt, info0 = limit
    wgt = wgt[: dW.shape[1]]
    rows = max(1, ROW_BLOCK // (wgt.size + 1))
    sums = np.empty((dW.shape[0], nodes.size))
    for lo in range(0, dW.shape[0], rows):
        cums = np.zeros((dW[lo: lo + rows].shape[0], wgt.size + 1))
        np.cumsum(np.multiply(wgt, dW[lo: lo + rows], out=cums[:, 1:]), axis=1, out=cums[:, 1:])
        sums[lo: lo + rows] = cums[:, nodes]
    info_n = info0[None, nodes]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(info_n < INFO_FLOOR, 0.0, sums / info_n), info_n[0]


def onestep_batch(model: ModelSpec, theta_pilot: np.ndarray, tail: np.ndarray,
                  head: np.ndarray, info: np.ndarray, cols):
    """One-step estimates theta_pilot + (tail + head) / I at nodes of [delta, T].

    tail (M, C) is the tail score at C increasing nodes of [delta, T] (all
    of them, or only those a caller reads), and info the information
    profiles at the same nodes and T: (M, C) when the C nodes end at T,
    else (M, C + 1) with T as its last column, which only the information
    test reads.  Both buffers are consumed: the estimates are built in
    tail's, and info is set to inf below INFO_FLOOR, where the correction is
    dropped and the node counts as clamped.  The estimates are clipped to
    the closure of theta_interval.  Returns (theta, clamped, info_bad):
    theta at the C nodes, clamped only at the columns cols, and info_bad
    marking rows whose information never reaches the floor.
    """
    # information is nondecreasing, so a row is unusable only if its final value is
    info_bad = info[:, -1] < INFO_FLOOR
    info = info[:, : tail.shape[1]]
    low = info[:, cols] < INFO_FLOOR
    np.copyto(info, np.inf, where=info < INFO_FLOOR)
    raw = tail
    raw += head[:, None]
    raw /= info
    raw += theta_pilot[:, None]
    lo, hi = model.theta_interval
    clamped = (raw[:, cols] < lo) | (raw[:, cols] > hi) | low
    return np.clip(raw, lo, hi, out=raw), clamped, info_bad


def last_node(grid: TimeGrid, report_times: Sequence[float], sup: bool = False) -> int:
    """The last grid node a block reads: T with the sup statistic, which
    reads every node of [delta, T], else the latest report node."""
    return grid.n_steps if sup else max(grid.node_index(float(t)) for t in report_times)


def run_batch(model: ModelSpec, vf, theta0: float, epsilon: float, grid: TimeGrid,
              delta: float, report_times: Sequence[float], seed: int,
              stream_ids: Sequence[int], *, plugin: bool = False,
              residuals: bool = False, sup: bool = False,
              table: Optional[ThetaTable] = None, limit=None,
              paths: Optional[np.ndarray] = None) -> BatchResult:
    """Full pipeline for one block of replications.

    The paths are simulated, and the tail score formed, only on the nodes
    0..last, last = last_node(grid, report_times, sup): the one-step at t
    is a function of the path on [0, t], so no output reads a node after
    the last report.  A row counts as diverged when it leaves the blow-up
    guard at or before that node.

    sup=True additionally tracks sup |Y_hat - Y| over every node of
    [delta, T], one switch for the whole range (so last is T): the sweep
    reads X and the one-step there as views, and Y reads theta0 as one
    scalar.

    table is the ThetaTable of (model, grid, delta) and limit is
    limit_weights(model, theta0, grid); a caller running many chunks or
    blocks builds each once and passes it to every chunk, and either is
    built here when not given.  The pilot reads the window flow and
    sensitivity from the table, and the one-step reads each row's
    information profile from it at the row's pilot; the information test
    reads I(theta_pilot, T) there too, which needs no path.

    paths is the caller's path buffer, as simulate_batch takes it, with
    last+1 columns: a run of many chunks or blocks allocates one and hands
    it to every chunk, which simulates into its first rows.  No field of
    the result is a view of it, so it can be overwritten by the next chunk.
    Without it, the block allocates its own paths.

    After the simulation, the pilot and the head score, rows go in blocks of
    about ROW_BLOCK // W elements through the information read, the tail
    score, the one-step and the sup sweep, so no array of the size of X is
    built after it.  W = grids.worker_count() workers each take a contiguous
    run of the blocks (grids.run_parts; fewer when there are fewer blocks),
    so the model's coefficients and vf.value are called from worker threads.
    Each worker writes only its own rows of the outputs, and a block's
    operations do not depend on the worker, so no bit depends on W.  The
    information and the whole tail profile of a worker's blocks are written
    into its pair of scratch buffers, allocated here, and the sup sweep
    subtracts the value at theta0 in the array the value at the one-step
    returned (vf's value methods return arrays the caller owns; a read-only
    one is not written).  Without the sup statistic the one-step is formed
    only at the report nodes, bit for bit the same columns of its whole
    profile.
    """
    i = grid.node_index(delta)
    n = grid.n_steps
    report_times = np.asarray([float(t) for t in report_times])
    r_idx = np.array([grid.node_index(t) for t in report_times])
    if np.any(r_idx < i):
        raise ConfigurationError("report times must not precede delta")
    table = _table_for(model, grid, delta, table)
    last = last_node(grid, report_times, sup)
    # the nodes the one-step is formed at: every node of [delta, T] for the
    # sup statistic, else the report nodes; the information is also read
    # at T, for the information test
    cols = np.arange(i, n + 1) if sup else np.unique(r_idx)
    info_cols = np.union1d(cols, n)
    rep = np.searchsorted(cols, r_idx)

    if residuals and limit is None:
        limit = limit_weights(model, theta0, grid)
    X, xi_rep, diverged = simulate_batch(model, theta0, epsilon, grid, seed, stream_ids,
                                         last=last, limit=limit if residuals else None,
                                         xi_nodes=r_idx, paths=paths)
    theta_pilot, flat = pilot_batch(model, X, grid, delta, table)
    head = score_head_batch(model, theta_pilot, X, grid, i, epsilon)

    m = X.shape[0]
    th_rep = np.empty((m, rep.size))
    clamped = np.empty((m, rep.size), dtype=bool)
    info_bad = np.empty(m, dtype=bool)
    sup_err = np.empty(m) if sup else None
    t_sup = grid.times[None, i:]
    # the RK4 fallback integrates every row's flow in one lockstep pass
    info_all = table.info(theta_pilot, info_cols) if table.grid_info is None else None
    read_info = table.info_reader(info_cols) if info_all is None else None
    # one scratch set per worker, made here: the information read and the
    # whole tail profile of its blocks, which the one-step then consumes
    workers = grids.worker_count()
    rows_per_block = max(1, min(m, ROW_BLOCK // workers // (last + 1)))
    starts = range(0, m, rows_per_block)
    parts = max(1, min(workers, len(starts)))
    scratch = [(np.empty((rows_per_block, info_cols.size)) if info_all is None else None,
                np.empty((rows_per_block, last + 1 - i))) for _ in range(parts)]

    def sweep(part):
        info_buf, prof_buf = scratch[part]
        for lo in starts[part * len(starts) // parts: (part + 1) * len(starts) // parts]:
            r = slice(lo, lo + rows_per_block)
            th = theta_pilot[r]
            k = th.size
            info = read_info(th, out=info_buf[:k]) if info_all is None else info_all[r]
            tail = score_tail_profile_batch(model, th, X[r], grid, i, cols, out=prof_buf[:k])
            theta_cols, clamped[r], info_bad[r] = onestep_batch(model, th, tail, head[r],
                                                                info, rep)
            th_rep[r] = theta_cols[:, rep]
            if sup:
                x_sel = X[r, i:]
                # value methods return arrays the caller owns, so the
                # difference is taken in the first one unless it is a
                # read-only view
                yh = vf.value(t_sup, x_sel, theta_cols)
                yh = np.subtract(yh, vf.value(t_sup, x_sel, theta0),
                                 out=yh if yh.flags.writeable else None)
                sup_err[r] = np.max(np.abs(yh, out=yh), axis=1)

    grids.run_parts(sweep, parts)

    t_rep = grid.times[r_idx]
    x_rep = X[:, r_idx]
    y_hat, z_hat = value_pair(model, vf, epsilon, t_rep, x_rep, th_rep)
    y_true, z_true = value_pair(model, vf, epsilon, t_rep, x_rep, theta0)

    y_plugin = None
    if plugin:
        y_plugin = _blocked_value(vf, "value", t_rep, x_rep,
                                  np.broadcast_to(theta_pilot[:, None], th_rep.shape))

    r_y = r_z = None
    if residuals and epsilon > 0:
        r_y, r_z = residual_pair(model, vf, theta0, epsilon, t_rep, x_rep, xi_rep,
                                 y_hat - y_true, z_hat - z_true)

    failed = diverged | flat | info_bad
    return BatchResult(
        diverged=diverged,
        flat=flat,
        failed=failed,
        theta_pilot=theta_pilot,
        report_times=report_times,
        theta_onestep=th_rep,
        clamped=clamped,
        y_hat=y_hat,
        y_true=y_true,
        z_hat=z_hat,
        z_true=z_true,
        y_plugin=y_plugin,
        xi=xi_rep,
        r_y=r_y,
        r_z=r_z,
        sup_abs_y_err=sup_err,
    )
