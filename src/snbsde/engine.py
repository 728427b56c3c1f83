"""Lockstep vectorized replication engine for Monte Carlo runs.

Replications are statistically independent, so the harness advances many of
them simultaneously: one array op per Euler step, per RK4 stage, per score
update.  No state crosses replications; the pilot's Gauss-Newton refinement
freezes a replication at its own convergence point, and every reduction runs
along one replication's own row or along the time axis, so each
replication's numbers are a pure function of (seed, stream_id), bit for bit
the same for any chunking or blocking of the replication set.

`run_batch` keeps one path-sized array, the row-major paths X, and makes
every other pass in cache-sized pieces.  `simulate_batch` draws each Philox
noise row straight into the row-major increments dW and steps Euler-Maruyama
over time tiles, each in a small time-major buffer written back transposed
into X.  With residuals, the limiting Gaussian factor xi is formed from dW
in row blocks right after the simulation, and dW is dropped.  The pilot and
the head score read the window [0, delta] of every row.  Then each block of
about ROW_BLOCK elements of rows goes through the information read, the
tail score, the one-step and the sup sweep before the next block starts.
The one-step, and the information and tail score it is formed from, are
built only at the nodes some output reads: the report nodes, T and, for the
sup statistic, the sup nodes.

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

from .errors import ConfigurationError
from .grids import TimeGrid, increment_rows
from .models import (ModelSpec, broadcast_eval, _euler_maruyama, rk4_sensitivity,
                     _rk4_march, _rk4_values)

# Element cap per value-function evaluation block; keeps the quadrature
# work matrix (elements x nodes) around half a GB.
EVAL_BLOCK = 500_000
# Element cap of the row blocks that run_batch carries from the information
# read through the sup sweep: 2 MB of float64 per (rows, n+1) array.
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
                   seed: int, stream_ids: Sequence[int]):
    """Euler-Maruyama paths for a block of replications.

    Row r is driven by the stream (seed, stream_ids[r]), drawn by
    grids.increment_rows bit for bit as NoiseSource(seed, sid).increments,
    straight into the row-major increments dW of shape (M, n), whose running
    sum from 0 is W.  The paths X, row-major (M, n+1), come from the one
    Euler-Maruyama loop simulate_forward also runs, stepped over cache-sized
    time tiles.  Returns (X, dW, diverged).  Diverged rows are frozen at x0
    from the blow-up node on and flagged; their numbers are never used
    downstream.
    """
    dW = increment_rows(seed, stream_ids, grid.n_steps, grid.h)
    X, first = _euler_maruyama(model, theta0, epsilon, grid, dW)
    return X, dW, first <= grid.n_steps


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
    contiguous row and a row's numbers do not depend on the other rows.
    """
    r = xw - x
    wxdot = w * xdot
    f = np.sum(w * r**2, axis=1)
    return f, _step(np.sum(wxdot * r, axis=1), np.sum(wxdot * xdot, axis=1))


def refine_scan(cand: np.ndarray, obj: np.ndarray, first_step, evaluate):
    """Bracketed Gauss-Newton refinement of scanned 1-d minima, one per row.

    obj (k, len(cand)) holds each row's objective F at the increasing scan
    candidates cand, which span the parameter interval [lo, hi]; F = +inf
    (a candidate whose flow diverged) is never picked.  A row whose other
    scan values have no usable spread, or hold a NaN, is flat.  Otherwise its
    minimum is bracketed between the neighbours of its best candidate and
    refined inside that bracket, one lockstep pass over the rows still moving:
    first_step(best) gives each row's step at its best candidate, and
    evaluate(idx, thetas) the pair (F, step) of the rows idx at their trial
    values.  A step that raises F by more than the scan's flatness threshold,
    below which F differences are rounding, is halved; otherwise the trial is
    accepted and stepped on.  A row settles once its step is at most half of
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
    f_acc = obj[np.arange(obj.shape[0]), best]
    trial = np.clip(theta + first_step(best), a, b)
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


def _contract(c: np.ndarray, values: np.ndarray) -> np.ndarray:
    # einsum without `optimize` over C-ordered (K, n) values with n >= 2 adds
    # one node's products to the whole output at a time, so every entry sums
    # the nodes in their order, whatever the rows and columns.  A single
    # column would make the node sum einsum's inner loop, and a BLAS product
    # (c @ values) may block the rows: either can change the last bit.
    v = np.ascontiguousarray(values)
    if v.shape[1] == 1:
        return np.einsum("mk,kn->mn", c, np.repeat(v, 2, axis=1))[:, :1]
    return np.einsum("mk,kn->mn", c, v)


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
    the pilot's scan candidates with their exact window flow and sensitivity.
    Each part is built on first use and then kept, so a study that hands one
    table to all its blocks and chunks builds each part once, and a single
    path builds only the parts it reads.  The content depends only on
    (model, grid, delta), never on the replications, so a row's numbers do
    not depend on the chunk or block it runs in.

    The information part depends on (model, grid) only: it holds the whole
    profiles on [0, T], and `node_info` is its view on [delta, T].  The
    tables that `for_window` derives for other windows share it, so a study
    over several windows integrates the information flow once.

    A node part is checked when it is built: its interpolant at the
    TABLE_PROBES fractions of theta_interval must match direct RK4 within
    TABLE_TOL, relative to the sup norm of each profile.  If it misses, or
    the RK4 diverges at a node or a probe, the part is None and its reads run
    the RK4 per row, as the engine did before tables: a drift that is not
    smooth in theta, or that blows up near an edge of theta_interval, costs
    time but never changes an answer or aborts a block.  There a row whose
    flow diverges reads window rows x = +inf with a NaN sensitivity, so its
    window objective is +inf, and information 0, so the one-step flags it.
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

    def _direct_window(self, thetas):
        x, xdot, ok = rk4_sensitivity(self.model, thetas, self.wgrid, mask=True)
        x, xdot = np.ascontiguousarray(x.T), np.ascontiguousarray(xdot.T)
        x[~ok], xdot[~ok] = np.inf, np.nan
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
    def scan(self):
        """(candidates, flow, sensitivity, ok): SCAN_POINTS points spanning
        the closed theta_interval, their (SCAN_POINTS, i+1) window rows, and
        whether each candidate's window RK4 stayed finite; the rows of the
        others are not finite."""
        cand = np.linspace(*self.model.theta_interval, SCAN_POINTS)
        x, xdot, ok = rk4_sensitivity(self.model, cand, self.wgrid, mask=True)
        return cand, np.ascontiguousarray(x.T), np.ascontiguousarray(xdot.T), ok

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

    @property
    def node_info(self):
        """Information rows (K, n+1-i) at the nodes on [delta, T], or None."""
        info = self.grid_info
        return None if info is None else info[:, self.i_delta:]

    def window(self, thetas: np.ndarray):
        """Window flow and its RK4 sensitivity at thetas, C-ordered (k, i+1) rows."""
        if self.node_window is None:
            return self._direct_window(thetas)[0]
        c = _barycentric_rows(self.nodes, thetas)
        return tuple(_contract(c, v) for v in self.node_window)

    def info(self, thetas: np.ndarray, cols=None) -> np.ndarray:
        """Information profiles at thetas on the grid nodes cols of [delta, T]
        (all of them by default), (k, len(cols)) rows: bit for bit those
        columns of the whole profiles."""
        sel = slice(self.i_delta, None) if cols is None else np.asarray(cols)
        if self.grid_info is None:
            return self._direct_info(thetas)[0][0][:, sel]
        return _contract(_barycentric_rows(self.nodes, thetas), self.grid_info[:, sel])


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
    sensitivity of the RK4 flow.  The scan reads the table's exact candidate
    flows; each Gauss-Newton pass reads x and its sensitivity at the live
    rows' trial values from the table's interpolants (from RK4 per row when
    the table fell back).  Without a table, the one of (model, grid, delta)
    is built, so a single path gets the numbers a block gets.

    Returns (theta_pilot, flat) where flat marks rows whose window objective
    has no usable spread or that had not settled after PILOT_MAX_PASSES.
    """
    table = _table_for(model, grid, delta, table)
    i = table.i_delta
    xw = X[:, : i + 1]
    w = _trapezoid_weights(i + 1, table.wgrid.h)

    cand, flows, sens, ok = table.scan
    # a candidate whose window flow diverges is never the best one
    obj = np.full((X.shape[0], SCAN_POINTS), np.inf)
    buf = np.empty(xw.shape)  # w (xw - flow)^2 of one candidate, built in place
    for j in np.flatnonzero(ok):
        np.square(np.subtract(xw, flows[j], out=buf), out=buf)
        obj[:, j] = np.sum(np.multiply(w, buf, out=buf), axis=1)

    def first_step(best):
        # the scan already holds the flow and sensitivity at each row's best candidate
        return _gauss_newton(xw, flows[best], sens[best], w)[1]

    def evaluate(idx, thetas):
        # a trial whose window flow diverged, or overflows F, reads F = +inf
        with np.errstate(over="ignore", invalid="ignore"):
            return _gauss_newton(xw[idx], *table.window(thetas), w)

    return refine_scan(cand, obj, first_step, evaluate)


def flow_batch(model: ModelSpec, thetas: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Limit flows for a vector of parameters, C-ordered rows of shape (M, n+1).
    A lane that diverges runs on without touching the others and ends non-finite."""
    return np.ascontiguousarray(_rk4_march(model, thetas, grid, False)[0].T)


def fisher_profile_batch(model: ModelSpec, thetas: np.ndarray, flows: np.ndarray,
                         grid: TimeGrid) -> np.ndarray:
    """Information profiles int_0^t (S_theta / sigma)^2 ds along each flow row."""
    times = grid.times[None, :]
    q = np.square(model.drift_dtheta(thetas[:, None], times, flows))
    q = np.divide(q, np.square(model.diffusion(times, flows)),
                  out=q if np.shape(q) == flows.shape else None)
    return _cumtrapz_rows(broadcast_eval(q, flows.shape), grid.h)


def score_tail_profile_batch(model: ModelSpec, thetas: np.ndarray, X: np.ndarray,
                             grid: TimeGrid, i_delta: int, cols=None) -> np.ndarray:
    """Tail score profiles sum_{i_delta <= k < j} B (X_{k+1} - X_k - S h) at
    the increasing grid nodes j in cols of [delta, T] (all of them by
    default), for every row of X.  Its scratch arrays have the size of X on
    [delta, T], so run_batch hands it one block of rows at a time."""
    tk = grid.times[None, i_delta:-1]
    xk = X[:, i_delta:-1]
    th = thetas[:, None]
    incr = X[:, i_delta + 1:] - xk
    incr -= np.multiply(model.drift(th, tk, xk), grid.h)
    # B = S_theta / sigma^2 on the coefficients' own shapes
    incr *= np.divide(model.drift_dtheta(th, tk, xk), np.square(model.diffusion(tk, xk)))
    prof = np.zeros((X.shape[0], xk.shape[1] + 1))
    np.cumsum(incr, axis=1, out=prof[:, 1:])
    return prof if cols is None else prof[:, np.asarray(cols) - i_delta]


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

    y_plugin is set only with plugin=True, xi, r_y and r_z only with
    residuals=True (r_y and r_z also need epsilon > 0), and sup_abs_y_err only
    with sup_stride > 0; otherwise they are None.
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
    terminal_abs_err: np.ndarray
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
    flow0 = _rk4_values(model, float(theta0), grid)
    info0 = fisher_profile_batch(model, np.array([float(theta0)]), flow0[None, :], grid)[0]
    wgt = np.divide(model.drift_dtheta(theta0, times[:-1], flow0[:-1]),
                    model.diffusion(times[:-1], flow0[:-1]))
    return broadcast_eval(wgt, (grid.n_steps,)), info0


def _limit_factor(limit, dW: np.ndarray, nodes: np.ndarray):
    """Limiting Gaussian factor xi(t) = int_0^t (S_theta / sigma) dW / I(t)
    along the flow at theta0, at the given nodes, with a left-point
    stochastic sum; limit is limit_weights(model, theta0, grid).  Returns
    (xi, info): xi of shape (M, len(nodes)), 0 where I(theta0, t) is below
    INFO_FLOOR, and I(theta0, t) at the nodes.  The running sums are formed
    in blocks of about ROW_BLOCK elements of rows, each row's in node order,
    so no array of the size of dW is built."""
    wgt, info0 = limit
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

    tail and info are the (M, C) tail score and information profiles at the
    same C nodes of [delta, T], in increasing order and ending at T (all of
    them, or only those a caller reads).  Both buffers are consumed: the
    estimates are built in tail's, and info is set to inf below INFO_FLOOR,
    where the correction is dropped and the node counts as clamped.  The
    estimates are clipped to the closure of theta_interval.  Returns (theta,
    clamped, info_bad): theta at the C nodes, clamped only at the columns
    cols, and info_bad marking rows whose information never reaches the
    floor.
    """
    # information is nondecreasing, so a row is unusable only if its final value is
    info_bad = info[:, -1] < INFO_FLOOR
    low = info[:, cols] < INFO_FLOOR
    np.copyto(info, np.inf, where=info < INFO_FLOOR)
    raw = tail
    raw += head[:, None]
    raw /= info
    raw += theta_pilot[:, None]
    lo, hi = model.theta_interval
    clamped = (raw[:, cols] < lo) | (raw[:, cols] > hi) | low
    return np.clip(raw, lo, hi, out=raw), clamped, info_bad


def run_batch(model: ModelSpec, vf, theta0: float, epsilon: float, grid: TimeGrid,
              delta: float, report_times: Sequence[float], seed: int,
              stream_ids: Sequence[int], *, plugin: bool = False,
              residuals: bool = False, sup_stride: int = 0,
              table: Optional[ThetaTable] = None, limit=None) -> BatchResult:
    """Full pipeline for one block of replications.

    sup_stride > 0 additionally tracks sup |Y_hat - Y| over every
    sup_stride-th node of [delta, T]; a contiguous range of sup nodes (every
    sup_stride = 1 sweep) reads X and the one-step as views, and Y reads
    theta0 as one scalar.

    table is the ThetaTable of (model, grid, delta) and limit is
    limit_weights(model, theta0, grid); a caller running many chunks or
    blocks builds each once and passes it to every chunk, and either is
    built here when not given.  The pilot reads the window flow and
    sensitivity from the table, and the one-step reads each row's
    information profile from it at the row's pilot.

    After the simulation, the pilot and the head score, rows go in blocks of
    about ROW_BLOCK elements through the information read, the tail score,
    the one-step and the sup sweep, so no array of the size of X is built
    after it.  The one-step is formed only at the report nodes, T (the
    terminal identity, and the information test of onestep_batch) and the
    sup nodes, bit for bit the same columns of its whole profile.
    """
    i = grid.node_index(delta)
    n = grid.n_steps
    report_times = np.asarray([float(t) for t in report_times])
    r_idx = np.array([grid.node_index(t) for t in report_times])
    if np.any(r_idx < i):
        raise ConfigurationError("report times must not precede delta")
    table = _table_for(model, grid, delta, table)
    # every sup_stride-th node of [delta, T] and T
    sup_nodes = np.union1d(np.arange(i, n + 1, sup_stride), n) if sup_stride > 0 else \
        np.array([], int)
    cols = np.unique(np.concatenate((r_idx, sup_nodes, [n])))
    rep = np.searchsorted(cols, r_idx)

    X, dW, diverged = simulate_batch(model, theta0, epsilon, grid, seed, stream_ids)
    xi_rep = None
    if residuals:
        limit = limit_weights(model, theta0, grid) if limit is None else limit
        xi_rep = _limit_factor(limit, dW, r_idx)[0]
    del dW
    theta_pilot, flat = pilot_batch(model, X, grid, delta, table)
    head = score_head_batch(model, theta_pilot, X, grid, i, epsilon)

    m = X.shape[0]
    th_rep = np.empty((m, rep.size))
    clamped = np.empty((m, rep.size), dtype=bool)
    info_bad = np.empty(m, dtype=bool)
    theta_T = np.empty((m, 1))
    sup_err = np.empty(m) if sup_stride > 0 else None
    t_sup = grid.times[None, sup_nodes]
    x_sup, th_sup = _columns(sup_nodes), _columns(np.searchsorted(cols, sup_nodes))
    # the RK4 fallback integrates every row's flow in one lockstep pass
    info_all = table.info(theta_pilot, cols) if table.grid_info is None else None
    rows_per_block = max(1, ROW_BLOCK // (n + 1))
    for lo in range(0, m, rows_per_block):
        r = slice(lo, lo + rows_per_block)
        th = theta_pilot[r]
        info = table.info(th, cols) if info_all is None else info_all[r]
        tail = score_tail_profile_batch(model, th, X[r], grid, i, cols)
        theta_cols, clamped[r], info_bad[r] = onestep_batch(model, th, tail, head[r], info, rep)
        del info, tail
        th_rep[r] = theta_cols[:, rep]
        theta_T[r] = theta_cols[:, -1:]
        if sup_stride > 0:
            x_sel = X[r, x_sup]
            yh = vf.value(t_sup, x_sel, theta_cols[:, th_sup]) - vf.value(t_sup, x_sel, theta0)
            sup_err[r] = np.max(np.abs(yh, out=yh), axis=1)

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

    # terminal identity
    t_T = grid.times[-1:]
    x_T = X[:, -1:]
    y_hat_T = _blocked_value(vf, "value", t_T, x_T, theta_T)
    phi_T = _blocked_value(vf, "value", t_T, x_T, theta0)
    terminal_abs_err = np.abs(y_hat_T[:, 0] - phi_T[:, 0])

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
        terminal_abs_err=terminal_abs_err,
        sup_abs_y_err=sup_err,
    )
