"""Lockstep vectorized replication engine for Monte Carlo runs.

Replications are statistically independent, so the harness advances many of
them simultaneously: one array op per Euler step, per RK4 stage, per score
update.  No state crosses replications; every iterative routine (the pilot's
Gauss-Newton refinement, composite quadrature) freezes a replication at its
own convergence point, so each replication's numbers are a pure function of
(seed, stream_id) and never depend on which other replications share the
batch.  All reductions run along one replication's own contiguous row or
along the time axis, which keeps results bit-identical for any chunking of
the replication set.

A block builds only what its callers read, and drops each path-sized (M, n+1)
array once it has been used.  `simulate_batch` returns the Brownian
increments, not their running sum; `run_batch` keeps them, and builds the
limiting Gaussian factor xi from them, only when residuals are requested.

The pilot here is also the scalar `estimation.mde_estimate`, which runs it on
a one-row batch.  The scalar score and flow routines in `estimation` and
`bsde` remain separate reference implementations, pinned to the engine by
equivalence tests.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import NoiseSource, TimeGrid
from .models import BLOWUP_GUARD, ModelSpec, broadcast_eval, rk4_sensitivity, _rk4_values

# Element cap per value-function evaluation block; keeps the quadrature
# work matrix (elements x nodes) around half a GB.
EVAL_BLOCK = 500_000
VECTOR_QUAD_TOL = 1e-10
# Floor below which the information integral is treated as non-invertible.
INFO_FLOOR = 1e-10
# Coarse scan size of the 1-d minimizers, and their settling tolerance as a
# fraction of the parameter interval.
SCAN_POINTS = 64
REFINE_FACTOR = 1e-8
# Gauss-Newton passes after the scan before an unsettled pilot is flagged.
PILOT_MAX_PASSES = 40


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

    Returns (X, dW, diverged): X of shape (M, n+1) and the Brownian
    increments dW of shape (M, n), whose running sum from 0 is W.  Diverged
    rows are frozen at x0 from the blow-up node on and flagged; their numbers
    are never used downstream.
    """
    m = len(stream_ids)
    n = grid.n_steps
    h = grid.h
    times = grid.times
    # time-major buffers: each Euler step reads and writes contiguous rows
    dw = np.empty((n, m))
    for r, sid in enumerate(stream_ids):
        dw[:, r] = NoiseSource(seed, sid).increments(n, h)
    xs = np.empty((n + 1, m))
    xs[0] = model.x0
    # rows are independent, so a row that blows up runs on and is frozen
    # after the loop, from its first node beyond the guard
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = times[k]
            x = xs[k]
            s = broadcast_eval(model.drift(theta0, t, x), x.shape)
            sig = broadcast_eval(model.diffusion(t, x), x.shape)
            xs[k + 1] = x + s * h + epsilon * sig * dw[k]
        ok = xs <= BLOWUP_GUARD
        ok &= xs >= -BLOWUP_GUARD
    diverged = ~ok.all(axis=0)
    for r in np.flatnonzero(diverged):
        xs[np.argmin(ok[:, r]):, r] = model.x0
    del ok
    return np.ascontiguousarray(xs.T), dw.T, diverged


def _resolution(f: np.ndarray) -> np.ndarray:
    """Smallest difference of window-objective values treated as real."""
    return 1e-12 * np.maximum(1.0, np.abs(f))


def _gauss_newton(xw: np.ndarray, x: np.ndarray, xdot: np.ndarray, w: np.ndarray):
    """Window objective F = sum w (xw - x)^2 and Gauss-Newton step per row.

    All arrays are C-ordered (k, nw+1) rows, so every sum runs along one
    contiguous row and a row's numbers do not depend on the other rows.
    """
    r = xw - x
    wxdot = w * xdot
    f = np.sum(w * r**2, axis=1)
    grad = np.sum(wxdot * r, axis=1)
    curv = np.sum(wxdot * xdot, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(curv > 0.0, grad / curv, 0.0)
    return f, step


def pilot_batch(model: ModelSpec, X: np.ndarray, grid: TimeGrid, delta: float):
    """Minimum-distance pilots for all rows of X on the window [0, delta].

    Minimizes F(theta) = sum_k w_k (X_k - x_k(theta))^2, the trapezoidal
    L^2 distance to the RK4 limit flow.  A SCAN_POINTS scan brackets each
    row's minimum between the neighbours of its best candidate; Gauss-Newton
    on the exact sensitivity of the RK4 flow then refines it inside that
    bracket, one lockstep pass over the rows still moving.  A step that
    raises F is halved.  A row settles once its step is at most half of
    (hi - lo) * REFINE_FACTOR.

    Returns (theta_pilot, flat) where flat marks rows whose window objective
    has no usable spread or that had not settled after PILOT_MAX_PASSES.
    """
    i = grid.node_index(delta)
    wgrid = grid.prefix(delta)
    xw = X[:, : i + 1]
    w = _trapezoid_weights(i + 1, wgrid.h)
    lo, hi = model.theta_interval
    half_tol = 0.5 * (hi - lo) * REFINE_FACTOR

    cand = np.linspace(lo, hi, SCAN_POINTS)
    flows, sens = rk4_sensitivity(model, cand, wgrid)  # (nw+1, 64) each
    obj = np.empty((X.shape[0], SCAN_POINTS))
    buf = np.empty(xw.shape)  # w (xw - flow)^2 of one candidate, built in place
    for j in range(SCAN_POINTS):
        np.square(np.subtract(xw, flows[:, j], out=buf), out=buf)
        obj[:, j] = np.sum(np.multiply(w, buf, out=buf), axis=1)
    top = obj.max(axis=1)
    flat = ~(top - obj.min(axis=1) > _resolution(top))

    best = np.argmin(obj, axis=1)
    a = cand[np.maximum(best - 1, 0)]
    b = cand[np.minimum(best + 1, SCAN_POINTS - 1)]

    # the scan already holds the flow and sensitivity at each row's best candidate
    theta = cand[best]
    f_acc = obj[np.arange(X.shape[0]), best]
    _, step = _gauss_newton(xw, np.ascontiguousarray(flows.T)[best],
                            np.ascontiguousarray(sens.T)[best], w)
    trial = np.clip(theta + step, a, b)
    live = ~flat & (np.abs(trial - theta) > half_tol)
    for _ in range(PILOT_MAX_PASSES):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        x, xdot = rk4_sensitivity(model, trial[idx], wgrid)
        f, step = _gauss_newton(xw[idx], np.ascontiguousarray(x.T),
                                np.ascontiguousarray(xdot.T), w)
        th, tr = theta[idx], trial[idx]
        # halve a step that raised F by more than the scan's flatness
        # threshold, below which F differences are rounding; otherwise accept
        # the trial and step on
        rose = f - f_acc[idx] > _resolution(f_acc[idx])
        theta[idx] = np.where(rose, th, tr)
        f_acc[idx] = np.where(rose, f_acc[idx], f)
        trial[idx] = np.where(rose, th + 0.5 * (tr - th),
                              np.clip(tr + step, a[idx], b[idx]))
        live[idx] = np.abs(trial[idx] - theta[idx]) > half_tol
    flat |= live
    theta_pilot = np.where(flat, 0.5 * (lo + hi), trial)
    return theta_pilot, flat


def flow_batch(model: ModelSpec, thetas: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Limit flows for a vector of parameters, C-ordered rows of shape (M, n+1)."""
    return np.ascontiguousarray(_rk4_values(model, thetas, grid).T)


def fisher_profile_batch(model: ModelSpec, thetas: np.ndarray, flows: np.ndarray,
                         grid: TimeGrid) -> np.ndarray:
    """Information profiles int_0^t (S_theta / sigma)^2 ds along each flow row."""
    times = grid.times[None, :]
    th = thetas[:, None]
    q = np.square(broadcast_eval(model.drift_dtheta(th, times, flows), flows.shape))
    q /= np.square(np.asarray(model.diffusion(times, flows), dtype=float))
    return _cumtrapz_rows(q, grid.h)


def score_tail_profile_batch(model: ModelSpec, thetas: np.ndarray, X: np.ndarray,
                             grid: TimeGrid, i_delta: int) -> np.ndarray:
    h = grid.h
    tk = grid.times[None, i_delta:-1]
    xk = X[:, i_delta:-1]
    th = thetas[:, None]
    shape = xk.shape
    b = broadcast_eval(model.drift_dtheta(th, tk, xk), shape) / \
        broadcast_eval(model.diffusion(tk, xk), shape) ** 2
    incr = b * (X[:, i_delta + 1:] - xk - broadcast_eval(model.drift(th, tk, xk), shape) * h)
    out = np.zeros((X.shape[0], X.shape[1] - i_delta))
    np.cumsum(incr, axis=1, out=out[:, 1:])
    return out


def vector_simpson(fn, n_rows: int, tol: float = VECTOR_QUAD_TOL, max_levels: int = 14):
    """Composite-Simpson quadrature on [0, 1] for a batch of integrands.

    fn(u) maps quadrature nodes (k,) to integrand values (n_rows, k).  Interval
    count doubles until each row's Richardson estimate settles to tol; settled
    rows freeze so results do not depend on the rest of the batch.  Returns
    (values, failed).
    """
    n = 2
    u = np.linspace(0.0, 1.0, n + 1)
    vals = fn(u)
    s_prev = (1.0 / (3.0 * n)) * (vals[:, 0] + 4.0 * vals[:, 1] + vals[:, 2])
    result = np.zeros(n_rows)
    settled = np.zeros(n_rows, dtype=bool)
    for _ in range(max_levels):
        n *= 2
        u = np.linspace(0.0, 1.0, n + 1)
        vals = fn(u)
        hu = 1.0 / n
        s = (hu / 3.0) * (vals[:, 0] + vals[:, -1]
                          + 4.0 * np.sum(vals[:, 1:-1:2], axis=1)
                          + 2.0 * np.sum(vals[:, 2:-1:2], axis=1))
        err = s - s_prev
        est = s + err / 15.0
        agree = np.abs(err) <= 15.0 * tol
        newly = agree & ~settled
        result = np.where(newly, est, result)
        settled |= agree
        if np.all(settled):
            return result, np.zeros(n_rows, dtype=bool)
        s_prev = s
    result = np.where(settled, result, s_prev)
    return result, ~settled


def _primitive_batch(model: ModelSpec, thetas: np.ndarray, s_time: float,
                     x_to: np.ndarray):
    """Vector state primitive A(theta_m, s, x_m) = int_{x0}^{x_m} B dz."""
    span = x_to - model.x0
    th = thetas[:, None]

    def integrand(u):
        z = model.x0 + span[:, None] * u[None, :]
        shape = z.shape
        b = broadcast_eval(model.drift_dtheta(th, s_time, z), shape) / \
            broadcast_eval(model.diffusion(s_time, z), shape) ** 2
        return b * span[:, None]

    return vector_simpson(integrand, thetas.size)


def score_head_batch(model: ModelSpec, thetas: np.ndarray, X: np.ndarray,
                     grid: TimeGrid, i_delta: int, epsilon: float):
    """Vector head score on [0, delta]; mirrors score_head.  Returns (head, failed)."""
    h = grid.h
    times = grid.times[: i_delta + 1]
    xs = X[:, : i_delta + 1]
    w = _trapezoid_weights(i_delta + 1, h)
    m = thetas.size
    delta = float(times[-1])

    a_term, failed = _primitive_batch(model, thetas, delta, xs[:, -1])

    a_s_sum = np.zeros(m)
    horizon = model.horizon
    for k in range(i_delta + 1):
        t_node = float(times[k])
        lo = t_node - h
        hi = t_node + h
        if lo < 0.0:
            lo = t_node
        if hi > horizon:
            hi = t_node
        if hi == lo:
            raise ConfigurationError("cannot form a finite difference in s")
        ap, f1 = _primitive_batch(model, thetas, hi, xs[:, k])
        am, f2 = _primitive_batch(model, thetas, lo, xs[:, k])
        failed = failed | f1 | f2
        a_s_sum += w[k] * (ap - am) / (hi - lo)

    th = thetas[:, None]
    tk = times[None, :]
    shape = xs.shape
    sdot = broadcast_eval(model.drift_dtheta(th, tk, xs), shape)
    sig = broadcast_eval(model.diffusion(tk, xs), shape)
    sdot_x = broadcast_eval(model.drift_dtheta_dx(th, tk, xs), shape)
    sig_x = broadcast_eval(model.diffusion_dx(tk, xs), shape)
    s_val = broadcast_eval(model.drift(th, tk, xs), shape)
    bx_sigma2 = sdot_x - 2.0 * sdot * sig_x / sig
    head = (a_term - a_s_sum
            - 0.5 * epsilon**2 * np.sum(w * bx_sigma2, axis=1)
            - np.sum(w * sdot * s_val / sig**2, axis=1))
    return head, failed


@dataclass
class BatchResult:
    """Per-replication outputs of one engine block (all arrays length M).

    y_plugin is set only with plugin=True, xi, r_y and r_z only with
    residuals=True (r_y and r_z also need epsilon > 0), and sup_abs_y_err only
    with sup_stride > 0; otherwise they are None.
    """

    stream_ids: np.ndarray
    diverged: np.ndarray
    flat: np.ndarray
    quad_failed: np.ndarray
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


def _blocked_value(vf, method, t_nodes, x_rows, theta_rows):
    """Evaluate a value-function method over (M, K) arrays in bounded blocks."""
    m, k = x_rows.shape
    out = np.empty((m, k))
    rows_per_block = max(1, EVAL_BLOCK // max(k, 1))
    fn = getattr(vf, method)
    for lo in range(0, m, rows_per_block):
        hi = min(lo + rows_per_block, m)
        out[lo:hi] = fn(t_nodes[None, :], x_rows[lo:hi], theta_rows[lo:hi])
    return out


def _limit_factor(model: ModelSpec, theta0: float, grid: TimeGrid, dW: np.ndarray,
                  nodes: np.ndarray) -> np.ndarray:
    """Limiting Gaussian factor xi(t) = int_0^t (S_theta / sigma) dW / I(t)
    along the flow at theta0, at the given nodes; shape (M, len(nodes))."""
    times = grid.times
    flow0 = _rk4_values(model, float(theta0), grid)
    info0 = _cumtrapz_rows(
        broadcast_eval(model.drift_dtheta(theta0, times, flow0), times.shape) ** 2
        / broadcast_eval(model.diffusion(times, flow0), times.shape) ** 2,
        grid.h,
    )
    wgt = broadcast_eval(model.drift_dtheta(theta0, times[:-1], flow0[:-1]),
                         (grid.n_steps,)) / \
        broadcast_eval(model.diffusion(times[:-1], flow0[:-1]), (grid.n_steps,))
    cums = np.zeros((dW.shape[0], grid.n_steps + 1))
    np.cumsum(wgt[None, :] * dW, axis=1, out=cums[:, 1:])
    info_n = info0[None, nodes]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(info_n < INFO_FLOOR, 0.0, cums[:, nodes] / info_n)


def run_batch(model: ModelSpec, vf, theta0: float, epsilon: float, grid: TimeGrid,
              delta: float, report_times: Sequence[float], seed: int,
              stream_ids: Sequence[int], *, plugin: bool = False,
              residuals: bool = False, sup_stride: int = 0) -> BatchResult:
    """Full pipeline for one block of replications.

    sup_stride > 0 additionally tracks sup |Y_hat - Y| over every
    sup_stride-th node of [delta, T].
    """
    i = grid.node_index(delta)
    report_times = np.asarray([float(t) for t in report_times])
    r_idx = np.array([grid.node_index(t) for t in report_times])
    if np.any(r_idx < i):
        raise ConfigurationError("report times must not precede delta")

    X, dW, diverged = simulate_batch(model, theta0, epsilon, grid, seed, stream_ids)
    xi_rep = _limit_factor(model, theta0, grid, dW, r_idx) if residuals else None
    del dW
    theta_pilot, flat = pilot_batch(model, X, grid, delta)

    flows = flow_batch(model, theta_pilot, grid)
    info = fisher_profile_batch(model, theta_pilot, flows, grid)[:, i:]
    del flows
    tail = score_tail_profile_batch(model, theta_pilot, X, grid, i)
    head, quad_failed = score_head_batch(model, theta_pilot, X, grid, i, epsilon)

    rel = r_idx - i
    # information is nondecreasing, so a row is unusable only if its final value is
    info_bad = info[:, -1] < INFO_FLOOR
    low_rep = info[:, rel] < INFO_FLOOR
    # raw = theta_pilot + (tail + head) / info, built in tail's buffer; below
    # the information floor the correction is dropped and the node is clamped
    np.copyto(info, np.inf, where=info < INFO_FLOOR)
    raw = tail
    raw += head[:, None]
    raw /= info
    del info
    raw += theta_pilot[:, None]
    lo, hi = model.theta_interval
    clamped = (raw[:, rel] < lo) | (raw[:, rel] > hi) | low_rep
    theta_prof = np.clip(raw, lo, hi, out=raw)

    t_rep = grid.times[r_idx]
    x_rep = X[:, r_idx]
    th_rep = theta_prof[:, rel]
    y_hat = _blocked_value(vf, "value", t_rep, x_rep, th_rep)
    y_true = _blocked_value(vf, "value", t_rep, x_rep, np.broadcast_to(theta0, th_rep.shape))
    sig_rep = broadcast_eval(model.diffusion(t_rep[None, :], x_rep), x_rep.shape)
    z_hat = epsilon * sig_rep * _blocked_value(vf, "value_x", t_rep, x_rep, th_rep)
    z_true = epsilon * sig_rep * _blocked_value(
        vf, "value_x", t_rep, x_rep, np.broadcast_to(theta0, th_rep.shape))

    y_plugin = None
    if plugin:
        y_plugin = _blocked_value(vf, "value", t_rep, x_rep,
                                  np.broadcast_to(theta_pilot[:, None], th_rep.shape))

    r_y = r_z = None
    if residuals and epsilon > 0:
        th0_rep = np.broadcast_to(theta0, th_rep.shape)
        udot = _blocked_value(vf, "value_theta", t_rep, x_rep, th0_rep)
        udot_x = _blocked_value(vf, "value_theta_x", t_rep, x_rep, th0_rep)
        r_y = (y_hat - y_true - epsilon * udot * xi_rep) / epsilon
        r_z = (z_hat - z_true - epsilon**2 * sig_rep * udot_x * xi_rep) / epsilon**2

    # terminal identity
    t_T = grid.times[-1:]
    x_T = X[:, -1:]
    y_hat_T = _blocked_value(vf, "value", t_T, x_T, theta_prof[:, -1:])
    phi_T = _blocked_value(vf, "value", t_T, x_T, np.broadcast_to(theta0, x_T.shape))
    terminal_abs_err = np.abs(y_hat_T[:, 0] - phi_T[:, 0])

    sup_err = None
    if sup_stride > 0:
        nodes = np.arange(i, grid.n_steps + 1, sup_stride)
        if nodes[-1] != grid.n_steps:
            nodes = np.append(nodes, grid.n_steps)
        sup_err = np.zeros(X.shape[0])
        cols_per_block = max(1, EVAL_BLOCK // max(X.shape[0], 1))
        for lo_c in range(0, nodes.size, cols_per_block):
            sel = nodes[lo_c: lo_c + cols_per_block]
            t_sel = grid.times[sel]
            x_sel = X[:, sel]
            th_sel = theta_prof[:, sel - i]
            yh = _blocked_value(vf, "value", t_sel, x_sel, th_sel)
            yt = _blocked_value(vf, "value", t_sel, x_sel, np.broadcast_to(theta0, th_sel.shape))
            sup_err = np.maximum(sup_err, np.max(np.abs(yh - yt), axis=1))

    failed = diverged | flat | quad_failed | info_bad
    return BatchResult(
        stream_ids=np.asarray(list(stream_ids)),
        diverged=diverged,
        flat=flat,
        quad_failed=quad_failed,
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
