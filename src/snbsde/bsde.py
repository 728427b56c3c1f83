"""Assembly of the backward-equation approximation from one observed path.

Given a forward path X on [0, T], the approximation on [delta, T] is

    Y_hat_t = u(t, X_t, theta_onestep_t),
    Z_hat_t = epsilon sigma(t, X_t) u_x(t, X_t, theta_onestep_t),

with theta_onestep the one-step estimator profile.  In experiment mode (true
theta0 supplied) the oracle pair Y, Z and the limiting Gaussian factor

    xi_t = I(theta0, t)^{-1} int_0^t (S_theta/sigma)(theta0, s, x_s) dW_s

are computed alongside, so that first-order residuals and efficiency ratios
can be formed per replication.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (INFO_FLOOR, ThetaTable, limit_weights, residual_pair, value_pair,
                     _limit_factor)
from .errors import ConfigurationError, SingularInformationError
from .estimation import (EstimateTrace, EstimationWindow, LimitQuantities,
                         limit_quantities, mde_estimate, onestep_trace)
from .grids import Path, window_grid
from .models import ModelSpec


@dataclass
class BsdeApproximation:
    """Approximation output on the nodes of [delta, T]."""

    x_obs: Path
    y_hat: Path
    z_hat: Path
    trace: EstimateTrace
    y_true: Optional[Path] = None
    z_true: Optional[Path] = None
    error_limit: Optional[Path] = None

    @property
    def times(self) -> np.ndarray:
        return self.y_hat.times


@dataclass
class ResidualDecomposition:
    """First-order residuals r_Y = (Y_hat - Y - eps udot xi)/eps and
    r_Z = (Z_hat - Z - eps^2 sigma udot_x xi)/eps^2."""

    r_y: Path
    r_z: Path
    degenerate: bool = False


def approximate_bsde(model: ModelSpec, vf, X: Path, W: Path,
                     window: EstimationWindow, epsilon: float,
                     theta0: Optional[float] = None) -> BsdeApproximation:
    """Pilot estimate, one-step profile, and value-function evaluation.

    vf is any value-function backend exposing value/value_x (and
    limit_theta_derivatives for bounds).  When theta0 is given the oracle Y,
    Z and the limiting Gaussian factor xi are attached for risk evaluation.
    Every stage is the engine's on the one-row batch holding X, and the
    pilot and the one-step read one engine.ThetaTable.
    """
    delta = window.delta
    i = X.grid.node_index(delta)
    table = ThetaTable(model, X.grid, delta)
    trace = onestep_trace(model, mde_estimate(model, X, delta, table=table), X, delta,
                          epsilon, table=table)

    wgrid = window_grid(X.grid, delta)
    t_arr = X.times[i:]
    x_row = X.values[None, i:]
    y_hat, z_hat = value_pair(model, vf, epsilon, t_arr, x_row,
                              trace.theta_onestep[None, :])
    out = BsdeApproximation(
        x_obs=Path(wgrid, X.values[i:].copy()),
        y_hat=Path(wgrid, y_hat[0]),
        z_hat=Path(wgrid, z_hat[0]),
        trace=trace,
    )
    if theta0 is None:
        return out

    y_true, z_true = value_pair(model, vf, epsilon, t_arr, x_row, theta0)
    xi, info0 = _limit_factor(limit_weights(model, theta0, X.grid),
                              np.diff(W.values)[None, :], np.arange(i, X.grid.n_steps + 1))
    if np.any(info0 < INFO_FLOOR):
        raise SingularInformationError("information below floor past the learning window")
    out.y_true = Path(wgrid, y_true[0])
    out.z_true = Path(wgrid, z_true[0])
    out.error_limit = Path(wgrid, xi[0])
    return out


def residual_decomposition(approx: BsdeApproximation, model: ModelSpec, vf,
                           theta0: float, epsilon: float) -> ResidualDecomposition:
    """Normalized remainders after subtracting the first-order expansion,
    by the engine's residual formula on the one-row batch."""
    if approx.y_true is None or approx.error_limit is None:
        raise ConfigurationError("residuals need an approximation built with theta0")
    wgrid = approx.y_hat.grid
    if epsilon == 0.0:
        zeros = np.zeros(approx.y_hat.values.shape)
        return ResidualDecomposition(Path(wgrid, zeros), Path(wgrid, zeros.copy()), degenerate=True)
    r_y, r_z = residual_pair(model, vf, theta0, epsilon, approx.times,
                             approx.x_obs.values[None, :], approx.error_limit.values,
                             approx.y_hat.values - approx.y_true.values,
                             approx.z_hat.values - approx.z_true.values)
    return ResidualDecomposition(Path(wgrid, r_y[0]), Path(wgrid, r_z[0]))


def efficiency_bounds(model: ModelSpec, vf, theta0: float, t,
                      limit: Optional[LimitQuantities] = None):
    """Pointwise lower bounds for the normalized Y and Z risks at time t:

        boundY = udot0(t, x_t, theta0)^2 / I(theta0, t),
        boundZ = udot0_x(t, x_t, theta0)^2 sigma(t, x_t)^2 / I(theta0, t),

    with udot0 the theta-derivative of the limit value function along the
    limit flow x at theta0.  x_t and I(theta0, t) are read from limit, an
    estimation.limit_quantities pass built at t (one pass over the times t
    when None).  Both derivatives at every time come from one
    vf.limit_theta_derivatives call, on the PDE backend one lockstep
    characteristics call of six lanes per time.  t is a time or a sequence
    of them; returns (boundY, boundZ) as floats for a time, as arrays over
    the sequence otherwise.  Raises SingularInformationError when
    I(theta0, t) is below the floor.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0):
        raise ConfigurationError("bounds need t > 0")
    if limit is None:
        limit = limit_quantities(model, theta0, None, ts)
    k = [limit.index(t_j) for t_j in ts.tolist()]
    info, x_t = limit.info[k].tolist(), limit.x[k].tolist()
    for t_j, info_j in zip(ts.tolist(), info):
        if info_j < INFO_FLOOR:
            raise SingularInformationError(
                f"information {info_j:.3e} below floor {INFO_FLOOR} at t={t_j}")
    udot0, udot0_x = (np.ravel(v).tolist()
                      for v in vf.limit_theta_derivatives(ts, np.array(x_t), theta0))
    bounds = np.empty((2, ts.size))
    for j, t_j in enumerate(ts.tolist()):
        sig_t = float(model.diffusion(t_j, x_t[j]))
        bounds[:, j] = udot0[j]**2 / info[j], udot0_x[j]**2 * sig_t**2 / info[j]
    if np.ndim(t) == 0:
        return float(bounds[0, 0]), float(bounds[1, 0])
    return bounds[0], bounds[1]

