"""Empirical characteristic and phase function machinery.

The outcome characteristic function fixes a usable frequency band [0, t*]:
t* is the first point of the scan grid step, 2 step, ... (step = 0.01/sd(y),
capped at 50/sd(y)) where the empirical CF modulus drops to the n^{-1/2}
noise floor. The scan evaluates the ECF of the centered distinct outcome
values d (centering leaves the modulus unchanged) together with its
derivative, and skips every grid point that provably stays above the floor:
with a = |phi'(t)|, M2 = mean d^2 >= |phi''| and gap = |phi(t)| - n^{-1/2},
Taylor's theorem gives |phi(t + h)| >= |phi(t)| - a h - M2 h^2 / 2, which
stays above the floor for h < 2 gap / (a + sqrt(a^2 + 2 M2 gap)). The first
crossing is therefore the same grid point a dense scan finds, reached in a
few dozen ECF evaluations.

On that band the phase discrepancy integrates the squared mismatch between
the outcome phase and the weighted phase of the fitted linear index, under
the kernel (1 - t/t*)^2 and a fixed-order Gauss-Legendre rule. The gradient
and Hessian of the discrepancy are exact (differentiation under the
integral), evaluated on the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, PhaseValueError
from .model_data import RegressionDesign, as_theta

__all__ = [
    "EcfOutcome",
    "build_ecf",
    "ecf_values",
    "kernel",
    "wepf",
    "dtilde",
    "grad_dtilde",
    "grad_and_hessian",
]

#: Gauss-Legendre node count on [0, t*]
N_QUAD = 64
#: the t* scan uses step = T_STEP_SCALE / sd(y) and cap = T_CAP_SCALE / sd(y)
T_STEP_SCALE = 0.01
T_CAP_SCALE = 50.0


@dataclass(frozen=True)
class EcfOutcome:
    """Outcome empirical CF sampled on the quadrature grid of [0, t*].

    grid : strictly increasing quadrature nodes in (0, t*).
    quad_w : matching Gauss-Legendre weights.
    c_y, s_y : real and imaginary parts of the empirical CF of y on the grid.
    t_star : frequency cutoff; capped marks a scan that never hit the noise floor.
    """

    grid: np.ndarray
    quad_w: np.ndarray
    c_y: np.ndarray
    s_y: np.ndarray
    t_star: float
    capped: bool = False


@lru_cache(maxsize=8)
def _gl_rule(n_quad: int):
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    return nodes, weights


def kernel(t, t_star: float):
    """Weight kernel on [0, t*]: (1 - t/t*)^2."""
    return (1.0 - np.asarray(t) / t_star) ** 2


def _ecf_from_counts(vals, counts, n: int, t):
    """(mean cos(t y), mean sin(t y)) from the distinct values and their counts."""
    ty = t[:, None] * vals[None, :]
    return (np.cos(ty) @ counts) / n, (np.sin(ty) @ counts) / n


def ecf_values(y, t):
    """Empirical CF components of y: (mean cos(t y), mean sin(t y)) for each t.

    Tied values are evaluated once and weighted by their counts; a bootstrap
    resample repeats about a third of its rows.
    """
    y = np.asarray(y, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals, counts = np.unique(y, return_counts=True)
    return _ecf_from_counts(vals, counts.astype(float), y.size, t)


def _scan_t_star(vals, counts, n: int, step: float, cap: float):
    """First grid point t = j step, 1 <= j <= floor(cap/step), where the ECF of
    the sample with distinct values vals and multiplicities counts has
    re^2 + im^2 <= 1/n. Returns (t*, capped): (that point, False), or (the
    last grid point, True) when no point crosses.

    Between evaluations the scan skips the points that the second-order bound
    in the module docstring keeps above the floor; the 1e-9 margin absorbs
    rounding in the skip length.
    """
    d = vals - (counts @ vals) / n
    m2 = (counts @ d**2) / n
    basis = np.column_stack([counts, counts * d]) / n
    floor_sq = 1.0 / n
    floor = np.sqrt(floor_sq)
    n_steps = int(np.floor(cap / step))
    j = 1
    while j <= n_steps:
        # phi(t) and -i phi'(t) of the centered sample
        phi, dphi = np.exp(1j * (j * step) * d) @ basis
        mod_sq = phi.real**2 + phi.imag**2
        if mod_sq <= floor_sq:
            return float(j * step), False
        gap = np.sqrt(mod_sq) - floor
        a = abs(dphi)
        h = 2.0 * gap / (a + np.sqrt(a * a + 2.0 * m2 * gap))
        j += max(1, int(h / step * (1.0 - 1e-9)))
    return float(n_steps * step), True


def build_ecf(y) -> EcfOutcome:
    """Select t* and freeze the outcome ECF on the quadrature grid.

    Beyond the first noise-floor crossing the modulus merely fluctuates around
    the floor, so the first crossing bounds the usable band. A scan that
    reaches its cap without a crossing (lattice-like outcomes) returns the cap
    and sets capped. Raises DegenerateInputError for fewer than 2 or constant
    outcomes.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 2:
        raise DegenerateInputError("need at least 2 outcome values")
    sd = y.std(ddof=1)
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    t_star, capped = _scan_t_star(vals, counts, n, T_STEP_SCALE / sd, T_CAP_SCALE / sd)
    nodes, quad_w = _gl_rule(N_QUAD)
    grid = 0.5 * t_star * (nodes + 1.0)
    weights = 0.5 * t_star * quad_w
    c_y, s_y = _ecf_from_counts(vals, counts, n, grid)
    return EcfOutcome(grid=grid, quad_w=weights, c_y=c_y, s_y=s_y,
                      t_star=t_star, capped=capped)


def _as_weights(weights) -> np.ndarray:
    return np.asarray(getattr(weights, "q", weights), dtype=float)


def _as_design(design) -> np.ndarray:
    if isinstance(design, RegressionDesign):
        return design.v
    return np.asarray(design, dtype=float)


def wepf(theta, design, weights, t: float) -> complex:
    """Weighted empirical phase function of the fitted linear index at frequency t.

    Equals (sum_j q_j exp(i t v_j)) normalized to unit modulus, with
    v_j = w_bar_j' beta + z_j' gamma. Raises PhaseValueError when the
    normalizing modulus vanishes (possible at large t).
    """
    v = _as_design(design) @ as_theta(theta)
    q = _as_weights(weights)
    re = q @ np.cos(t * v)
    im = q @ np.sin(t * v)
    mod = np.hypot(re, im)
    if mod <= 1e-12:
        raise PhaseValueError(
            f"weighted phase function undefined at t={t:.6g}: modulus {mod:.3g}"
        )
    return complex(re / mod, im / mod)


def _phase_tables(theta, v: np.ndarray, q: np.ndarray, ecf: EcfOutcome):
    """Node-by-observation trig tables shared by the criterion and its derivatives.

    q is one weight vector (n,) or S of them as the columns of an (n, S)
    array; g is (n_quad,) or (n_quad, S) to match.
    """
    idx = v @ as_theta(theta)
    tv = ecf.grid[:, None] * idx[None, :]
    sin_tv = np.sin(tv)
    cos_tv = np.cos(tv)
    col = (-1,) + (1,) * (q.ndim - 1)
    g = ecf.c_y.reshape(col) * (sin_tv @ q) - ecf.s_y.reshape(col) * (cos_tv @ q)
    base_w = ecf.quad_w * kernel(ecf.grid, ecf.t_star)
    return sin_tv, cos_tv, g, base_w


def dtilde(theta, design, weights, ecf: EcfOutcome) -> float:
    """Phase discrepancy: integral of the squared phase mismatch over [0, t*]."""
    v = _as_design(design)
    q = _as_weights(weights)
    _, _, g, base_w = _phase_tables(theta, v, q, ecf)
    return float(base_w @ g**2)


def grad_dtilde(theta, design, weights, ecf: EcfOutcome) -> np.ndarray:
    """Exact gradient of the phase discrepancy with respect to [beta, gamma].

    weights is one vector (n,), giving a (k,) gradient, or S weight vectors
    as the columns of an (n, S) array, giving an (S, k) array of gradients
    from one pair of trig tables.
    """
    v = _as_design(design)
    q = _as_weights(weights)
    sin_tv, cos_tv, g, base_w = _phase_tables(theta, v, q, ecf)
    n, k = v.shape
    n_quad = ecf.grid.size
    # column s*k + j holds q_s * v_j, so one product per table covers every scheme
    qv = (q.reshape(n, -1, 1) * v[:, None, :]).reshape(n, -1)
    gmat = ecf.grid[:, None] * (ecf.c_y[:, None] * (cos_tv @ qv)
                                + ecf.s_y[:, None] * (sin_tv @ qv))
    wg = base_w[:, None] * g.reshape(n_quad, -1)
    grad = 2.0 * np.einsum("ts,tsk->sk", wg, gmat.reshape(n_quad, -1, k))
    return grad.reshape(q.shape[1:] + (k,))


def grad_and_hessian(theta, v: np.ndarray, q: np.ndarray, ecf: EcfOutcome):
    """Gradient and Hessian of the discrepancy in one pass over the trig tables."""
    sin_tv, cos_tv, g, base_w = _phase_tables(theta, v, q, ecf)
    bc = (cos_tv * q) @ v
    bs = (sin_tv * q) @ v
    gmat = ecf.grid[:, None] * (ecf.c_y[:, None] * bc + ecf.s_y[:, None] * bs)
    grad = 2.0 * ((base_w * g) @ gmat)
    term1 = 2.0 * gmat.T @ (base_w[:, None] * gmat)
    wg = base_w * g * ecf.grid**2
    coef = 2.0 * q * ((wg * ecf.s_y) @ cos_tv - (wg * ecf.c_y) @ sin_tv)
    term2 = v.T @ (coef[:, None] * v)
    return grad, term1 + term2
