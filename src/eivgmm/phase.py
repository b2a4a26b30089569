"""Empirical characteristic and phase function machinery.

The outcome characteristic function fixes a usable frequency band [0, t*]:
t* is the first scan point where the empirical CF modulus drops to the
n^{-1/2} noise floor. On that band the phase discrepancy integrates the
squared mismatch between the outcome phase and the weighted phase of the
fitted linear index, under the kernel (1 - t/t*)^2 and a fixed-order
Gauss-Legendre rule. The gradient and Hessian of the discrepancy are exact
(differentiation under the integral), evaluated on the same nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, PhaseValueError
from .model_data import RegressionDesign, as_theta

__all__ = [
    "PhaseConfig",
    "EcfOutcome",
    "select_t_star",
    "build_ecf",
    "ecf_values",
    "kernel",
    "wepf",
    "dtilde",
    "grad_dtilde",
    "grad_and_hessian",
]

_SCAN_CHUNK = 512


@dataclass(frozen=True)
class PhaseConfig:
    """Tuning knobs for the phase-function criterion.

    n_quad : Gauss-Legendre node count on [0, t*].
    t_step_scale / t_cap_scale : the t* scan uses step = t_step_scale / sd(y)
        and cap = t_cap_scale / sd(y).
    The kernel is fixed to (1 - t/t*)^2.
    """

    n_quad: int = 64
    t_step_scale: float = 0.01
    t_cap_scale: float = 50.0

    def __post_init__(self):
        if self.n_quad < 16:
            raise ValueError("n_quad must be at least 16")
        if self.t_step_scale <= 0 or self.t_cap_scale <= self.t_step_scale:
            raise ValueError("need 0 < t_step_scale < t_cap_scale")


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


def ecf_values(y, t):
    """Empirical CF components of y: (mean cos(t y), mean sin(t y)) for each t.

    Tied values are evaluated once and weighted by their counts; a bootstrap
    resample repeats about a third of its rows.
    """
    y = np.asarray(y, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    ty = t[:, None] * vals[None, :]
    return (np.cos(ty) @ counts) / y.size, (np.sin(ty) @ counts) / y.size


def select_t_star(y, step: float | None = None, cap: float | None = None) -> float:
    """First scan frequency where |ecf of y| reaches the n^{-1/2} noise floor.

    Scans t = step, 2 step, ... up to cap (defaults 0.01/sd(y) and 50/sd(y)).
    Beyond the first crossing the modulus merely fluctuates around the noise
    floor, so the first down-crossing bounds the usable band. When the cap is
    reached without a crossing, the cap is returned and a warning is emitted.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 2:
        raise DegenerateInputError("need at least 2 outcome values")
    sd = y.std(ddof=1)
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    if step is None:
        step = 0.01 / sd
    if cap is None:
        cap = 50.0 / sd
    n_steps = int(np.floor(cap / step))
    # Tied values are rotated once and weighted by their counts. On each chunk
    # exp(i t y) is evaluated by elementwise cumulative rotation (one exp per
    # chunk, complex products after), which is several times cheaper than
    # per-node cos/sin on the fine scan grid; the squared modulus of the mean
    # is compared with the squared floor 1/n.
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    rot = np.exp(1j * step * vals)
    for start in range(1, n_steps + 1, _SCAN_CHUNK):
        length = min(_SCAN_CHUNK, n_steps + 1 - start)
        block = np.broadcast_to(rot, (length, vals.size)).copy()
        block[0] = np.exp(1j * (start * step) * vals)
        np.cumprod(block, axis=0, out=block)
        mean = (block @ counts) / n
        hit = np.nonzero(mean.real**2 + mean.imag**2 <= 1.0 / n)[0]
        if hit.size:
            return float((start + hit[0]) * step)
    endpoint = n_steps * step
    warnings.warn(
        f"ecf modulus never reached n^(-1/2)={n ** -0.5:.3g}; returning scan cap {endpoint:.3g}",
        RuntimeWarning,
        stacklevel=2,
    )
    return float(endpoint)


def build_ecf(y, cfg: PhaseConfig = PhaseConfig()) -> EcfOutcome:
    """Select t* and freeze the outcome ECF on the quadrature grid."""
    y = np.asarray(y, dtype=float)
    sd = y.std(ddof=1)
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    step = cfg.t_step_scale / sd
    cap = cfg.t_cap_scale / sd
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t_star = select_t_star(y, step=step, cap=cap)
        capped = any(issubclass(w.category, RuntimeWarning) for w in caught)
    nodes, quad_w = _gl_rule(cfg.n_quad)
    grid = 0.5 * t_star * (nodes + 1.0)
    weights = 0.5 * t_star * quad_w
    c_y, s_y = ecf_values(y, grid)
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
