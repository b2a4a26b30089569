"""Direct per-row formulas of the phase layer, kept as test oracles.

These evaluate cos(t y) and sin(t y) at every quadrature node for every
observation, with no node pairing and no collapsing of tied values, which is
what the fast paths in `eivgmm.phase` must reproduce to rounding level.
`node_pair_grad` and `build_ecf` are the exceptions: the node-pair path
over one sample's own rows and outcomes, the oracles of the bootstrap's
shared tables. So are `t_star_from_counts`, one sample's exact skip-ahead t*
scan (one exp over its own values per evaluation), the oracle of the
lockstep scan over shared tables, and `second_order_scan`, the t* scan
before its skip bound took the third derivative into account.
"""

import math

import numpy as np

from eivgmm.errors import DegenerateInputError
from eivgmm.model_data import as_theta
from eivgmm.phase import (
    _N_SCAN_STEPS,
    T_STEP_SCALE,
    EcfOutcome,
    _NodePairs,
    _phase_terms,
    _quad_rule,
    kernel,
)


#: the bootstrap's shared Chebyshev tables against each resample's own
#: node-pair tables: ECF components absolutely, phase gradients relative to
#: their largest component (the interpolation is accurate to rounding times
#: the Lebesgue constant, and a gradient is a small difference of such sums)
SHARED_ECF_ATOL = 1e-14
SHARED_GRAD_RTOL = 1e-11


class PhaseUndefinedError(ArithmeticError):
    """The weighted phase function has zero modulus at the requested frequency."""


def skip_rule(d, counts, n: int):
    """The t* scan's skip rule for the sample with centered distinct values d
    and multiplicities counts: returns skip(t), which is None where the ECF
    has re^2 + im^2 <= 1/n at t, and otherwise a length h such that
    |phi| > n^{-1/2} on all of [t, t + h).

    skip(t) gets phi, phi' and phi'' at t from one exp(i t d) and a 3-column
    basis. With u = phi/|phi|, r = |phi|, rho = Re(conj(u) phi'), sigma =
    Re(conj(u) phi''), M2 = mean d^2, M3 = mean |d|^3 and gap = r - n^{-1/2},
    Taylor's theorem bounds |phi(t + h)| >= Re(conj(u) phi(t + h)) from
    below twice: by r + rho h - M2 h^2 / 2, whose first crossing of the
    floor is h2, and on [0, 2 h2] by r + rho h + sigma h^2 / 2 - M3 h^3 / 6
    >= r + rho h + (sigma / 2 - M3 h2 / 3) h^2, whose first crossing h3 is
    taken in closed form and capped at 2 h2. It returns max(h2, h3). The
    scalar arithmetic is on Python floats, which cost less per operation
    than numpy scalars.
    """
    m2 = float(counts @ d**2) / n
    m3 = float(counts @ np.abs(d) ** 3) / n
    basis = np.stack([counts, counts * d, counts * d**2]) / n
    floor_sq = 1.0 / n
    floor = math.sqrt(floor_sq)

    def skip(t):
        # rows: phi(t), -i phi'(t) and -phi''(t), as (real, imaginary) pairs
        e = np.exp(1j * t * d)
        (re, im), (re1, im1), (re2, im2) = (basis @ e.view(float).reshape(-1, 2)).tolist()
        mod_sq = re * re + im * im
        if mod_sq <= floor_sq:
            return None
        r = math.sqrt(mod_sq)
        gap = r - floor
        rho = (im * re1 - re * im1) / r
        sigma = -(re * re2 + im * im2) / r
        # first positive roots, each in the form free of cancellation
        root = math.sqrt(rho * rho + 2.0 * m2 * gap)
        h2 = (rho + root) / m2 if rho >= 0.0 else 2.0 * gap / (root - rho)
        cap = 2.0 * h2
        curv = 0.5 * sigma - m3 * cap / 6.0
        disc = rho * rho - 4.0 * curv * gap
        h3 = cap
        if disc >= 0.0 and rho < 0.0:
            h3 = 2.0 * gap / (math.sqrt(disc) - rho)
        elif curv < 0.0:
            h3 = (rho + math.sqrt(disc)) / (-2.0 * curv)
        return max(h2, min(h3, cap))

    return skip


def scan_t_star(d, counts, n: int, step: float):
    """First grid point t = j step, 1 <= j <= _N_SCAN_STEPS, where the ECF of
    the sample with centered distinct values d and multiplicities counts has
    re^2 + im^2 <= 1/n. Returns (t*, capped): (that point, False), or (the
    last grid point, True) when no point crosses.

    Between evaluations the scan skips the points that skip_rule keeps
    above the floor; the 1e-9 margin absorbs rounding in the skip length.
    """
    skip = skip_rule(d, counts, n)
    j = 1
    while j <= _N_SCAN_STEPS:
        h = skip(j * step)
        if h is None:
            return float(j * step), False
        j += max(1, int(h / step * (1.0 - 1e-9)))
    return float(_N_SCAN_STEPS * step), True


def t_star_from_counts(vals: np.ndarray, counts: np.ndarray):
    """(t*, capped) of the sample that holds the sorted distinct values vals
    with multiplicities counts (float), by its own exact scan: the oracle of
    `eivgmm.phase._scan_t_stars`, which finds every sample's t* in one
    lockstep pass. sd(y) (ddof=1) is taken from the values and counts too,
    so t* depends only on them, not on the order of the observations.
    Raises DegenerateInputError for a constant sample."""
    if vals.size < 2:
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    n = counts.sum()
    d = vals - (counts @ vals) / n
    sd = np.sqrt((counts @ d**2) / (n - 1.0))
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    return scan_t_star(d, counts, n, T_STEP_SCALE / sd)


def second_order_scan(vals, counts, n: int, step: float):
    """First grid point t = j step, 1 <= j <= _N_SCAN_STEPS, where the ECF of
    the sample with distinct values vals and multiplicities counts has
    re^2 + im^2 <= 1/n; returns (t*, capped) as scan_t_star.

    Between evaluations it skips the points that the second-order bound
    keeps above the floor: with a = |phi'(t)|, M2 = mean d^2 >= |phi''| and
    gap = |phi(t)| - n^{-1/2}, |phi(t + h)| >= |phi(t)| - a h - M2 h^2 / 2,
    which stays above the floor for h < 2 gap / (a + sqrt(a^2 + 2 M2 gap)).
    """
    d = vals - (counts @ vals) / n
    m2 = (counts @ d**2) / n
    basis = np.column_stack([counts, counts * d]) / n
    floor_sq = 1.0 / n
    floor = np.sqrt(floor_sq)
    j = 1
    while j <= _N_SCAN_STEPS:
        # phi(t) and -i phi'(t) of the centered sample
        phi, dphi = np.exp(1j * (j * step) * d) @ basis
        mod_sq = phi.real**2 + phi.imag**2
        if mod_sq <= floor_sq:
            return float(j * step), False
        gap = np.sqrt(mod_sq) - floor
        a = abs(dphi)
        h = 2.0 * gap / (a + np.sqrt(a * a + 2.0 * m2 * gap))
        j += max(1, int(h / step * (1.0 - 1e-9)))
    return float(_N_SCAN_STEPS * step), True


def build_ecf(y) -> EcfOutcome:
    """t* and the outcome ECF of the sample y on the quadrature grid of
    [0, t*], from node-pair half tables over its distinct values: the
    per-sample path the bootstrap's shared tables replace, for the full
    sample and for every resample alike. A scan that reaches its cap
    without a crossing returns the cap and sets capped. Raises
    DegenerateInputError for a constant outcome."""
    vals, counts = np.unique(np.asarray(y, dtype=float), return_counts=True)
    counts = counts.astype(float)
    t_star, capped = t_star_from_counts(vals, counts)
    grid, quad_w = _quad_rule(t_star)
    cos_m, sin_m = _NodePairs(t_star, vals).times(counts[:, None] / counts.sum())
    return EcfOutcome(grid=grid, quad_w=quad_w, c_y=cos_m[:, 0], s_y=sin_m[:, 0],
                      t_star=t_star, capped=capped)


def ecf_from_counts(vals, counts, n: int, t):
    """(mean cos(t y), mean sin(t y)) from the distinct values and their counts."""
    ty = t[:, None] * vals[None, :]
    return (np.cos(ty) @ counts) / n, (np.sin(ty) @ counts) / n


def ecf_values(y, t):
    """Empirical CF components of y: (mean cos(t y), mean sin(t y)) for each t.

    Tied values are evaluated once and weighted by their counts.
    """
    y = np.asarray(y, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals, counts = np.unique(y, return_counts=True)
    return ecf_from_counts(vals, counts.astype(float), y.size, t)


def wepf(theta, v, q, t: float) -> complex:
    """Weighted empirical phase function of the fitted linear index at frequency t.

    Equals (sum_j q_j exp(i t v_j)) normalized to unit modulus, with
    v_j = w_bar_j' beta + z_j' gamma the index of design row j. Raises
    PhaseUndefinedError when the normalizing modulus vanishes (possible at
    large t).
    """
    v = v @ as_theta(theta)
    re = q @ np.cos(t * v)
    im = q @ np.sin(t * v)
    mod = np.hypot(re, im)
    if mod <= 1e-12:
        raise PhaseUndefinedError(
            f"weighted phase function undefined at t={t:.6g}: modulus {mod:.3g}"
        )
    return complex(re / mod, im / mod)


def phase_tables(theta, v: np.ndarray, q: np.ndarray, ecf: EcfOutcome):
    """Node-by-observation trig tables over the whole grid.

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


def dtilde(theta, v, q, ecf: EcfOutcome) -> float:
    """Phase discrepancy: integral of the squared phase mismatch over [0, t*]."""
    _, _, g, base_w = phase_tables(theta, v, q, ecf)
    return float(base_w @ g**2)


def grad_dtilde(theta, v, q, ecf: EcfOutcome) -> np.ndarray:
    """Gradient of dtilde over every row: (k,) for q (n,), (S, k) for q (n, S)."""
    sin_tv, cos_tv, g, base_w = phase_tables(theta, v, q, ecf)
    n, k = v.shape
    n_quad = ecf.grid.size
    qv = (q.reshape(n, -1, 1) * v[:, None, :]).reshape(n, -1)
    gmat = ecf.grid[:, None] * (ecf.c_y[:, None] * (cos_tv @ qv)
                                + ecf.s_y[:, None] * (sin_tv @ qv))
    wg = base_w[:, None] * g.reshape(n_quad, -1)
    grad = 2.0 * np.einsum("ts,tsk->sk", wg, gmat.reshape(n_quad, -1, k))
    return grad.reshape(q.shape[1:] + (k,))


def grad_and_hessian(theta, v, q, ecf: EcfOutcome):
    """Gradient and Hessian of dtilde over every row and every node."""
    sin_tv, cos_tv, g, base_w = phase_tables(theta, v, q, ecf)
    gmat = ecf.grid[:, None] * (ecf.c_y[:, None] * ((cos_tv * q) @ v)
                                + ecf.s_y[:, None] * ((sin_tv * q) @ v))
    grad = 2.0 * ((base_w * g) @ gmat)
    term1 = 2.0 * gmat.T @ (base_w[:, None] * gmat)
    wg = base_w * g * ecf.grid**2
    coef = 2.0 * q * ((wg * ecf.s_y) @ cos_tv - (wg * ecf.c_y) @ sin_tv)
    return grad, term1 + v.T @ (coef[:, None] * v)


def hessian_derivative(theta, v, q, ecf: EcfOutcome, u):
    """sum_i u_i d^3 dtilde / d theta_i d theta d theta' over every row and
    node, from the mismatch's index derivatives of orders 1 to 3 at each node:
    with D = sum_t w g^2 it is 2 sum_t w (g1 g2u' + g2u g1' + (g1 u) g2 + g g3u)."""
    sin_tv, cos_tv, g, base_w = phase_tables(theta, v, q, ecf)
    t = ecf.grid[:, None]
    c_y, s_y = ecf.c_y[:, None], ecf.s_y[:, None]
    vu = v @ u
    g1 = t * ((c_y * cos_tv + s_y * sin_tv) * q) @ v
    # index Hessian of the mismatch, (n_quad, k, k), and its derivative along u
    g2 = np.einsum("tj,jk,jl->tkl", t**2 * (s_y * cos_tv - c_y * sin_tv) * q, v, v)
    g3u = np.einsum("tj,jk,jl->tkl", -t**3 * (s_y * sin_tv + c_y * cos_tv) * (q * vu), v, v)
    g2u = g2 @ u
    outer = np.einsum("tk,tl->tkl", g1, g2u)
    per_node = (outer + outer.transpose(0, 2, 1) + (g1 @ u)[:, None, None] * g2
                + g[:, None, None] * g3u)
    return 2.0 * np.einsum("t,tkl->kl", base_w, per_node)


def node_pair_grad(theta, v, q, ecf: EcfOutcome) -> np.ndarray:
    """Gradient of dtilde from node-pair half tables over the rows given, as
    the bootstrap formed it per resample before its tables were shared:
    (k,) for q (n,), (S, k) for q (n, S), each column from its own products
    with one set of tables."""
    n, k = v.shape
    qs = q.reshape(n, -1)
    pairs = _NodePairs(ecf.t_star, v @ as_theta(theta))
    base_w = ecf.quad_w * kernel(ecf.grid, ecf.t_star)
    grad = np.empty((qs.shape[1], k))
    for col in range(qs.shape[1]):
        cos_m, sin_m = pairs.times(np.column_stack([qs[:, col], qs[:, col, None] * v]))
        g, gmat = _phase_terms(cos_m, sin_m, ecf.c_y, ecf.s_y, ecf.grid)
        grad[col] = 2.0 * ((base_w * g) @ gmat)
    return grad.reshape(q.shape[1:] + (k,))
