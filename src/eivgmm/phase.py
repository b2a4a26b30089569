"""Empirical characteristic and phase function machinery.

The outcome characteristic function fixes a usable frequency band [0, t*]:
t* is the first point of the scan grid step, 2 step, ... (step = 0.01/sd(y),
capped at 50/sd(y)) where the empirical CF modulus drops to the n^{-1/2}
noise floor. The scan evaluates the ECF of the centered distinct outcome
values d (centering leaves the modulus unchanged) together with its first
two derivatives, and skips every grid point that provably stays above the
floor: |phi(t + h)| is at least the ECF's component along phi(t), and
Taylor's theorem bounds that component from below by a quadratic in h with
M2 = mean d^2 >= |phi''| and by a cubic with M3 = mean |d|^3 >= |phi'''|
(see _skip_rule). The scan jumps by the longer of the two bounds' safe
lengths. The first crossing is therefore the same grid point a dense scan
finds, reached in about 12 (the bootstrap resamples of n=1000 t2.5
outcomes) to 16 (those of the acceptance grid) ECF evaluations, about half
as many as a bound from |phi'| and M2 alone allows.

On that band the phase discrepancy integrates the squared mismatch between
the outcome phase and the weighted phase of the fitted linear index, under
the kernel (1 - t/t*)^2 and a fixed-order Gauss-Legendre rule. The gradient
and Hessian of the discrepancy are exact (differentiation under the
integral), evaluated on the same nodes.

The Gauss-Legendre nodes come in pairs symmetric about the midpoint h = t*/2
of the band: t = h (1 - x) and t = h (1 + x). By angle addition,
cos(t a) and sin(t a) at both nodes of a pair follow from cos/sin(h a) and
cos/sin(h x a), so the sin/cos tables over a vector a hold half the nodes,
and every quadrature sum of grad_and_hessian over the grid is formed from
products with those half tables.

The bootstrap needs the outcome ECF and the phase gradients of the full
sample and of every resample, at one fixed theta, over subsets of the same
index values a = v theta and distinct outcomes (tied outcomes evaluated
once, weighted by their counts); only the band [0, t*_b] differs. The full
sample is the sample whose multiplicities are all one, so its ECF, which
the estimate is fitted with, comes from the same pass, as row 0 of the
bootstrap (see gmm._bootstrap_accumulate). Each sum sum_j m_j exp(i t c_j)
is an entire function of t, so _BootstrapPhase evaluates cos/sin(tau c) of
the centered values once, at Chebyshev points tau of [0, max_b t*_b]; one
matrix product with a block's weight columns gives every sample's sums
there, and barycentric interpolation (stable for Chebyshev points, and
accurate to rounding once their count passes the band's frequency) carries
them to each sample's own nodes, where the rotation by the center is
applied exactly. A few far values, such as an outlier, would call for many
more Chebyshev points; they are left out of the tables and summed exactly
at each sample's nodes instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError
from .model_data import as_theta

__all__ = [
    "EcfOutcome",
    "kernel",
    "grad_and_hessian",
]

#: Gauss-Legendre node count on [0, t*]; even, so the nodes pair up about t*/2
N_QUAD = 64
assert N_QUAD % 2 == 0
#: the t* scan uses step = T_STEP_SCALE / sd(y) and cap = T_CAP_SCALE / sd(y)
T_STEP_SCALE = 0.01
T_CAP_SCALE = 50.0
#: scan grid points j = 1 .. _N_SCAN_STEPS; a fixed count, so the cap does
#: not move by a step with the last bit of sd(y)
_N_SCAN_STEPS = round(T_CAP_SCALE / T_STEP_SCALE)
#: Chebyshev points of the shared bootstrap tables beyond T times the cut
_CHEB_MARGIN = 16


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


class _NodePairs:
    """Products with the N_QUAD x len(a) tables cos(t a) and sin(t a) over the
    quadrature grid t of [0, t*], built from half tables.

    The grid is t = h (1 -/+ x) for the N_QUAD/2 positive Gauss-Legendre
    offsets x and h = t*/2, so with ca, sa = cos, sin(h a) and co, so = cos,
    sin(h x a): cos(t a) = ca co +/- sa so and sin(t a) = sa co -/+ ca so.
    Only ca, sa and the (N_QUAD/2) x len(a) tables co, so are evaluated,
    stacked as the rows of tab; the full tables are never formed.
    """

    def __init__(self, t_star: float, a: np.ndarray):
        h = 0.5 * t_star
        half = N_QUAD // 2
        ha = h * a
        self.ca, self.sa = np.cos(ha), np.sin(ha)
        off = (h * _gl_rule(N_QUAD)[0][half:])[:, None] * a[None, :]
        self.tab = np.empty((N_QUAD, a.size))
        np.cos(off, out=self.tab[:half])
        np.sin(off, out=self.tab[half:])

    def times(self, m: np.ndarray):
        """(cos(t a) @ m, sin(t a) @ m) for m of shape (len(a), c); each (N_QUAD, c)."""
        c = m.shape[1]
        half = N_QUAD // 2
        prod = self.tab @ np.hstack([self.ca[:, None] * m, self.sa[:, None] * m])
        cc, cs = prod[:half, :c], prod[:half, c:]    # co @ (ca m), co @ (sa m)
        sc, ss = prod[half:, :c], prod[half:, c:]    # so @ (ca m), so @ (sa m)
        # the low node of pair i sits at row half - 1 - i, the high one at half + i
        return (np.vstack([(cc + ss)[::-1], cc - ss]),
                np.vstack([(cs - sc)[::-1], cs + sc]))

    def rtimes(self, r: np.ndarray):
        """(r @ cos(t a), r @ sin(t a)) for r of shape (..., N_QUAD); each (..., len(a))."""
        half = N_QUAD // 2
        low, high = r[..., :half][..., ::-1], r[..., half:]
        both = (high + low) @ self.tab[:half]
        diff = (high - low) @ self.tab[half:]
        return self.ca * both - self.sa * diff, self.sa * both + self.ca * diff


def _skip_rule(d, counts, n: int):
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


def _scan_t_star(d, counts, n: int, step: float):
    """First grid point t = j step, 1 <= j <= _N_SCAN_STEPS, where the ECF of
    the sample with centered distinct values d and multiplicities counts has
    re^2 + im^2 <= 1/n. Returns (t*, capped): (that point, False), or (the
    last grid point, True) when no point crosses.

    Between evaluations the scan skips the points that _skip_rule keeps
    above the floor; the 1e-9 margin absorbs rounding in the skip length.
    """
    skip = _skip_rule(d, counts, n)
    j = 1
    while j <= _N_SCAN_STEPS:
        h = skip(j * step)
        if h is None:
            return float(j * step), False
        j += max(1, int(h / step * (1.0 - 1e-9)))
    return float(_N_SCAN_STEPS * step), True


def _t_star_from_counts(vals: np.ndarray, counts: np.ndarray):
    """(t*, capped) of the sample that holds the sorted distinct values vals
    with multiplicities counts (float). sd(y) (ddof=1) is taken from the
    values and counts too, so t* depends only on them, not on the order of
    the observations. Raises DegenerateInputError for a constant sample."""
    if vals.size < 2:
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    n = counts.sum()
    d = vals - (counts @ vals) / n
    sd = np.sqrt((counts @ d**2) / (n - 1.0))
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    return _scan_t_star(d, counts, n, T_STEP_SCALE / sd)


def _quad_rule(t_star):
    """Gauss-Legendre nodes and weights of [0, t*]; a (b, 1) array of t* gives
    (b, N_QUAD) arrays."""
    nodes, quad_w = _gl_rule(N_QUAD)
    return 0.5 * t_star * (nodes + 1.0), 0.5 * t_star * quad_w


def _phase_terms(cos_m, sin_m, c_y, s_y, grid):
    """Mismatch g and its index derivative gmat at each node, from the sums
    cos_m, sin_m of cos/sin(t a) against the columns [q | q v] of one weight
    vector, on the last axis. c_y, s_y and grid broadcast against
    cos_m[..., 0]; g has that shape and gmat one more axis of length k."""
    g = c_y * sin_m[..., 0] - s_y * cos_m[..., 0]
    gmat = grid[..., None] * (c_y[..., None] * cos_m[..., 1:]
                              + s_y[..., None] * sin_m[..., 1:])
    return g, gmat


def grad_and_hessian(theta, v: np.ndarray, q: np.ndarray, ecf: EcfOutcome):
    """Gradient and Hessian of the discrepancy from one set of trig tables,
    and the contraction of its third derivatives with a direction.

    Returns (grad, hess, curv), where curv(u) is the k x k derivative of
    the Hessian along u, sum_i u_i d^3 D / d theta_i d theta d theta'. It
    reuses the tables: one more product with them over the k columns
    q (v u) v gives the mismatch's index Hessian along u at each node, and
    one more 4-row product back gives the per-row coefficients of the terms
    that carry a second or third index derivative of the mismatch.
    """
    pairs = _NodePairs(ecf.t_star, v @ as_theta(theta))
    cos_m, sin_m = pairs.times(np.column_stack([q, q[:, None] * v]))
    g, gmat = _phase_terms(cos_m, sin_m, ecf.c_y, ecf.s_y, ecf.grid)
    base_w = ecf.quad_w * kernel(ecf.grid, ecf.t_star)
    grad = 2.0 * ((base_w * g) @ gmat)
    term1 = 2.0 * gmat.T @ (base_w[:, None] * gmat)
    t_sq = ecf.grid**2
    wg = base_w * g * t_sq
    r_cos, r_sin = pairs.rtimes(np.stack([wg * ecf.s_y, wg * ecf.c_y]))
    coef = 2.0 * q * (r_cos[0] - r_sin[1])
    term2 = v.T @ (coef[:, None] * v)

    def curv(u):
        vu = v @ u
        # index Hessian of the mismatch times u, t^2 sum_j q_j (v_j u) v_j
        # (s_y cos(t a_j) - c_y sin(t a_j)), at each node
        cos_u, sin_u = pairs.times((q * vu)[:, None] * v)
        hu = t_sq[:, None] * (ecf.s_y[:, None] * cos_u - ecf.c_y[:, None] * sin_u)
        wg3 = wg * ecf.grid
        wgu = base_w * t_sq * (gmat @ u)
        r_cos, r_sin = pairs.rtimes(np.stack([wg3 * ecf.c_y, wg3 * ecf.s_y,
                                              wgu * ecf.s_y, wgu * ecf.c_y]))
        coef = 2.0 * q * (r_cos[2] - r_sin[3] - vu * (r_cos[0] + r_sin[1]))
        cross = 2.0 * gmat.T @ (base_w[:, None] * hu)
        return cross + cross.T + v.T @ (coef[:, None] * v)

    return grad, term1 + term2, curv


def _cheb_rule(t_max: float, n_cheb: int):
    """Second-kind Chebyshev points of [0, t_max], ascending, and their
    barycentric weights (-1)^m, halved at the two ends."""
    m = np.arange(n_cheb)
    tau = t_max * np.sin(0.5 * np.pi * m / (n_cheb - 1)) ** 2
    bary_w = np.where(m % 2 == 0, 1.0, -1.0)
    bary_w[[0, -1]] *= 0.5
    return tau, bary_w


def _barycentric(tau: np.ndarray, bary_w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(..., len(tau)) matrices whose row r carries values at the points tau
    to the point t[..., r], by the barycentric formula; a t on a point takes
    its value."""
    diff = t[..., None] - tau
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = bary_w / diff
    c = np.where(hit.any(axis=-1, keepdims=True), hit, c)
    return c / c.sum(axis=-1, keepdims=True)


class _BootstrapPhase:
    """Outcome ECF and phase gradients of the samples of the bootstrap pass
    (the full sample and the resamples) at one theta, each sample on the
    quadrature grid of its own band [0, t*_b].

    v is the (n, k) design, y_vals the distinct outcomes and t_stars the
    samples' t* (NaN where a scan failed). The centered values are
    c = a - mean(a), a = v theta, and c = y_vals - mean(y_vals). With T the
    largest t*, the values with |c| <= cut go in shared tables of
    cos/sin(tau c) at n_cheb = ceil(T cut) + _CHEB_MARGIN Chebyshev points
    tau of [0, T]: on [-1, 1] their sums oscillate at frequency up to
    T cut / 2, and the points number twice that plus a margin. The far
    values, |c| > cut, keep zero columns in the tables, and their cos/sin
    are evaluated exactly at each live sample's N_QUAD nodes. The cut is
    the |c| that minimizes the sin/cos evaluations: n_cheb per value the
    tables hold, plus N_QUAD per far value and live sample. Most samples
    have no far value or a few.
    """

    def __init__(self, v: np.ndarray, theta, y_vals: np.ndarray, t_stars: np.ndarray):
        a = v @ as_theta(theta)
        self.v1 = np.column_stack([np.ones(v.shape[0]), v])
        self.centers = (a.mean(), y_vals.mean())
        c = (a - self.centers[0], y_vals - self.centers[1])
        live = np.isfinite(t_stars)
        t_max = np.max(t_stars, initial=0.0, where=live)
        mags = np.sort(np.abs(np.concatenate(c)))
        held = np.searchsorted(mags, mags, side="right")
        n_cheb = np.ceil(t_max * mags) + _CHEB_MARGIN
        best = np.argmin(n_cheb * held + live.sum() * N_QUAD * (mags.size - held))
        self.n_cheb = int(n_cheb[best])
        self.tau, self.bary_w = _cheb_rule(t_max, self.n_cheb)
        # per value set: the (2 n_cheb, len(c)) table of cos(tau c) over
        # sin(tau c), zero where |c| > cut, and those far values' indices and c
        self.tables, self.far = [], []
        for ci in c:
            arg, far = self.tau[:, None] * ci[None, :], np.abs(ci) > mags[best]
            self.tables.append(np.vstack([np.cos(arg), np.sin(arg)]) * ~far)
            self.far.append((np.flatnonzero(far), ci[far]))

    def block(self, t_star: np.ndarray, y_w: np.ndarray, q: np.ndarray):
        """ECF and phase gradients of a block of samples.

        t_star (b,) holds their finite t*, y_w (b, n_y) their outcome counts
        over y_vals divided by n, and q (b, S, n) their weights under S
        schemes. Returns c_y, s_y (b, N_QUAD) on each sample's grid and the
        gradients (b, S, k).
        """
        b, n_s, n = q.shape
        width = self.v1.shape[1]
        grid, quad_w = _quad_rule(t_star[:, None])
        # columns [q_s | q_s v] of every sample and scheme
        cols = np.multiply(q.transpose(2, 0, 1)[..., None], self.v1[:, None, None, :],
                           out=np.empty((n, b, n_s, width))).reshape(n, b, -1)
        interp = _barycentric(self.tau, self.bary_w, grid)
        # each sample's sums at its own nodes, (2, b, N_QUAD, columns), cos
        # over sin: the held values' interpolated from the sums at the
        # Chebyshev points, plus the far values' evaluated at the nodes
        at_nodes = []
        for tab, (far, far_c), m in zip(self.tables, self.far, (cols, y_w.T[..., None])):
            at_cheb = (tab @ m.reshape(len(m), -1)).reshape(2, self.n_cheb, b, -1)
            arg, m_far = grid[..., None] * far_c, m[far].transpose(1, 0, 2)
            at_nodes.append(interp @ at_cheb.transpose(0, 2, 1, 3)
                            + np.stack([np.cos(arg) @ m_far, np.sin(arg) @ m_far]))
        at_a, at_y = at_nodes
        cos_m, sin_m = self._rotate(at_a, grid[..., None] * self.centers[0])
        c_y, s_y = self._rotate(at_y[..., 0], grid * self.centers[1])
        shape = (b, N_QUAD, n_s, width)
        g, gmat = _phase_terms(cos_m.reshape(shape), sin_m.reshape(shape),
                               c_y[..., None], s_y[..., None], grid[..., None])
        base_w = quad_w * kernel(grid, t_star[:, None])
        grads = 2.0 * np.einsum("bts,btsk->bsk", base_w[..., None] * g, gmat)
        return c_y, s_y, grads

    @staticmethod
    def _rotate(at_nodes: np.ndarray, angle: np.ndarray):
        """Sums of cos/sin(t c) from those of the centered values, given as
        at_nodes[0], at_nodes[1], and the angle t times the center."""
        cos_c, sin_c = at_nodes
        ca, sa = np.cos(angle), np.sin(angle)
        return ca * cos_c - sa * sin_c, sa * cos_c + ca * sin_c
