"""Empirical characteristic and phase function machinery.

The outcome characteristic function fixes a usable frequency band [0, t*]:
t* is the first point of the scan grid step, 2 step, ... (step = 0.01/sd(y),
capped at 50/sd(y)) where the empirical CF modulus drops to the n^{-1/2}
noise floor. The bootstrap needs the t* of the full sample and of every
resample, and _scan_t_stars finds them all in one lockstep pass. At a grid
point it evaluates a sample's ECF together with its first two derivatives,
and skips every grid point that provably stays above the floor: |phi(t + h)|
is at least the ECF's component along phi(t), and Taylor's theorem bounds
that component from below by a quadratic in h with M2 = mean d^2 >= |phi''|
and by a cubic with M3 = mean |d|^3 >= |phi'''|, d the sample's values
about its own mean (see _skip_lengths). The scan jumps by the longer of
the two bounds' safe lengths, so the first crossing is the same grid point
a dense scan finds. The ECF sums are entire functions of t, so they come
from shared tables: cos/sin(tau c) of the centered distinct outcomes c at
Chebyshev points tau of the doubling intervals [0, T0], [T0, 2 T0], ...,
one product of each table with the samples' counts, and one barycentric row
per sample and step. Values far from the center, such as an outlier, stay
out of the tables and are summed exactly; a sample whose interpolated
|phi| lies within the interpolation's error bound of the floor is decided
by an exact evaluation. Each t* is therefore the one an exact scan of that
sample alone finds, bit for bit; tests/phase_oracles.py keeps that scan as
the oracle. The bootstrap of a perfbench replication (n=1000, B=100) takes
a median 32 lockstep steps over 2.6 tables.

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
#: the lockstep t* scan trusts its interpolated sums phi, -i phi' and -phi''
#: to _INTERP_ULPS * eps * n_cheb of their absolute scales sum_j m_j |c_j|^p / n:
#: each table argument tau c rounds by at most eps * 2 n_cheb, the Lebesgue
#: constant of the Chebyshev points stays below 8 up to n_cheb = 10^5, and
#: the rest leaves room for the rounding of the sums
_INTERP_ULPS = 256
#: a row whose interpolated |phi| lies within its error bound plus this of
#: n^{-1/2} is decided by an exact evaluation (room for that one's rounding)
_FLOOR_MARGIN = 1e-11
#: evaluations of one row in one interval of the lockstep scan, as its
#: far-value cut prices them
_SCAN_TABLE_EVALS = 16


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


def _cheb_rule(lo: float, hi: float, n_cheb: int):
    """Second-kind Chebyshev points of [lo, hi], ascending, and their
    barycentric weights (-1)^m, halved at the two ends."""
    m = np.arange(n_cheb)
    tau = lo + (hi - lo) * np.sin(0.5 * np.pi * m / (n_cheb - 1)) ** 2
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


def _far_cut(mags: np.ndarray, length: float, far_evals):
    """The one cut rule of the shared Chebyshev tables. Values with |c| <= cut
    go in a table of an interval of this length, at n_cheb = ceil(length cut)
    + _CHEB_MARGIN points; each far value, |c| > cut, is evaluated exactly
    far_evals times instead. Of the cuts at 0 and at the magnitudes mags,
    the one with the fewest sin/cos evaluations: n_cheb per held value plus
    far_evals per far value. The cut at 0 holds no value off the center, so
    a wide interval never keeps a long table for a few values. Returns
    (cut, n_cheb)."""
    mags = np.concatenate([[0.0], np.sort(mags)])
    held = np.searchsorted(mags, mags, side="right")
    n_cheb = np.ceil(length * mags) + _CHEB_MARGIN
    best = np.argmin(n_cheb * held + far_evals * (mags.size - held))
    return mags[best], int(n_cheb[best])


def _centered(vals: np.ndarray, counts: np.ndarray):
    """(mean, d, sd) of the sample that holds the sorted distinct values vals
    with multiplicities counts (float): its mean, d = vals - mean and
    sd(y) (ddof=1), from the values and counts, so its t* scan (grid step
    T_STEP_SCALE / sd) depends only on them, not on the order of the
    observations. Raises DegenerateInputError for a constant sample."""
    if vals.size < 2:
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    n = counts.sum()
    mean = (counts @ vals) / n
    d = vals - mean
    sd = np.sqrt((counts @ d**2) / (n - 1.0))
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    return mean, d, sd


def _exact_mod_sq(vals: np.ndarray, counts: np.ndarray, t) -> float:
    """|phi(t)|^2 of the sample with distinct values vals and multiplicities
    counts, from one exp over its values about their own mean: the scan's
    decision at a point where the interpolated |phi| lies too near the
    floor to decide."""
    n = counts.sum()
    d = vals - (counts @ vals) / n
    basis = np.stack([counts, counts * d, counts * d**2]) / n
    re, im = (basis @ np.exp(1j * t * d).view(float).reshape(-1, 2))[0].tolist()
    return re * re + im * im


def _skip_lengths(sums: np.ndarray, m2: np.ndarray, m3: np.ndarray, floor: float,
                  err: np.ndarray) -> np.ndarray:
    """Lengths h such that |phi| > floor on [t, t + h), one per row.

    sums (R, 3) holds each row's phi(t), -i phi'(t) and -phi''(t) of its
    values c about any one center, complex, and err (R, 3) bounds their
    errors; m2 = mean c^2 >= |phi''| and m3 = mean |c|^3 >= |phi'''| are
    about the same center. A factor exp(i t a) common to the three sums,
    the effect of another center a, cancels. With u = phi/|phi|, r = |phi|,
    rho = Re(conj(u) phi') and sigma = Re(conj(u) phi''), each lowered by
    its error bound, and gap = r - floor, Taylor's theorem bounds
    |phi(t + h)| >= Re(conj(u) phi(t + h)) from below twice: by
    r + rho h - m2 h^2 / 2, whose first crossing of the floor is h2, and on
    [0, 2 h2] by r + rho h + sigma h^2 / 2 - m3 h^3 / 6
    >= r + rho h + (sigma / 2 - m3 h2 / 3) h^2, whose first crossing h3 is
    taken in closed form and capped at 2 h2. Returns max(h2, h3), or 0
    where the lowered gap is not positive.
    """
    r = np.abs(sums[:, 0])
    # conj(u) (-i phi') and conj(u) (-phi'')
    proj = sums[:, 1:] * (sums[:, :1].conj() / r[:, None])
    rho = -proj[:, 0].imag - err[:, 1]
    sigma = -proj[:, 1].real - err[:, 2]
    gap = r - floor - err[:, 0]
    ok = gap > 0.0
    gap = np.where(ok, gap, 0.0)
    # first positive roots, each in the form free of cancellation
    root = np.sqrt(rho * rho + 2.0 * m2 * gap)
    neg = rho < 0.0
    h2 = np.where(neg, 2.0 * gap / np.where(neg, root - rho, 1.0), (rho + root) / m2)
    cap = 2.0 * h2
    curv = 0.5 * sigma - m3 * cap / 6.0
    disc = rho * rho - 4.0 * curv * gap
    sq = np.sqrt(np.maximum(disc, 0.0))
    first = (disc >= 0.0) & neg
    second = ~first & (curv < 0.0)
    h3 = np.where(first, 2.0 * gap / np.where(first, sq - rho, 1.0),
                  np.where(second, (rho + sq) / np.where(second, -2.0 * curv, 1.0), cap))
    return np.where(ok, np.maximum(h2, np.minimum(h3, cap)), 0.0)


class _ScanTable:
    """One interval [lo, hi] of the lockstep t* scan: the sums
    sum_j m_j c_j^p exp(i tau c_j) / n, p = 0, 1, 2, of each row that may
    reach the interval, over the globally centered distinct outcomes c with
    |c| <= cut (_far_cut), at Chebyshev points tau of the interval.

    rows are the rows that may reach the interval, and far_evals prices a
    far value for the cut. The sums come from one product of the rows'
    counts of the held values with the (6 n_cheb, held) table of
    c^p {cos, sin}(tau c), so no scaled copy of the counts is formed. err
    bounds the error of the interpolated sums relative to their absolute
    scales sum_j m_j |c_j|^p / n (_INTERP_ULPS).
    """

    def __init__(self, lo: float, hi: float, c: np.ndarray, rows: np.ndarray,
                 y_counts: np.ndarray, far_evals):
        cut, n_cheb = _far_cut(np.abs(c), hi - lo, far_evals)
        self.tau, self.bary_w = _cheb_rule(lo, hi, n_cheb)
        far = np.abs(c) > cut
        held, self.far = np.flatnonzero(~far), np.flatnonzero(far)
        n = y_counts[rows[0]].sum()
        self.c_far = c[far]
        self.far_pows = np.stack([np.ones(self.far.size), self.c_far, self.c_far**2], axis=1) / n
        arg = self.tau[:, None] * c[held]
        # rows (p, cos or sin, point): c^p cos(tau c), then c^p sin(tau c)
        tab = np.empty((3, 2, n_cheb, held.size))
        np.cos(arg, out=tab[0, 0])
        np.sin(arg, out=tab[0, 1])
        np.multiply(tab[0], c[held], out=tab[1])
        np.multiply(tab[1], c[held], out=tab[2])
        at = y_counts[np.ix_(rows, held)] @ tab.reshape(6 * n_cheb, -1).T
        # (row, point, sum) with each sum's cos and sin part side by side,
        # so that a product with barycentric rows gives complex sums
        self.at = (at / n).reshape(rows.size, 3, 2, n_cheb).transpose(0, 3, 1, 2).copy()
        self.err = _INTERP_ULPS * np.finfo(float).eps * n_cheb
        self.slot = np.full(rows.max() + 1, -1)
        self.slot[rows] = np.arange(rows.size)

    def sums(self, rows: np.ndarray, t: np.ndarray, y_counts: np.ndarray) -> np.ndarray:
        """(len(rows), 3) complex sums sum_j m_j c_j^p exp(i t c_j) / n,
        p = 0, 1, 2, of each row at its own t in [lo, hi]: the held values'
        interpolated from the Chebyshev points, the far values' evaluated
        at t."""
        bary = _barycentric(self.tau, self.bary_w, t)
        at = self.at[self.slot[rows]]
        out = (bary[:, None, :] @ at.reshape(len(rows), -1, 6)).reshape(-1, 6).view(complex)
        if self.far.size:
            m = y_counts[np.ix_(rows, self.far)]
            out += (m * np.exp(1j * (t[:, None] * self.c_far))) @ self.far_pows
        return out


def _scan_t_stars(y_vals: np.ndarray, y_counts: np.ndarray):
    """t* of every sample of the bootstrap pass at once.

    y_vals are the sorted distinct outcomes and y_counts (rows, len(y_vals))
    each sample's multiplicities of them (float). A sample's t* is the
    first grid point t = j step, 1 <= j <= _N_SCAN_STEPS, step =
    T_STEP_SCALE / sd (see _centered), where its ECF has |phi|^2 <= 1/n; a
    sample with no such point is capped, and its t* is the last point.
    Returns (t_stars, capped, errors): t* (NaN where the sample is
    constant), the capped flags and, per row, None or the
    DegenerateInputError of a constant sample.

    Every row advances in lockstep. Each iteration evaluates phi, -i phi'
    and -phi'' of every live row at its own grid point, by barycentric
    interpolation from shared tables (_ScanTable) over the doubling
    intervals [0, T0], [T0, 2 T0], [2 T0, 4 T0], ..., with T0 = 2
    sqrt(ln n) / sd of the first sample that is not constant (the full
    sample, in the bootstrap pass), twice the point where a normal outcome's
    |phi| meets n^{-1/2}. A row moves to the table of a later interval only when
    its next point passes the end of its current one. The tables center the
    values about mean(y_vals), which leaves |phi| unchanged. A row whose
    interpolated |phi| lies within its error bound plus _FLOOR_MARGIN of
    n^{-1/2} is decided by an exact evaluation (_exact_mod_sq); any other
    row crosses where its interpolated |phi| <= n^{-1/2}. A row that does
    not cross skips the grid points that _skip_lengths keeps above the
    floor: its sums are moved to its own mean mu (-i phi' - mu phi and
    -phi'' - 2 mu (-i phi') + mu^2 phi, their error bounds likewise) and
    taken with its own M2 and M3, so that an outlier that moves the global
    center does not shorten the skips; the 1e-9 margin absorbs rounding in
    the skip length. So each row stops at the first grid point where its
    ECF meets the floor, as an exact scan of the row alone does.
    """
    n_rows = y_counts.shape[0]
    n = y_counts[0].sum()
    # per row: grid step, mean, and M2, M3 about the mean
    steps, means, m2, m3 = np.full((4, n_rows), np.nan)
    errors = np.full(n_rows, None)
    rows_held, cols_held = np.nonzero(y_counts)
    bounds = np.searchsorted(rows_held, np.arange(1, n_rows))
    for row, (row_counts, held) in enumerate(zip(y_counts, np.split(cols_held, bounds))):
        counts = row_counts.take(held)
        try:
            means[row], d, sd = _centered(y_vals.take(held), counts)
        except DegenerateInputError as exc:
            errors[row] = exc
            continue
        steps[row] = T_STEP_SCALE / sd
        m2[row] = sd * sd * ((n - 1.0) / n)
        d = np.abs(d)
        m3[row] = counts @ (d * d * d) / n
    t_stars = np.full(n_rows, np.nan)
    capped = np.zeros(n_rows, dtype=bool)
    act = np.flatnonzero(np.isfinite(steps))
    if not act.size:
        return t_stars, capped, errors
    floor = math.sqrt(1.0 / n)
    center = y_vals.mean()
    c = y_vals - center
    mags = np.abs(c)
    # per row: its mean mu about the global center, M2 and M3 about its
    # mean, and the absolute scales of its sums about its mean, 1,
    # M1 + |mu| and M2 + 2 |mu| M1 + mu^2, from the means M1, M2 of |c|, c^2
    mu = means - center
    abs_mu = np.abs(mu)
    abs_mom = y_counts @ np.stack([mags, mags**2], axis=1) / n
    per_row = np.column_stack([mu, m2, m3, np.ones(n_rows), abs_mom[:, 0] + abs_mu,
                               abs_mom[:, 1] + abs_mu * (2.0 * abs_mom[:, 0] + abs_mu)])
    t0 = 2.0 * math.sqrt(math.log(n)) * steps[act[0]] / T_STEP_SCALE
    tables = {}
    step = steps[act]
    j = np.ones(act.size, dtype=np.int64)
    # each row's table k spans [T0 2^(k-1), T0 2^k], table 0 [0, T0], and
    # ends at hi
    k = np.zeros(act.size, dtype=np.int64)
    hi = np.full(act.size, -np.inf)
    while act.size:
        t = j * step
        moved = t > hi
        if moved.any():
            k[moved] = np.maximum(np.ceil(np.log2(t[moved] / t0)), 0.0)
            k[moved] += t[moved] > t0 * 2.0 ** k[moved]
            hi[moved] = t0 * 2.0 ** k[moved]
            # rows only move on, so the tables before every row's are done
            for key in [key for key in tables if key < k.min()]:
                del tables[key]
            for key in set(k[moved].tolist()):
                if key not in tables:
                    lo = 0.0 if key == 0 else t0 * 2.0 ** (key - 1)
                    tables[key] = _ScanTable(lo, t0 * 2.0**key, c, act, y_counts,
                                             act.size * _SCAN_TABLE_EVALS)
        sums, err = np.empty((act.size, 3), dtype=complex), np.empty(act.size)
        for key, table in tables.items():
            sel = k == key
            if sel.any():
                sums[sel] = table.sums(act[sel], t[sel], y_counts)
                err[sel] = table.err
        r = np.abs(sums[:, 0])
        below = r <= floor
        near = np.abs(r - floor) <= err + _FLOOR_MARGIN
        for i in np.flatnonzero(near).tolist():
            row_counts = y_counts[act[i]]
            held = np.flatnonzero(row_counts)
            below[i] = (_exact_mod_sq(y_vals.take(held), row_counts.take(held), t[i])
                        <= 1.0 / n)
        if below.any():
            t_stars[act[below]] = t[below]
            go = ~below
            act, step, j, k, hi = act[go], step[go], j[go], k[go], hi[go]
            sums, err = sums[go], err[go]
        row_q = per_row[act]
        # each row's sums about its own mean, but for the factor exp(-i t mu)
        rmu = row_q[:, 0]
        sums[:, 2] += rmu * (rmu * sums[:, 0] - 2.0 * sums[:, 1])
        sums[:, 1] -= rmu * sums[:, 0]
        h = _skip_lengths(sums, row_q[:, 1], row_q[:, 2], floor, err[:, None] * row_q[:, 3:])
        j += np.maximum(np.minimum(h / step * (1.0 - 1e-9), _N_SCAN_STEPS), 1.0).astype(np.int64)
        over = j > _N_SCAN_STEPS
        if over.any():
            t_stars[act[over]] = _N_SCAN_STEPS * step[over]
            capped[act[over]] = True
            go = ~over
            act, step, j, k, hi = act[go], step[go], j[go], k[go], hi[go]
    return t_stars, capped, errors


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
        cut, self.n_cheb = _far_cut(np.abs(np.concatenate(c)), t_max, live.sum() * N_QUAD)
        self.tau, self.bary_w = _cheb_rule(0.0, t_max, self.n_cheb)
        # per value set: the (2 n_cheb, len(c)) table of cos(tau c) over
        # sin(tau c), zero where |c| > cut, and those far values' indices and c
        self.tables, self.far = [], []
        for ci in c:
            arg, far = self.tau[:, None] * ci[None, :], np.abs(ci) > cut
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
