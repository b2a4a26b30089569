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

The Gauss-Legendre nodes come in pairs symmetric about the midpoint h = t*/2
of the band: t = h (1 - x) and t = h (1 + x). By angle addition,
cos(t a) and sin(t a) at both nodes of a pair follow from cos/sin(h a) and
cos/sin(h x a), so the sin/cos tables over a vector a hold half the nodes,
and every quadrature sum over the grid is formed from products with those
half tables. The outcome ECF evaluates tied outcomes once, weighted by their
counts, so a sample given as distinct values and multiplicities (a bootstrap
resample) costs no more than its distinct values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError
from .model_data import as_theta

__all__ = [
    "EcfOutcome",
    "build_ecf",
    "kernel",
    "grad_dtilde",
    "grad_and_hessian",
]

#: Gauss-Legendre node count on [0, t*]; even, so the nodes pair up about t*/2
N_QUAD = 64
assert N_QUAD % 2 == 0
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
    if y.size < 2:
        raise DegenerateInputError("need at least 2 outcome values")
    vals, counts = np.unique(y, return_counts=True)
    return _ecf_from_counts(vals, counts.astype(float))


def _ecf_from_counts(vals: np.ndarray, counts: np.ndarray) -> EcfOutcome:
    """build_ecf for the sample that holds the sorted distinct values vals
    with multiplicities counts (float). sd(y) (ddof=1) is taken from the
    values and counts too, so a sample's ECF depends only on them, not on
    the order of its observations."""
    if vals.size < 2:
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    n = counts.sum()
    d = vals - (counts @ vals) / n
    sd = np.sqrt((counts @ d**2) / (n - 1.0))
    if sd == 0.0 or not np.isfinite(sd):
        raise DegenerateInputError("outcome is constant; characteristic function never decays")
    t_star, capped = _scan_t_star(vals, counts, n, T_STEP_SCALE / sd, T_CAP_SCALE / sd)
    nodes, quad_w = _gl_rule(N_QUAD)
    grid = 0.5 * t_star * (nodes + 1.0)
    weights = 0.5 * t_star * quad_w
    cos_m, sin_m = _NodePairs(t_star, vals).times(counts[:, None] / n)
    c_y, s_y = cos_m[:, 0], sin_m[:, 0]
    return EcfOutcome(grid=grid, quad_w=weights, c_y=c_y, s_y=s_y,
                      t_star=t_star, capped=capped)


def _base_weights(ecf: EcfOutcome) -> np.ndarray:
    """Quadrature weights times the kernel at each node."""
    return ecf.quad_w * kernel(ecf.grid, ecf.t_star)


def _phase_terms(pairs: _NodePairs, qv1: np.ndarray, ecf: EcfOutcome):
    """Mismatch g (n_quad,) and its index derivative gmat (n_quad, k) at each
    node, from the columns [q | q v] of one weight vector."""
    cos_m, sin_m = pairs.times(qv1)
    g = ecf.c_y * sin_m[:, 0] - ecf.s_y * cos_m[:, 0]
    gmat = ecf.grid[:, None] * (ecf.c_y[:, None] * cos_m[:, 1:]
                                + ecf.s_y[:, None] * sin_m[:, 1:])
    return g, gmat


def grad_dtilde(theta, design: np.ndarray, weights: np.ndarray,
                ecf: EcfOutcome) -> np.ndarray:
    """Exact gradient of the phase discrepancy with respect to [beta, gamma].

    design is the (n, k) array [w_bar | z]. weights is one vector (n,),
    giving a (k,) gradient, or S weight vectors as the columns of an (n, S)
    array, giving an (S, k) array of gradients from one set of trig tables.
    Each weight vector takes its own products with the tables, so its
    gradient is the same to the last bit whether it comes alone or with
    others. A row that a sample holds several times enters once, with its
    weight multiplied by its multiplicity.
    """
    v, q = design, weights
    n, k = v.shape
    qs = q.reshape(n, -1)
    # columns s (k+1) .. s (k+1) + k hold [q_s | q_s v] for weight vector s
    v1 = np.column_stack([np.ones(n), v])
    qv1 = (qs[:, :, None] * v1[:, None, :]).reshape(n, -1)
    pairs = _NodePairs(ecf.t_star, v @ as_theta(theta))
    base_w = _base_weights(ecf)
    grad = np.empty((qs.shape[1], k))
    for col in range(qs.shape[1]):
        g, gmat = _phase_terms(pairs, qv1[:, col * (k + 1):(col + 1) * (k + 1)], ecf)
        grad[col] = 2.0 * ((base_w * g) @ gmat)
    return grad.reshape(q.shape[1:] + (k,))


def grad_and_hessian(theta, v: np.ndarray, q: np.ndarray, ecf: EcfOutcome):
    """Gradient and Hessian of the discrepancy from one set of trig tables."""
    pairs = _NodePairs(ecf.t_star, v @ as_theta(theta))
    g, gmat = _phase_terms(pairs, np.column_stack([q, q[:, None] * v]), ecf)
    base_w = _base_weights(ecf)
    grad = 2.0 * ((base_w * g) @ gmat)
    term1 = 2.0 * gmat.T @ (base_w[:, None] * gmat)
    wg = base_w * g * ecf.grid**2
    r_cos, r_sin = pairs.rtimes(np.stack([wg * ecf.s_y, wg * ecf.c_y]))
    coef = 2.0 * q * (r_cos[0] - r_sin[1])
    term2 = v.T @ (coef[:, None] * v)
    return grad, term1 + term2
