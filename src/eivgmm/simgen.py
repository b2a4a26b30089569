"""Synthetic data generation for the numerical studies.

Covariates come from a Gaussian copula with scaled half-normal marginals
(variance one), measurement-error covariances are heteroscedastic with
uniform-law marginal scales, and three symmetric error laws are supported:
normal, t with 2.5 degrees of freedom, and a 10%-contaminated normal, all
scaled to the target covariance. Every draw is keyed by (seed, setting,
replication index) so parallel Monte Carlo runs are reproducible.

The half-normal margin of a standard-normal z is x = -Phi^{-1}(Phi(-z) / 2),
formed from math.erfc and statistics.NormalDist (Wichura's AS241 quantile),
so the package needs no scipy at run time. Both tails stay accurate: x is
finite and increasing up to z = 38, where erfc(z / sqrt 2) is still a
positive subnormal, and is 0 below z = -8.3, where Phi(-z) / 2 rounds to 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ValidationError
from .model_data import make_dataset

__all__ = [
    "SimConfig",
    "gen_error_matrices",
    "gen_dataset",
    "SETTINGS",
    "ERROR_LAWS",
]

SETTINGS = ("simple", "I", "II", "III")
ERROR_LAWS = ("normal", "t2_5", "contaminated_normal")

_SETTING_CODE = {"simple": 0, "I": 1, "II": 2, "III": 3}
_SETTING_DIMS = {"simple": (1, 0), "I": (2, 0), "II": (2, 2), "III": (2, 2)}
#: each setting's true coefficients beta0 and gamma0 (intercept first)
_BETA0 = {"simple": (1.0,), "I": (1.0, 0.5), "II": (1.0, 0.5), "III": (1.0, 0.5)}
_GAMMA0 = {"simple": (2.0,), "I": (2.0,), "II": (2.0, 1.0, 0.5), "III": (2.0, 1.0, 0.5)}

#: pairwise Gaussian-copula correlation between covariates
COVARIATE_CORR = 0.5
#: scale making the half-normal marginal have unit variance
HALF_NORMAL_SCALE = (1.0 - 2.0 / np.pi) ** -0.5

_SQRT2 = math.sqrt(2.0)
_normal_quantile = NormalDist().inv_cdf


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    setting picks dimensions and covariate laws; error_law and rho control the
    measurement-error distribution and the correlation between its components;
    theta0 holds the setting's true coefficients.
    """

    setting: str = "I"
    n: int = 500
    n_rep: int = 2
    m_reps: int = 100
    error_law: str = "normal"
    rho: float = 0.0
    seed: int = 0
    sigma_eps_sq: float = 0.25
    #: multiplier on the measurement-error standard deviations; 1.0 keeps the
    #: documented U-law ranges
    u_scale: float = 1.0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValidationError(f"unknown setting {self.setting!r}; expected one of {SETTINGS}")
        if self.error_law not in ERROR_LAWS:
            raise ValidationError(
                f"unknown error law {self.error_law!r}; expected one of {ERROR_LAWS}")
        if self.n_rep < 2:
            raise ValidationError("need n_rep >= 2")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("need rho in [0, 1)")
        if self.m_reps < 0:
            raise ValidationError("need m_reps >= 0")
        if self.seed < 0:
            raise ValidationError("need seed >= 0")
        if not (np.isfinite(self.u_scale) and self.u_scale > 0.0):
            raise ValidationError("need a finite u_scale > 0")
        if not (np.isfinite(self.sigma_eps_sq) and self.sigma_eps_sq >= 0.0):
            raise ValidationError("need a finite sigma_eps_sq >= 0")
        p, q = _SETTING_DIMS[self.setting]
        if self.n < p + q + 2:
            raise ValidationError(f"need n >= p+q+2 = {p + q + 2}, got n = {self.n}")

    @property
    def p(self) -> int:
        return _SETTING_DIMS[self.setting][0]

    @property
    def q(self) -> int:
        return _SETTING_DIMS[self.setting][1]

    @property
    def theta0(self) -> np.ndarray:
        return np.array(_BETA0[self.setting] + _GAMMA0[self.setting])


def _equicorrelated_normal(rng, n, dim, corr):
    z = rng.standard_normal((n, dim))
    if dim == 1 or corr == 0.0:
        return z
    common = rng.standard_normal((n, 1))
    return np.sqrt(corr) * common + np.sqrt(1.0 - corr) * z


def _half_normal_transform(z):
    """Map standard-normal margins to the scaled half-normal (unit variance).

    Elementwise x = -Phi^{-1}(Phi(-z) / 2) with Phi(-z) = erfc(z / sqrt 2) / 2.
    This equals Phi^{-1}((1 + Phi(z)) / 2), but that form loses the upper
    tail as (1 + Phi(z)) / 2 rounds towards 1: it is off by up to 0.057 near
    z = 8.1 and returns inf above z = 8.16. This one agrees with scipy's
    -ndtri(ndtr(-z) / 2) to 9e-15 and is finite and monotone on [-38, 38].
    Past z = 38.4 erfc underflows to 0 and NormalDist raises; a normal draw
    never gets there.
    """
    z = np.asarray(z, dtype=float)
    # 0.0 - q rather than -q, so the left tail, where q = 0, gives +0.0
    x = [0.0 - _normal_quantile(0.25 * math.erfc(v / _SQRT2)) for v in z.ravel().tolist()]
    return HALF_NORMAL_SCALE * np.array(x).reshape(z.shape)


def gen_error_matrices(n, n_rep, p, rho, rng: np.random.Generator,
                       scale: float = 1.0) -> np.ndarray:
    """Per-observation error covariances sigma_j = D_j R D_j, stacked (n, p, p).

    The marginal standard deviations D_j are scale * sqrt(n_rep) *
    U(sqrt(0.2), sqrt(1.5)) draws and R is the equicorrelation matrix with
    off-diagonal rho. At scale 1 the averaged-replicate signal-to-noise ratio
    spans [2/3, 5] for any replicate count.
    """
    d = scale * np.sqrt(n_rep) * rng.uniform(np.sqrt(0.2), np.sqrt(1.5), size=(n, p))
    r = (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
    return np.einsum("ja,jb,ab->jab", d, d, r)


def _law_factors(law, rng, shape):
    """Multiplicative row factors making each law's draws match the target covariance."""
    if law == "normal":
        return np.ones(shape)
    if law == "t2_5":
        return np.sqrt(0.5 / rng.chisquare(2.5, size=shape))
    if law == "contaminated_normal":
        return np.where(rng.random(shape) < 0.1, 10.0, 1.0) / np.sqrt(10.9)
    raise ValidationError(f"unknown error law {law!r}")


def _draw_replicate_errors(law, sigmas, n_rep, rng):
    """(n, n_rep, p) error draws, observation j using covariance sigmas[j].

    All three laws are symmetric about zero: a t draw scales its whole vector
    by one chi-square factor, and the contaminated normal inflates a 10%
    subset of the vectors by a factor 10, with the base covariance shrunk by
    10.9 so the mixture covariance equals sigmas[j].
    """
    n, p = sigmas.shape[0], sigmas.shape[1]
    factors = np.linalg.cholesky(sigmas)
    z = rng.standard_normal((n, n_rep, p))
    base = np.einsum("jab,jkb->jka", factors, z)
    return base * _law_factors(law, rng, (n, n_rep))[:, :, None]


def gen_dataset(cfg: SimConfig, rep_index: int = 0):
    """Generate one dataset; returns (Dataset, true error-prone covariates).

    The true covariates are a side channel for the oracle least-squares
    baseline only. The stream is keyed by (seed, setting, rep_index).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(cfg.seed), _SETTING_CODE[cfg.setting], int(rep_index)])
    )
    p, q = cfg.p, cfg.q
    z_mvn = _equicorrelated_normal(rng, cfg.n, p + q, COVARIATE_CORR if p + q > 1 else 0.0)
    x = _half_normal_transform(z_mvn[:, :p])
    if cfg.setting == "II":
        z_tilde = _half_normal_transform(z_mvn[:, p:])
    else:
        z_tilde = z_mvn[:, p:]

    if cfg.setting == "simple":
        var = cfg.u_scale**2 * cfg.n_rep * rng.uniform(0.2, 1.5, size=cfg.n)
        sigmas = var.reshape(cfg.n, 1, 1)
    else:
        sigmas = gen_error_matrices(cfg.n, cfg.n_rep, p, cfg.rho, rng, scale=cfg.u_scale)

    u = _draw_replicate_errors(cfg.error_law, sigmas, cfg.n_rep, rng)
    w = x[:, None, :] + u
    eps = (np.sqrt(cfg.sigma_eps_sq) * rng.standard_normal(cfg.n)
           * _law_factors(cfg.error_law, rng, cfg.n))
    gamma0 = np.asarray(_GAMMA0[cfg.setting])
    y = x @ np.asarray(_BETA0[cfg.setting]) + gamma0[0] + z_tilde @ gamma0[1:] + eps
    d = make_dataset(y, z_tilde, w)
    return d, x
