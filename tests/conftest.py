import dataclasses

import numpy as np
import pytest

import eivgmm.weights as weights_module
from eivgmm.covariance import psd_project
from eivgmm.errors import DegenerateCovarianceError
from eivgmm.model_data import make_dataset
from eivgmm.simgen import SimConfig, gen_dataset
from eivgmm.weights import WeightVector, _block_weights, _solve_ql_system
from gmm_oracles import sigma_x_from_parts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def toy_dataset(rng, n=40, p=2, q=1, n_rep=2, noise_sd=0.3, eps_sd=0.2,
                beta=None, gamma=None):
    """Small asymmetric-covariate dataset with homoscedastic-ish replicate noise."""
    beta = np.arange(1, p + 1, dtype=float) if beta is None else np.asarray(beta, float)
    gamma = np.linspace(2.0, 1.0, q + 1) if gamma is None else np.asarray(gamma, float)
    x = rng.exponential(1.0, size=(n, p))
    z = rng.normal(size=(n, q))
    eps = eps_sd * rng.normal(size=n)
    y = x @ beta + gamma[0] + z @ gamma[1:] + eps
    w = x[:, None, :] + noise_sd * rng.normal(size=(n, n_rep, p))
    return make_dataset(y, z, list(w)), x


@pytest.fixture
def small_dataset(rng):
    d, _ = toy_dataset(rng)
    return d


@pytest.fixture
def setting1_dataset():
    cfg = SimConfig(setting="I", n=400, n_rep=2, m_reps=1, error_law="normal",
                    rho=0.5, seed=2024)
    d, x = gen_dataset(cfg, 0)
    return d, x, cfg


def solve_ql_one(omega_inv, w_bar, gamma):
    """_solve_ql_system for one sample holding every row once: (q, multiplier)."""
    q, lam, errors = _solve_ql_system(np.ones((1, len(w_bar))), omega_inv[None], w_bar, gamma)
    if errors[0] is not None:
        raise errors[0]
    return q[0], lam[0]


def full_sample_weights(scheme, sigma_j, w_bar, n_rep, sigma_x=None) -> WeightVector:
    """Weights of scheme for the sample that holds every row once: the one
    all-ones row through _block_weights, as the bootstrap forms them for its
    row 0. sigma_x, the (p, p) covariate covariance, defaults to the row-sum
    oracle sigma_x_from_parts and is PSD-projected, as the bootstrap
    projects its own. Raises the error that stopped the scheme."""
    if sigma_x is None:
        sigma_x = sigma_x_from_parts(w_bar, sigma_j, n_rep)
    block = _block_weights(scheme, np.ones((1, len(n_rep))), sigma_j, psd_project(sigma_x[None]),
                           w_bar, n_rep)
    if block.errors[0] is not None:
        raise block.errors[0]
    return WeightVector(q=block.q[0], scheme=scheme, fallback=bool(block.fallback[0]),
                        max_clamp=float(block.max_clamp[0]))


def fail_minimax(monkeypatch, fails=lambda sigma_x, counts: True):
    """Make minimax weighting fail with "forced failure" on every sample whose
    covariate covariance and row multiplicities satisfy fails, the
    resamples and the full sample (the all-ones row 0 of the bootstrap's
    first block) alike."""
    minimax = weights_module._minimax

    def flaky(counts, sigma_j, sigma_x, n_rep):
        out = minimax(counts, sigma_j, sigma_x, n_rep)
        errors = tuple(DegenerateCovarianceError("forced failure") if fails(sx, row) else err
                       for sx, row, err in zip(sigma_x, counts, out.errors))
        return dataclasses.replace(out, errors=errors)

    monkeypatch.setattr(weights_module, "_minimax", flaky)
