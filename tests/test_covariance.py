import numpy as np

import eivgmm.covariance as covariance_module
import eivgmm.gmm as gmm_module
import eivgmm.weights as weights_module
from eivgmm.covariance import (
    estimate_covariances,
    omega_matrices,
    psd_project,
)
from eivgmm.gmm import _bootstrap_accumulate
from eivgmm.model_data import build_design, make_dataset
from eivgmm.simgen import SimConfig, gen_dataset
from eivgmm.weights import SCHEMES
from conftest import toy_dataset
from gmm_oracles import sigma_x_from_parts


def pairwise_oracle(w):
    """Literal pairwise-difference formula, independent of the implementation."""
    r, p = w.shape
    acc = np.zeros((p, p))
    for k in range(r):
        for kp in range(k + 1, r):
            diff = w[k] - w[kp]
            acc += np.outer(diff, diff)
    return acc / (r * (r - 1))


def estimate_sigma_j(d, j):
    """Per-row loop over replicate differences: the oracle for the masked,
    vectorized sigma_j of estimate_covariances."""
    w = d.w_reps[j]
    r = w.shape[0]
    acc = np.zeros((d.p, d.p))
    for k in range(r - 1):
        diffs = w[k] - w[k + 1:]
        acc += diffs.T @ diffs
    return acc / (r * (r - 1))


class TestSigmaJ:
    def test_single_pair_closed_form(self):
        w = [np.array([[1.0, 0.0], [0.0, 1.0]])] * 6
        d = make_dataset(np.arange(6.0), np.empty((6, 0)), w)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(estimate_sigma_j(d, 0), expected)

    def test_identical_replicates_zero(self, rng):
        w = [np.tile(rng.normal(size=3), (4, 1))] * 8
        d = make_dataset(rng.normal(size=8), np.empty((8, 0)), w)
        assert np.allclose(estimate_sigma_j(d, 3), 0.0)

    def test_matches_pairwise_oracle_and_batch(self, rng):
        w = [rng.normal(size=(2 + j % 3, 2)) for j in range(10)]
        d = make_dataset(rng.normal(size=10), np.empty((10, 0)), w)
        batch = estimate_covariances(d)
        for j in range(10):
            oracle = pairwise_oracle(d.w_reps[j])
            assert np.allclose(estimate_sigma_j(d, j), oracle, atol=1e-12)
            assert np.allclose(batch[j], oracle, atol=1e-12)

    def test_replicate_order_invariant(self, rng):
        w = rng.normal(size=(5, 2))
        perm = w[[4, 2, 0, 3, 1]]
        d1 = make_dataset(np.arange(6.0), np.empty((6, 0)), [w] * 6)
        d2 = make_dataset(np.arange(6.0), np.empty((6, 0)), [perm] * 6)
        assert np.allclose(estimate_sigma_j(d1, 0), estimate_sigma_j(d2, 0))

    def test_psd(self, rng):
        w = [rng.normal(size=(3, 4)) for _ in range(12)]
        d = make_dataset(rng.normal(size=12), np.empty((12, 0)), w)
        for s in estimate_covariances(d):
            assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_unbiased_monte_carlo(self):
        # E[sigma_j_hat] = sigma_j: 1e5 replicate draws with known covariance
        rng = np.random.default_rng(7)
        sigma = np.diag([0.5, 1.5])
        n_draws, n_rep = 100_000, 3
        w = rng.normal(size=(n_draws, n_rep, 2)) * np.sqrt(np.diag(sigma))
        centered = w - w.mean(axis=1, keepdims=True)
        est = np.einsum("jka,jkb->ab", centered, centered) / (n_draws * (n_rep - 1))
        assert np.all(np.abs(np.diag(est) / np.diag(sigma) - 1.0) < 0.01)


def row0_sigma_x(monkeypatch, d):
    """The covariate covariance of the full sample as the bootstrap pass
    forms it: row 0 of the (B, p, p) stack that _bootstrap_accumulate passes
    to _block_weights in its first block, recorded with a spy."""
    seen = []
    block_weights = gmm_module._block_weights

    def spy(scheme, counts, sigma_j, sigma_x, w_bar, n_rep):
        seen.append(sigma_x.copy())
        return block_weights(scheme, counts, sigma_j, sigma_x, w_bar, n_rep)

    monkeypatch.setattr(gmm_module, "_block_weights", spy)
    design = build_design(d)
    _bootstrap_accumulate(d, np.zeros(design.k), 1, 0, ("equal",), design,
                          estimate_covariances(d))
    return seen[0][0]


class TestSigmaX:
    def test_zero_error_gives_sample_covariance(self, rng, monkeypatch):
        base = rng.normal(size=(20, 2))
        w = [np.tile(base[j], (2, 1)) for j in range(20)]
        d = make_dataset(rng.normal(size=20), np.empty((20, 0)), w)
        got = row0_sigma_x(monkeypatch, d)
        centered = base - base.mean(axis=0)
        assert np.allclose(got, centered.T @ centered / 19)
        assert np.allclose(got, sigma_x_from_parts(d.w_bar, estimate_covariances(d), d.n_rep))

    def test_degenerate_case_negative_correction(self, rng, monkeypatch):
        # identical means with nonzero replicate scatter: first term vanishes,
        # the correction makes sigma_x indefinite (eigenvalues -2 and 0), and
        # it reaches the weights projected onto the PSD cone
        w = [np.array([[1.0, -1.0], [-1.0, 1.0]]) + 5.0 for _ in range(10)]
        d = make_dataset(rng.normal(size=10), np.empty((10, 0)), w)
        oracle = sigma_x_from_parts(d.w_bar, estimate_covariances(d), d.n_rep)
        assert np.linalg.eigvalsh(oracle).min() < 0
        got = row0_sigma_x(monkeypatch, d)
        assert np.linalg.eigvalsh(got).min() >= -1e-14
        assert np.allclose(got, psd_project(oracle), atol=1e-14)

    def test_large_sample_recovery(self, monkeypatch):
        # Setting-I generator: sigma_x has unit diagonal, 0.5 off-diagonal
        cfg = SimConfig(setting="I", n=10_000, n_rep=2, m_reps=1,
                        error_law="normal", rho=0.0, seed=31)
        d, x = gen_dataset(cfg, 0)
        got = row0_sigma_x(monkeypatch, d)
        truth = np.cov(x, rowvar=False)
        assert np.all(np.abs(got - truth) < 0.05 * np.abs(truth).max())
        assert np.all(np.abs(np.diag(got) - 1.0) < 0.05)

    def test_homoscedastic_average_converges(self):
        rng = np.random.default_rng(11)
        n, sigma = 10_000, np.array([[0.8, 0.2], [0.2, 0.6]])
        chol = np.linalg.cholesky(sigma)
        x = rng.normal(size=(n, 2))
        w = [x[j] + rng.normal(size=(2, 2)) @ chol.T for j in range(n)]
        d = make_dataset(rng.normal(size=n), np.empty((n, 0)), w)
        avg = estimate_covariances(d).mean(axis=0)
        assert np.all(np.abs(avg - sigma) < 0.02 * np.abs(sigma).max() + 0.02)

    def test_projected_once_per_block(self, rng, monkeypatch):
        # 37 resamples and the full sample in blocks of 16: three blocks,
        # three projections, whichever schemes are fit
        d, _ = toy_dataset(rng, n=40)
        calls = []

        def counting(m):
            calls.append(m.shape)
            return psd_project(m)

        monkeypatch.setattr(covariance_module, "psd_project", counting)
        monkeypatch.setattr(gmm_module, "psd_project", counting)
        monkeypatch.setattr(gmm_module, "_BOOT_BLOCK_ROWS", 16 * d.n)
        assert not hasattr(weights_module, "psd_project")
        design = build_design(d)
        _bootstrap_accumulate(d, np.zeros(design.k), 37, 0, SCHEMES, design,
                              estimate_covariances(d))
        assert calls == [(16, d.p, d.p), (16, d.p, d.p), (6, d.p, d.p)]


class TestOmega:
    def test_ridge_keeps_invertible(self, rng):
        n = 12
        w = [np.tile(rng.normal(size=1), (2, 1)) for _ in range(n)]
        d = make_dataset(rng.normal(size=n), np.empty((n, 0)), w)
        sigma_j = estimate_covariances(d)
        sigma_x = psd_project(sigma_x_from_parts(d.w_bar, sigma_j, d.n_rep))
        omega = omega_matrices(sigma_x[None], sigma_j, d.n_rep)
        assert omega.shape == (1, n, 1, 1)
        assert np.all(np.linalg.eigvalsh(omega) > 0)

    def test_symmetry(self, small_dataset, monkeypatch):
        d = small_dataset
        got = row0_sigma_x(monkeypatch, d)
        assert np.array_equal(got, got.T)
        centered = d.w_bar - d.w_bar.mean(axis=0)
        sx = (centered.T @ centered / (d.n - 1)
              - np.mean(estimate_covariances(d) / d.n_rep[:, None, None], axis=0))
        assert np.allclose(sx, got)
