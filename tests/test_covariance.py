import numpy as np

from eivgmm.covariance import (
    estimate_covariances,
    omega_matrices,
    psd_project,
)
from eivgmm.model_data import make_dataset
from eivgmm.simgen import SimConfig, gen_dataset


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
        batch = estimate_covariances(d).sigma_j
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
        for s in estimate_covariances(d).sigma_j:
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


class TestSigmaX:
    def test_zero_error_gives_sample_covariance(self, rng):
        base = rng.normal(size=(20, 2))
        w = [np.tile(base[j], (2, 1)) for j in range(20)]
        d = make_dataset(rng.normal(size=20), np.empty((20, 0)), w)
        cov = estimate_covariances(d)
        centered = base - base.mean(axis=0)
        assert np.allclose(cov.sigma_x, centered.T @ centered / 19)

    def test_degenerate_case_negative_correction(self, rng):
        # identical means with nonzero replicate scatter: first term vanishes,
        # the correction makes sigma_x negative definite; projection flags it
        w = [np.array([[1.0, -1.0], [-1.0, 1.0]]) + 5.0 for _ in range(10)]
        d = make_dataset(rng.normal(size=10), np.empty((10, 0)), w)
        cov = estimate_covariances(d)
        assert np.linalg.eigvalsh(cov.sigma_x).min() < 0
        proj = psd_project(cov.sigma_x)
        assert np.linalg.eigvalsh(proj).min() >= -1e-14

    def test_large_sample_recovery(self):
        # Setting-I generator: sigma_x has unit diagonal, 0.5 off-diagonal
        cfg = SimConfig(setting="I", n=10_000, n_rep=2, m_reps=1,
                        error_law="normal", rho=0.0, seed=31)
        d, x = gen_dataset(cfg, 0)
        cov = estimate_covariances(d)
        truth = np.cov(x, rowvar=False)
        assert np.all(np.abs(cov.sigma_x - truth) < 0.05 * np.abs(truth).max())
        assert np.all(np.abs(np.diag(cov.sigma_x) - 1.0) < 0.05)

    def test_homoscedastic_average_converges(self):
        rng = np.random.default_rng(11)
        n, sigma = 10_000, np.array([[0.8, 0.2], [0.2, 0.6]])
        chol = np.linalg.cholesky(sigma)
        x = rng.normal(size=(n, 2))
        w = [x[j] + rng.normal(size=(2, 2)) @ chol.T for j in range(n)]
        d = make_dataset(rng.normal(size=n), np.empty((n, 0)), w)
        avg = estimate_covariances(d).sigma_j.mean(axis=0)
        assert np.all(np.abs(avg - sigma) < 0.02 * np.abs(sigma).max() + 0.02)


class TestOmega:
    def test_ridge_keeps_invertible(self, rng):
        n = 12
        w = [np.tile(rng.normal(size=1), (2, 1)) for _ in range(n)]
        d = make_dataset(rng.normal(size=n), np.empty((n, 0)), w)
        cov = estimate_covariances(d)
        omega = omega_matrices(cov, d.n_rep)
        assert np.all(np.linalg.eigvalsh(omega) > 0)

    def test_symmetry(self, small_dataset):
        cov = estimate_covariances(small_dataset)
        assert np.allclose(cov.sigma_x, cov.sigma_x.T)
        d = small_dataset
        centered = d.w_bar - d.w_bar.mean(axis=0)
        sx = (centered.T @ centered / (d.n - 1)
              - np.mean(cov.sigma_j / d.n_rep[:, None, None], axis=0))
        assert np.allclose(sx, cov.sigma_x)
