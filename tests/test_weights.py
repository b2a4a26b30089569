import warnings

import numpy as np
import pytest

from eivgmm.covariance import estimate_covariances, omega_matrices, psd_project
from eivgmm.errors import DegenerateCovarianceError
from eivgmm.weights import _block_weights
from conftest import full_sample_weights, solve_ql_one, toy_dataset


def random_covariances(rng, n, p):
    """(sigma_j, sigma_x): n random PSD error covariances and one positive
    definite covariate covariance."""
    a = rng.normal(size=(n, p, p))
    sigma_j = np.einsum("jab,jcb->jac", a, a)
    sx = rng.normal(size=(p, p))
    return sigma_j, sx @ sx.T + 0.1 * np.eye(p)


def omega_one(sigma_j, sigma_x, n_rep):
    """omega_matrices of one sample with covariate covariance sigma_x (p, p)."""
    return omega_matrices(sigma_x[None], sigma_j, n_rep)[0]


def identity_weights(scheme, n):
    """Full-sample weights over n rows of identity covariances and zero means."""
    return full_sample_weights(scheme, np.ones((n, 1, 1)), np.zeros((n, 1)), np.full(n, 2),
                               sigma_x=np.eye(1))


class TestEqual:
    def test_quarter_weights(self):
        assert np.array_equal(identity_weights("equal", 4).q, [0.25] * 4)

    def test_large_sum(self):
        assert abs(identity_weights("equal", 10**6).q.sum() - 1.0) <= 1e-12


class TestMinimax:
    def test_equal_eigenvalues_give_equal_weights(self, rng):
        n, p = 12, 2
        w = full_sample_weights("minimax", np.tile(np.eye(p), (n, 1, 1)), np.zeros((n, p)),
                                np.full(n, 2), sigma_x=np.eye(p))
        assert np.allclose(w.q, 1.0 / n)

    def test_two_observation_closed_form(self):
        # lambda = (1, 2) -> q = (2/3, 1/3)
        sigma_j = np.stack([np.zeros((1, 1)), np.array([[2.0]])])
        w = full_sample_weights("minimax", sigma_j, np.zeros((2, 1)), np.array([1, 2]),
                                sigma_x=np.array([[1.0]]))
        assert np.allclose(w.q, [2 / 3, 1 / 3])

    def test_scalar_specialization(self, rng):
        # p=1: lambda_j = sigma_x + sigma_j / n_j exactly
        n = 20
        sigma_j = rng.uniform(0.1, 2.0, size=(n, 1, 1))
        sx = np.array([[0.7]])
        n_rep = rng.integers(2, 5, size=n)
        w = full_sample_weights("minimax", sigma_j, np.zeros((n, 1)), n_rep, sigma_x=sx)
        lam = sx[0, 0] + sigma_j[:, 0, 0] / n_rep
        assert np.allclose(w.q, (1 / lam) / (1 / lam).sum(), atol=1e-14)

    def test_downweights_noisy_observations(self, rng):
        sigma_j, sigma_x = random_covariances(rng, 15, 2)
        n_rep = np.full(15, 2)
        w = full_sample_weights("minimax", sigma_j, np.zeros((15, 2)), n_rep, sigma_x=sigma_x)
        sx = psd_project(sigma_x)
        lam = np.array([np.linalg.eigvalsh(sx + s / 2)[-1] for s in sigma_j])
        order = np.argsort(lam)
        assert np.all(np.diff(w.q[order]) <= 1e-15)

    def test_degenerate_raises(self):
        n = 5
        with pytest.raises(DegenerateCovarianceError):
            full_sample_weights("minimax", np.zeros((n, 1, 1)), np.zeros((n, 1)),
                                np.full(n, 2), sigma_x=np.zeros((1, 1)))


class TestQuasiLikelihood:
    def test_full_symmetry_gives_equal_weights(self):
        n, p = 8, 2
        w_bar = np.tile([1.0, 2.0], (n, 1))
        w = full_sample_weights("quasi_likelihood", np.tile(0.5 * np.eye(p), (n, 1, 1)), w_bar,
                                np.full(n, 2), sigma_x=np.eye(p))
        assert np.allclose(w.q, 1.0 / n, atol=1e-10)

    def test_sum_to_one_random(self, rng):
        for _ in range(10):
            n, p = 25, 2
            sigma_j, sigma_x = random_covariances(rng, n, p)
            w_bar = rng.normal(size=(n, p))
            w = full_sample_weights("quasi_likelihood", sigma_j, w_bar, np.full(n, 2),
                                    sigma_x=sigma_x)
            assert abs(w.q.sum() - 1.0) <= 1e-10
            assert np.all(w.q >= 0.0)

    def test_three_observation_dense_oracle(self):
        # explicit 4x4 bordered system solved by a generic dense solver
        n, p = 3, 1
        omega = np.array([[[1.0]], [[2.0]], [[4.0]]])
        omega_inv = 1.0 / omega
        w_bar = np.array([[1.0], [2.0], [3.0]])
        gamma = 1.0 / n
        q, lam = solve_ql_one(omega_inv, w_bar, gamma)

        a2 = omega_inv.sum()
        a1 = (omega_inv[:, 0, 0] * w_bar[:, 0]).sum()
        g = np.outer(w_bar[:, 0], w_bar[:, 0]) * a2
        m = np.zeros((4, 4))
        m[:3, :3] = g + gamma * (n * np.eye(n) - np.ones((n, n)))
        m[:3, 3] = 1.0
        m[3, :3] = 1.0
        rhs = np.array([*(w_bar[:, 0] * a1), 1.0])
        sol = np.linalg.solve(m, rhs)
        assert np.allclose(q, sol[:3], atol=1e-12)
        assert np.isclose(lam, sol[3], atol=1e-12)

    def test_matches_dense_solve_larger(self, rng):
        n, p = 40, 2
        sigma_j, sigma_x = random_covariances(rng, n, p)
        w_bar = rng.normal(size=(n, p))
        n_rep = np.full(n, 2)
        gamma = 1.0 / n
        omega_inv = np.linalg.inv(omega_one(sigma_j, sigma_x, n_rep))
        q, lam = solve_ql_one(omega_inv, w_bar, gamma)

        a2 = omega_inv.sum(axis=0)
        a1 = np.einsum("jab,jb->a", omega_inv, w_bar)
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = w_bar @ a2 @ w_bar.T + gamma * (n * np.eye(n) - np.ones((n, n)))
        m[:n, n] = 1.0
        m[n, :n] = 1.0
        rhs = np.concatenate([w_bar @ a1, [1.0]])
        sol = np.linalg.solve(m, rhs)
        assert np.allclose(q, sol[:n], rtol=1e-9, atol=1e-12)
        assert np.isclose(lam, sol[n], rtol=1e-9)

    def test_bordered_system_residual(self, rng):
        # raw solution satisfies the bordered system to 1e-9
        n, p = 200, 2
        sigma_j, sigma_x = random_covariances(rng, n, p)
        w_bar = rng.normal(size=(n, p))
        gamma = 1.0 / n
        omega_inv = np.linalg.inv(omega_one(sigma_j, sigma_x, np.full(n, 2)))
        q, lam = solve_ql_one(omega_inv, w_bar, gamma)
        a2 = omega_inv.sum(axis=0)
        a1 = np.einsum("jab,jb->a", omega_inv, w_bar)
        m = w_bar @ a2 @ w_bar.T + gamma * (n * np.eye(n) - np.ones((n, n)))
        resid = m @ q + lam - w_bar @ a1
        scale = max(1.0, np.abs(w_bar @ a1).max())
        assert np.abs(resid).max() <= 1e-9 * scale
        assert abs(q.sum() - 1.0) <= 1e-9

    def test_minimizer_property(self, rng):
        # random feasible perturbations summing to zero never decrease the
        # quadratic objective by more than numerical slack
        n, p = 15, 1
        sigma_j, sigma_x = random_covariances(rng, n, p)
        w_bar = rng.normal(size=(n, p))
        gamma = 1.0 / n
        omega_inv = np.linalg.inv(omega_one(sigma_j, sigma_x, np.full(n, 2)))
        q, _ = solve_ql_one(omega_inv, w_bar, gamma)
        a2 = omega_inv.sum(axis=0)
        a1 = np.einsum("jab,jb->a", omega_inv, w_bar)

        def objective(qq):
            mu = qq @ w_bar
            pen = gamma * ((qq[:, None] - qq[None, :]) ** 2).sum() / 2.0
            return -2.0 * mu @ a1 + mu @ a2 @ mu + pen

        base = objective(q)
        for _ in range(100):
            delta = rng.normal(size=n)
            delta -= delta.mean()
            assert objective(q + 1e-4 * delta) >= base - 1e-8

    def test_gamma_continuity_and_symmetry(self, rng):
        n, p = 12, 2
        sigma_j, sigma_x = random_covariances(rng, n, p)
        w_bar = rng.normal(size=(n, p))
        n_rep = np.full(n, 2)
        omega_inv = np.linalg.inv(omega_one(sigma_j, sigma_x, n_rep))
        q1, _ = solve_ql_one(omega_inv, w_bar, 0.1)
        q2, _ = solve_ql_one(omega_inv, w_bar, 0.1001)
        assert np.max(np.abs(q1 - q2)) < 1e-2
        # at fully symmetric inputs the solution is gamma-free
        w_same = np.tile([0.3, -0.7], (n, 1))
        omega_inv_sym = np.linalg.inv(omega_one(np.tile(np.eye(p), (n, 1, 1)), np.eye(p), n_rep))
        qa, _ = solve_ql_one(omega_inv_sym, w_same, 0.01)
        qb, _ = solve_ql_one(omega_inv_sym, w_same, 10.0)
        assert np.allclose(qa, qb, atol=1e-10)

    def test_fallback_on_singular_system(self, rng):
        # reported through the fallback field alone, not as a warning
        n, p = 6, 1
        w_bar = np.zeros((n, p))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = full_sample_weights("quasi_likelihood", np.zeros((n, p, p)), w_bar,
                                    np.full(n, 2), sigma_x=np.zeros((p, p)))
        assert w.fallback
        assert np.allclose(w.q, 1.0 / n)


class TestSchemes:
    def test_all_sum_to_one_and_permute(self, rng):
        d, _ = toy_dataset(rng, n=30)
        sigma_j = estimate_covariances(d)
        for scheme in ("equal", "minimax", "quasi_likelihood"):
            w = full_sample_weights(scheme, sigma_j, d.w_bar, d.n_rep)
            assert abs(w.q.sum() - 1.0) <= 1e-10
            assert w.scheme == scheme
        perm = rng.permutation(d.n)
        for scheme in ("minimax", "quasi_likelihood"):
            w = full_sample_weights(scheme, sigma_j, d.w_bar, d.n_rep)
            w_p = full_sample_weights(scheme, sigma_j[perm], d.w_bar[perm], d.n_rep[perm])
            assert np.allclose(w_p.q, w.q[perm], atol=1e-9)

    def test_unknown_scheme_raises(self, rng):
        # names are compared as given, not case-folded
        d, _ = toy_dataset(rng, n=30)
        sigma_j = estimate_covariances(d)
        for scheme in ("bogus", "Minimax"):
            with pytest.raises(ValueError, match="unknown weight scheme"):
                full_sample_weights(scheme, sigma_j, d.w_bar, d.n_rep)
            with pytest.raises(ValueError, match="unknown weight scheme"):
                _block_weights(scheme, np.ones((2, d.n)), sigma_j,
                               np.stack([np.eye(d.p)] * 2), d.w_bar, d.n_rep)


class TestBlockWeights:
    """Weights over row multiplicities against the weights of the gathered
    rows, summed over each row's copies."""

    @staticmethod
    def block_and_gathered(rng, scheme, n=30, p=2, n_samples=5, shrink=0):
        sigma_j, sx0 = random_covariances(rng, n, p)
        w_bar = rng.normal(size=(n, p))
        n_rep = rng.integers(2, 4, size=n)
        idx = [rng.integers(0, n, size=n - shrink * b) for b in range(n_samples)]
        counts = np.stack([np.bincount(row, minlength=n) for row in idx])
        sigma_x = np.stack([sx0 + 0.1 * s * np.eye(p) for s in range(n_samples)])
        block = _block_weights(scheme, counts, sigma_j, sigma_x, w_bar, n_rep)
        gathered = []
        for row, sx in zip(idx, sigma_x):
            w = full_sample_weights(scheme, sigma_j[row], w_bar[row], n_rep[row], sigma_x=sx)
            gathered.append((np.bincount(row, weights=w.q, minlength=n), w))
        return counts, block, gathered

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["equal", "minimax", "quasi_likelihood"])
    def test_matches_gathered_rows(self, rng, scheme, p):
        counts, block, gathered = self.block_and_gathered(rng, scheme, p=p)
        for b, (folded, w) in enumerate(gathered):
            assert block.errors[b] is None
            np.testing.assert_allclose(block.q[b], folded, rtol=1e-12, atol=1e-15)
            assert np.all(block.q[b][counts[b] == 0] == 0.0)
            assert (block.fallback[b], block.max_clamp[b] > 0.0) == (w.fallback,
                                                                     w.max_clamp > 0.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_samples_of_different_sizes(self, rng, p):
        # samples of 30, 26, ..., 14 copies: each takes the quasi-likelihood
        # penalty 1/N_b of its own size. The Woodbury solve leaves gaps up to
        # 1.9e-12 against the gathered rows (SkylakeX, Haswell and
        # Sandybridge kernels); the first sample's penalty for all of them
        # moves the weights by 1.7e-5 to 4e-2.
        counts, block, gathered = self.block_and_gathered(rng, "quasi_likelihood", p=p,
                                                          shrink=4)
        assert len(set(counts.sum(axis=1))) == counts.shape[0]
        for b, (folded, w) in enumerate(gathered):
            assert block.errors[b] is None
            np.testing.assert_allclose(block.q[b], folded, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_singular_sample_fails_alone(self, p):
        # row 0 is degenerate: the sample that holds it fails minimax and
        # falls back to equal quasi-likelihood weights; the sample without it
        # is untouched
        n = 6
        sigma_j = np.tile(np.eye(p), (n, 1, 1))
        sigma_j[0] = 0.0
        sigma_x = np.zeros((2, p, p))
        counts = np.array([[2, 1, 1, 1, 1, 0], [0, 2, 1, 1, 1, 1]])
        w_bar = np.linspace(0.0, 1.0, n * p).reshape(p, n).T
        n_rep = np.full(n, 2)
        minimax = _block_weights("minimax", counts, sigma_j, sigma_x, w_bar, n_rep)
        assert isinstance(minimax.errors[0], DegenerateCovarianceError)
        assert "observations [0]" in str(minimax.errors[0])
        assert minimax.errors[1] is None
        np.testing.assert_allclose(minimax.q[1], counts[1] / 6.0, rtol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ql = _block_weights("quasi_likelihood", counts, sigma_j, sigma_x, w_bar, n_rep)
        assert ql.fallback.tolist() == [True, False]
        np.testing.assert_allclose(ql.q[0], counts[0] / 6.0, rtol=1e-15)
        assert ql.errors == (None, None)
