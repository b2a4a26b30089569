import numpy as np
import pytest

from eivgmm.covariance import estimate_covariances, pooled_error_covariance
from eivgmm.errors import EstimationError
from eivgmm.model_data import build_design, make_dataset
from eivgmm.moment_correction import fit_mc, fit_ols, grad_corrected_l2
from eivgmm.simgen import SimConfig, gen_dataset
from conftest import toy_dataset


class TestFitOls:
    def test_exact_fit(self):
        x = np.linspace(0, 1, 10)
        y = 2.0 + 3.0 * x
        design = np.column_stack([x, np.ones(10)])
        pv = fit_ols(y, design, p=1)
        assert np.allclose(pv.beta, [3.0])
        assert np.allclose(pv.gamma, [2.0])

    def test_textbook_slope_identity(self, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        design = np.column_stack([x - x.mean(), np.ones(200)])
        pv = fit_ols(y, design, p=1)
        xc = x - x.mean()
        assert np.isclose(pv.beta[0], (xc @ y) / (xc @ xc))

    def test_rank_deficiency_raises(self, rng):
        x = np.ones((20, 2))
        with pytest.raises(EstimationError, match="rank"):
            fit_ols(rng.normal(size=20), x, p=1)


class TestFitMc:
    def test_zero_sigma_equals_ols(self, rng):
        d, _ = toy_dataset(rng, n=60)
        design = build_design(d)
        mc = fit_mc(d, np.zeros((d.n, d.p, d.p)), design)
        ols = fit_ols(d.y, design.v, d.p)
        assert np.allclose(mc.theta.theta, ols.theta, atol=1e-10)

    def test_small_instance_matches_dense_oracle(self, rng):
        # n=5, p=1, q=0 with hand-chosen covariances: 2x2 system solved directly
        w = [np.array([[1.0], [1.4]]), np.array([[2.0], [2.2]]), np.array([[0.4], [0.8]]),
             np.array([[3.1], [2.9]]), np.array([[1.8], [2.4]])]
        y = np.array([1.1, 2.3, 0.4, 3.2, 2.0])
        d = make_dataset(y, np.empty((5, 0)), w)
        sigma_j = np.array([[[0.3]], [[0.1]], [[0.2]], [[0.05]], [[0.4]]])
        mc = fit_mc(d, sigma_j)

        w_bar = np.array([wj.mean(axis=0) for wj in w]).ravel()
        sw = (sigma_j.ravel() / 2.0).sum()
        a = np.array([
            [w_bar @ w_bar - sw, w_bar.sum()],
            [w_bar.sum(), 5.0],
        ])
        rhs = np.array([w_bar @ y, y.sum()])
        expected = np.linalg.solve(a, rhs)
        assert np.allclose(mc.theta.theta, expected, atol=1e-12)

    def test_gradient_zero_at_solution(self, rng):
        d, _ = toy_dataset(rng, n=80)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        mc = fit_mc(d, sigma_j, design)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        grad = grad_corrected_l2(mc.theta.theta, design.v, d.y, sig_w)
        rhs = design.v.T @ d.y
        assert np.max(np.abs(grad)) <= 1e-8 * (1.0 + np.abs(rhs).max())

    def test_solution_residual_small(self, rng):
        d, _ = toy_dataset(rng, n=80)
        sigma_j = estimate_covariances(d)
        mc = fit_mc(d, sigma_j)
        design = build_design(d)
        rhs = design.v.T @ d.y
        resid = mc.gram @ mc.theta.theta - rhs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)

    def test_singular_system_raises(self):
        # correction tuned so the corrected Gram loses rank exactly
        w = [np.array([[float(j)], [float(j)]]) for j in range(8)]
        y = np.arange(8.0)
        d = make_dataset(y, np.empty((8, 0)), w)
        w_bar = np.arange(8.0)
        # gram = [[sum w^2 - s, sum w], [sum w, 8]] is singular when
        # sum w^2 - s = (sum w)^2 / 8
        s = w_bar @ w_bar - w_bar.sum() ** 2 / 8.0
        sigma_j = np.full((8, 1, 1), 2.0 * s / 8.0)
        with pytest.raises(EstimationError, match="near-singular"):
            fit_mc(d, sigma_j)

    def test_sigma_eps_clamped_nonnegative(self, rng):
        d, _ = toy_dataset(rng, n=50, noise_sd=0.8, eps_sd=0.01)
        sigma_j = estimate_covariances(d)
        mc = fit_mc(d, sigma_j)
        assert mc.sigma_eps_sq >= 0.0


class TestEquivariance:
    def test_outcome_scaling(self, rng):
        d, _ = toy_dataset(rng, n=70)
        sigma_j = estimate_covariances(d)
        theta1 = fit_mc(d, sigma_j).theta.theta
        d2 = make_dataset(3.0 * d.y, d.z[:, 1:], d.w_reps)
        theta2 = fit_mc(d2, sigma_j).theta.theta
        assert np.allclose(theta2, 3.0 * theta1, rtol=1e-10)

    def test_z_shift(self, rng):
        d, _ = toy_dataset(rng, n=70, q=1)
        sigma_j = estimate_covariances(d)
        theta1 = fit_mc(d, sigma_j).theta.theta
        d2 = make_dataset(d.y + 2.5 * d.z[:, 1], d.z[:, 1:], d.w_reps)
        theta2 = fit_mc(d2, sigma_j).theta.theta
        expected = theta1.copy()
        expected[-1] += 2.5
        assert np.allclose(theta2, expected, rtol=1e-8, atol=1e-10)


class TestConsistency:
    def test_attenuation_correction_large_sample(self):
        # simple EIV with normal errors: the corrected estimator removes the
        # attenuation that the naive estimator shows
        cfg = SimConfig(setting="simple", n=10_000, n_rep=2, m_reps=1,
                        error_law="normal", seed=5)
        d, x = gen_dataset(cfg, 0)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        mc = fit_mc(d, sigma_j, design)
        naive = fit_ols(d.y, design.v, d.p)
        assert abs(mc.theta.beta[0] - 1.0) < 0.03
        # attenuation factor var(x) / (var(x) + mean averaged error variance)
        avg_noise = (sigma_j[:, 0, 0] / d.n_rep).mean()
        lam = x.var() / (x.var() + avg_noise)
        assert abs(naive.beta[0] - lam) < 0.05
        assert naive.beta[0] < 0.75

    def test_bias_shrinks_with_n(self):
        # Setting I normal: |bias| at n=4000 below half the bias at n=1000
        biases = {}
        for n, m_reps in ((1000, 200), (4000, 200)):
            cfg = SimConfig(setting="I", n=n, n_rep=2, m_reps=m_reps,
                            error_law="normal", rho=0.0, seed=17)
            est = np.zeros((m_reps, 3))
            for m in range(m_reps):
                d, _ = gen_dataset(cfg, m)
                est[m] = fit_mc(d, estimate_covariances(d)).theta.theta
            biases[n] = np.abs(est.mean(axis=0) - cfg.theta0).max()
        assert biases[4000] < 0.5 * biases[1000]
