import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eivgmm.errors import ValidationError
from eivgmm.simgen import (
    HALF_NORMAL_SCALE,
    SimConfig,
    _draw_replicate_errors,
    _equicorrelated_normal,
    _half_normal_transform,
    gen_dataset,
    gen_error_matrices,
)
from eivgmm.study import ESTIMATORS


def half_normal_copula(n, dim, corr, seed):
    """The covariate draw gen_dataset makes: Gaussian-copula half-normals."""
    rng = np.random.default_rng(seed)
    return _half_normal_transform(_equicorrelated_normal(rng, n, dim, corr))


def replicate_errors(law, sigma, n, n_rep, rng):
    """gen_dataset's (n, n_rep, p) error draw with every observation's
    covariance equal to sigma."""
    sigma = np.atleast_2d(sigma)
    return _draw_replicate_errors(law, np.broadcast_to(sigma, (n,) + sigma.shape), n_rep, rng)


def draw_vectors(law, sigma, count, seed):
    """count error vectors with covariance sigma, one replicate each."""
    return replicate_errors(law, sigma, count, 1, np.random.default_rng(seed))[:, 0, :]


class TestHalfNormalCopula:
    def test_moments(self):
        x = half_normal_copula(100_000, 2, 0.5, 99)
        # scaled half-normal: variance 1, mean sqrt(2/pi)/sqrt(1-2/pi)
        target_mean = np.sqrt(2 / np.pi) / np.sqrt(1 - 2 / np.pi)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 1.0) < 0.02)
        assert np.all(np.abs(x.mean(axis=0) / target_mean - 1.0) < 0.01)

    def test_positive_support(self):
        x = half_normal_copula(5000, 3, 0.3, 1)
        assert np.all(x > 0)

    def test_correlation_induced(self):
        x = half_normal_copula(200_000, 2, 0.5, 2)
        # Gaussian-copula corr 0.5 maps to a nearby positive Pearson corr
        r = np.corrcoef(x, rowvar=False)[0, 1]
        assert 0.3 < r < 0.6


    def test_matches_tail_accurate_formula(self):
        # x = -Phi^{-1}(Phi(-z) / 2) against scipy's special functions, which
        # only the tests import; scaled values measured within 1.4e-14 of the
        # same identity, and within 6.0e-14 of Phi^{-1}((1 + Phi(z)) / 2) on
        # |z| <= 3, where that form still holds its digits
        from scipy.special import ndtr, ndtri
        z = np.random.default_rng(3).standard_normal(100_000) * 3.0
        got = _half_normal_transform(z)
        want = -HALF_NORMAL_SCALE * ndtri(0.5 * ndtr(-z))
        assert np.all(np.abs(got - want) <= 1e-14 + 4e-15 * np.abs(want))
        inner = np.abs(z) <= 3.0
        former = HALF_NORMAL_SCALE * ndtri(0.5 * (1.0 + ndtr(z[inner])))
        assert np.max(np.abs(got[inner] - former)) <= 1e-13

    def test_finite_and_monotone_in_both_tails(self):
        # (1 + Phi(z)) / 2 rounds to 1 above z = 8.16, where Phi^{-1} of it is inf
        x = _half_normal_transform(np.linspace(-38.0, 38.0, 7601))
        assert np.all(np.isfinite(x))
        assert np.all(x >= 0.0)
        assert np.all(np.diff(x) >= 0.0)

    def test_runtime_runs_without_scipy(self):
        # scipy is a test-only dependency: with it blocked, the package and
        # the CLI import and a replication of every estimator completes
        src = Path(__file__).resolve().parents[1] / "src"
        code = "\n".join([
            "import json, sys",
            "sys.modules['scipy'] = None",
            "import eivgmm, eivgmm.cli",
            "from eivgmm.study import ESTIMATORS, run_replication",
            "est, ses, errors = run_replication(",
            "    eivgmm.SimConfig(setting='I', n=200, m_reps=1), 0, ESTIMATORS, b=25)",
            "loaded = [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]",
            "print(json.dumps([sorted(est), errors, loaded]))",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": str(src)})
        names, errors, loaded = json.loads(out.stdout)
        assert names == sorted(ESTIMATORS)
        assert errors == []
        assert loaded == []


class TestErrorMatrices:
    def test_diagonal_when_uncorrelated(self):
        sig = gen_error_matrices(50, 2, 2, 0.0, np.random.default_rng(3))
        assert np.allclose(sig[:, 0, 1], 0.0)

    def test_variance_range(self):
        for n_rep in (2, 3):
            sig = gen_error_matrices(2000, n_rep, 2, 0.5, np.random.default_rng(4))
            diag = np.diagonal(sig, axis1=1, axis2=2) / n_rep
            assert diag.min() >= 0.2 - 1e-12
            assert diag.max() <= 1.5 + 1e-12

    def test_signal_to_noise_band(self):
        # averaged-replicate noise variance in [0.2, 1.5] means SNR in [2/3, 5]
        sig = gen_error_matrices(5000, 2, 2, 0.0, np.random.default_rng(5))
        snr = 1.0 / (np.diagonal(sig, axis1=1, axis2=2) / 2)
        assert snr.min() >= 2 / 3 - 1e-9
        assert snr.max() <= 5 + 1e-9

    def test_scale_multiplier(self):
        sig = gen_error_matrices(1000, 2, 1, 0.0, np.random.default_rng(6), scale=0.5)
        diag = sig[:, 0, 0] / 2
        assert diag.min() >= 0.25 * 0.2 - 1e-12
        assert diag.max() <= 0.25 * 1.5 + 1e-12


class TestDrawErrors:
    @pytest.mark.parametrize("law", ["normal", "t2_5", "contaminated_normal"])
    def test_symmetric_zero_mean(self, law):
        sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
        u = draw_vectors(law, sigma, 200_000, 11)
        tol = 0.05 if law == "t2_5" else 0.02
        assert np.all(np.abs(u.mean(axis=0)) < tol)
        assert abs(np.median(u[:, 0])) < 0.01

    def test_normal_covariance(self):
        sigma = np.eye(2)
        u = draw_vectors("normal", sigma, 1_000_000, 12)
        cov = np.cov(u, rowvar=False)
        assert np.all(np.abs(cov - sigma) < 0.03)

    def test_contaminated_mixture_scaling(self):
        # mixture variance factor 0.9 + 0.1*100 = 10.9 is divided out
        sigma = np.array([[2.0]])
        u = draw_vectors("contaminated_normal", sigma, 400_000, 13)
        assert abs(u.var() - 2.0) < 0.1
        # the 10x component leaves a visibly heavy tail
        assert np.mean(np.abs(u) > 3 * np.sqrt(2.0 / 10.9) * 3) > 0.01

    def test_t_covariance(self):
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        u = draw_vectors("t2_5", sigma, 2_000_000, 14)
        cov = np.cov(u, rowvar=False)
        # t_2.5 variance converges slowly; generous band
        assert np.all(np.abs(cov / sigma - 1.0) < 0.2)


class TestGenDataset:
    def test_deterministic(self):
        cfg = SimConfig(setting="I", n=100, n_rep=2, m_reps=1, error_law="normal",
                        rho=0.5, seed=21)
        d1, x1 = gen_dataset(cfg, 3)
        d2, x2 = gen_dataset(cfg, 3)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(x1, x2)
        assert all(np.array_equal(a, b) for a, b in zip(d1.w_reps, d2.w_reps))
        d3, _ = gen_dataset(cfg, 4)
        assert not np.array_equal(d1.y, d3.y)

    def test_dimensions_by_setting(self):
        for setting, (p, q) in (("simple", (1, 0)), ("I", (2, 0)),
                                ("II", (2, 2)), ("III", (2, 2))):
            cfg = SimConfig(setting=setting, n=60, n_rep=3, m_reps=1,
                            error_law="normal", seed=1)
            d, x = gen_dataset(cfg, 0)
            assert (d.p, d.q) == (p, q)
            assert x.shape == (60, p)
            assert np.all(d.n_rep == 3)

    def test_setting_iii_z_symmetric_standard_normal(self):
        cfg = SimConfig(setting="III", n=50_000, n_rep=2, m_reps=1,
                        error_law="normal", seed=5)
        d, _ = gen_dataset(cfg, 0)
        z = d.z[:, 1:]
        assert np.all(np.abs(z.mean(axis=0)) < 0.02)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.03)
        from scipy import stats
        assert abs(stats.skew(z[:, 0])) < 0.05

    def test_setting_ii_z_half_normal(self):
        cfg = SimConfig(setting="II", n=50_000, n_rep=2, m_reps=1,
                        error_law="normal", seed=6)
        d, _ = gen_dataset(cfg, 0)
        assert np.all(d.z[:, 1:] > 0)

    def test_oracle_regression_recovers_truth(self):
        cfg = SimConfig(setting="I", n=20_000, n_rep=2, m_reps=1,
                        error_law="normal", rho=0.5, seed=7)
        d, x = gen_dataset(cfg, 0)
        design = np.column_stack([x, d.z])
        coef = np.linalg.lstsq(design, d.y, rcond=None)[0]
        assert np.all(np.abs(coef - cfg.theta0) < 0.02)

    @pytest.mark.parametrize("law", ["normal", "t2_5", "contaminated_normal"])
    def test_generated_sigma_respected(self, law):
        # replicate-difference estimates averaged over many regenerations
        # recover the covariance the errors were drawn with
        sigma = np.array([[1.2, 0.4], [0.4, 0.8]])
        rng = np.random.default_rng(88)
        m, n_rep = 40_000, 2
        u = replicate_errors(law, sigma, m, n_rep, rng)
        diff = u[:, 0, :] - u[:, 1, :]
        est = np.einsum("ja,jb->ab", diff, diff) / (2 * m)
        tol = 0.25 if law == "t2_5" else 0.06
        assert np.all(np.abs(est - sigma) < tol * np.abs(sigma).max())

    def test_error_symmetry_condition(self):
        from scipy import stats
        for law in ("normal", "t2_5", "contaminated_normal"):
            cfg = SimConfig(setting="simple", n=30_000, n_rep=2, m_reps=1,
                            error_law=law, seed=9)
            d, x = gen_dataset(cfg, 0)
            u = d.w_reps[0]  # not meaningful alone; use replicate differences
            diffs = np.array([w[0, 0] - w[1, 0] for w in d.w_reps])
            assert abs(np.median(diffs)) < 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(setting="bogus")
        with pytest.raises(ValidationError):
            SimConfig(setting="I", n_rep=1)
        with pytest.raises(ValidationError):
            SimConfig(setting="I", error_law="cauchy")
        for bad in ({"u_scale": 0.0}, {"u_scale": -1.0}, {"u_scale": np.inf},
                    {"u_scale": np.nan}, {"sigma_eps_sq": -1.0},
                    {"sigma_eps_sq": np.nan}, {"sigma_eps_sq": np.inf}, {"m_reps": -1},
                    {"n": 3}, {"seed": -1}):
            with pytest.raises(ValidationError):
                SimConfig(setting="I", **bad)
        assert SimConfig(setting="I", m_reps=0, sigma_eps_sq=0.0).m_reps == 0
