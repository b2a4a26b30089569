"""Acceptance suite.

Criteria 1-4 are seeded desk-scale Monte Carlo studies (M=100 replications,
B=100 bootstrap resamples); criterion 5 is the always-runnable property suite;
criterion 6 checks oracle equivalences on tiny instances. One PASS/FAIL line
is printed per criterion.
"""

import os

import numpy as np
import pytest

from eivgmm.acceptance import run_criterion
from eivgmm.cli import main
from eivgmm.covariance import (
    estimate_covariances,
    omega_matrices,
    pooled_error_covariance,
    psd_project,
)
from eivgmm.gmm import fit_gmm_multi
from eivgmm.model_data import CsvSchema, build_design, make_dataset, write_csv
from eivgmm.moment_correction import fit_mc, grad_corrected_l2
from eivgmm.phase import grad_and_hessian, kernel
from eivgmm.simgen import SimConfig, gen_dataset
from conftest import full_sample_weights, solve_ql_one
from gmm_oracles import sigma_x_from_parts
from phase_oracles import build_ecf, dtilde, ecf_values, wepf

SEED = 20250810
M_REPS = 100
B = 100
WORKERS = max(1, min(int(os.environ.get("EIVGMM_WORKERS", os.cpu_count() or 1)), 8))


def _report(name, outcome):
    status = "PASS" if outcome["passed"] else "FAIL"
    print(f"\n[{status}] criterion {name}: {outcome['summary']}")


def _sim_data(n=300, seed=41, law="normal", setting="I", rho=0.5):
    cfg = SimConfig(setting=setting, n=n, n_rep=2, m_reps=1, error_law=law,
                    rho=rho, seed=seed)
    d, x = gen_dataset(cfg, 0)
    return d


class TestSimulationCriteria:
    def test_criterion_1_naive_vs_corrected(self):
        outcome = run_criterion("naive-ordering", m_reps=M_REPS, b=B, seed=SEED,
                                workers=WORKERS)
        _report("1 naive-vs-corrected", outcome)
        assert outcome["passed"], outcome["summary"]

    def test_criterion_2_gmm_beats_mc_heavy_tails(self):
        outcome = run_criterion("heavy-tails", m_reps=M_REPS, b=B, seed=SEED,
                                workers=WORKERS)
        _report("2 heavy-tails", outcome)
        assert outcome["passed"], outcome["summary"]

    def test_criterion_3_contaminated_simple(self):
        outcome = run_criterion("contaminated-simple", m_reps=M_REPS, b=B, seed=SEED,
                                workers=WORKERS)
        _report("3 contaminated-simple", outcome)
        assert outcome["passed"], outcome["summary"]

    def test_criterion_4_se_calibration(self):
        outcome = run_criterion("se", m_reps=M_REPS, b=B, seed=SEED, workers=WORKERS)
        _report("4 se-calibration", outcome)
        assert outcome["passed"], outcome["summary"]


class TestCriterion5Properties:
    """Always-runnable property suite (< 2 minutes)."""

    def test_wepf_unit_modulus(self):
        rng = np.random.default_rng(1)
        d = _sim_data(n=200)
        design = build_design(d)
        ok = True
        for _ in range(50):
            theta = rng.normal(size=3)
            t = rng.uniform(0.05, 2.0)
            ok &= abs(abs(wepf(theta, design.v, np.full(200, 1 / 200), t)) - 1.0) <= 1e-10
        _report("5a |wepf| = 1", {"passed": ok, "summary": "unit modulus to 1e-10"})
        assert ok

    def test_weights_sum_to_one(self):
        d = _sim_data(n=250)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        ok = True
        for scheme in ("equal", "minimax", "quasi_likelihood"):
            w = full_sample_weights(scheme, sigma_j, design.v[:, :d.p], d.n_rep)
            ok &= abs(w.q.sum() - 1.0) <= 1e-10
        _report("5b sum q = 1", {"passed": ok, "summary": "all schemes to 1e-10"})
        assert ok

    def test_sigma_j_closed_form_two_replicates(self):
        d = _sim_data(n=100)
        sigma_j = estimate_covariances(d)
        ok = True
        for j in range(d.n):
            diff = d.w_reps[j][0] - d.w_reps[j][1]
            ok &= np.allclose(sigma_j[j], 0.5 * np.outer(diff, diff), atol=1e-12)
        _report("5c sigma_j closed form (n_j=2)",
                {"passed": ok, "summary": "half outer product of the difference"})
        assert ok

    def test_grad_dtilde_finite_differences(self):
        rng = np.random.default_rng(2)
        d = _sim_data(n=150)
        design = build_design(d)
        sigma_j = estimate_covariances(d)
        w = full_sample_weights("minimax", sigma_j, design.v[:, :d.p], d.n_rep)
        ecf = build_ecf(d.y)
        worst = 0.0
        for _ in range(5):
            theta = np.array([1.0, 0.5, 2.0]) + 0.2 * rng.normal(size=3)
            grad = grad_and_hessian(theta, design.v, w.q, ecf)[0]
            fd = np.empty(3)
            for i in range(3):
                h = 1e-6 * (1.0 + abs(theta[i]))
                e = np.zeros(3)
                e[i] = h
                fd[i] = (dtilde(theta + e, design.v, w.q, ecf)
                         - dtilde(theta - e, design.v, w.q, ecf)) / (2 * h)
            worst = max(worst, np.max(np.abs(grad - fd)) / max(np.abs(fd).max(), 1e-12))
        ok = worst <= 1e-5
        _report("5d grad vs central differences",
                {"passed": ok, "summary": f"relative error {worst:.2e} <= 1e-5"})
        assert ok

    def test_q_at_gmm_below_q_at_mc(self):
        d = _sim_data(n=200, law="t2_5", rho=0.0)
        fit = fit_gmm_multi(d, ("minimax",), b=50, seed=3, compute_se=False)["minimax"]
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        s = np.concatenate([
            grad_corrected_l2(fit.theta_init, design.v, d.y, sig_w),
            grad_and_hessian(fit.theta_init, design.v, fit.weights.q, fit.ecf)[0],
        ])
        q_mc = s @ fit.omega_inv @ s
        ok = fit.q_value <= q_mc + 1e-12
        _report("5e Q(gmm) <= Q(mc)",
                {"passed": ok, "summary": f"{fit.q_value:.4g} <= {q_mc:.4g}"})
        assert ok

    def test_mc_gradient_at_solution(self):
        d = _sim_data(n=220)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        mc = fit_mc(d, sigma_j, design)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        g = grad_corrected_l2(mc.theta.theta, design.v, d.y, sig_w)
        bound = 1e-8 * (1.0 + np.abs(design.v.T @ d.y).max())
        ok = np.max(np.abs(g)) <= bound
        _report("5f MC gradient at solution",
                {"passed": ok, "summary": f"max |grad| {np.max(np.abs(g)):.2e} <= {bound:.2e}"})
        assert ok

    def test_ql_bordered_system_residual(self):
        d = _sim_data(n=300)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        w_bar = design.v[:, :d.p]
        gamma = 1.0 / d.n
        sigma_x = psd_project(sigma_x_from_parts(w_bar, sigma_j, d.n_rep))
        omega_inv = np.linalg.inv(omega_matrices(sigma_x[None], sigma_j, d.n_rep)[0])
        q, lam = solve_ql_one(omega_inv, w_bar, gamma)
        a2 = omega_inv.sum(axis=0)
        a1 = np.einsum("jab,jb->a", omega_inv, w_bar)
        m = w_bar @ a2 @ w_bar.T + gamma * (d.n * np.eye(d.n) - np.ones((d.n, d.n)))
        resid = np.abs(m @ q + lam - w_bar @ a1).max()
        sum_err = abs(q.sum() - 1.0)
        scale = max(1.0, np.abs(w_bar @ a1).max())
        ok = resid <= 1e-9 * scale and sum_err <= 1e-9
        _report("5g QL bordered residual",
                {"passed": ok, "summary": f"residual {resid:.2e} (rhs scale {scale:.2e})"})
        assert ok

    def test_fixed_seed_bit_determinism(self, tmp_path):
        d = _sim_data(n=120, seed=55)
        csv = tmp_path / "d.csv"
        write_csv(d, csv, CsvSchema(y="y"))
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"fit_{tag}.json"
            code = main(["fit", "--data", str(csv), "--y", "y", "--estimators",
                         "naive,mc,gmm", "--weights", "mm", "--bootstrap", "30",
                         "--seed", "7", "--json", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        fit_ok = outs[0] == outs[1]
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"sim_{tag}.json"
            code = main(["simulate", "--setting", "simple", "--error", "normal",
                         "--n", "100", "--M", "2", "--b", "30", "--seed", "9",
                         "--estimators", "naive,mc", "--workers", "1",
                         "--json", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        sim_ok = outs[0] == outs[1]
        ok = fit_ok and sim_ok
        _report("5h bit determinism",
                {"passed": ok, "summary": f"fit {fit_ok}, simulate {sim_ok}"})
        assert ok


class TestCriterion6Oracles:
    def test_fit_mc_matches_dense_solve(self):
        rng = np.random.default_rng(6)
        w = [rng.normal(loc=j, size=(2, 1)) for j in range(5)]
        y = np.array([0.8, 2.1, 2.9, 4.2, 4.8])
        d = make_dataset(y, np.empty((5, 0)), w)
        sigma_j = np.array([[[0.2]], [[0.4]], [[0.1]], [[0.3]], [[0.25]]])
        mc = fit_mc(d, sigma_j)
        w_bar = np.array([wj.mean() for wj in w])
        a = np.array([[w_bar @ w_bar - sigma_j.sum() / 2, w_bar.sum()],
                      [w_bar.sum(), 5.0]])
        expected = np.linalg.solve(a, np.array([w_bar @ y, y.sum()]))
        ok = np.allclose(mc.theta.theta, expected, atol=1e-12)
        _report("6a fit_mc dense oracle (n=5)",
                {"passed": ok, "summary": f"theta {mc.theta.theta.round(6).tolist()}"})
        assert ok

    def test_weights_ql_matches_explicit_4x4(self):
        omega_inv = np.array([[[2.0]], [[1.0]], [[0.5]]])
        w_bar = np.array([[0.5], [1.5], [2.5]])
        gamma = 1.0 / 3.0
        q, lam = solve_ql_one(omega_inv, w_bar, gamma)
        a2 = omega_inv.sum()
        a1 = (omega_inv[:, 0, 0] * w_bar[:, 0]).sum()
        m = np.zeros((4, 4))
        m[:3, :3] = a2 * np.outer(w_bar, w_bar) + gamma * (3 * np.eye(3) - 1)
        m[:3, 3] = m[3, :3] = 1.0
        sol = np.linalg.solve(m, np.array([*(w_bar[:, 0] * a1), 1.0]))
        ok = np.allclose(q, sol[:3], atol=1e-12) and np.isclose(lam, sol[3], atol=1e-12)
        _report("6b weights_ql 4x4 oracle (n=3)",
                {"passed": ok, "summary": f"weights {np.round(q, 6).tolist()}"})
        assert ok

    def test_dtilde_matches_refined_trapezoid(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(5, 2))
        y = v @ np.array([1.0, 0.5]) + 0.05 * rng.normal(size=5)
        q = np.full(5, 0.2)
        ecf = build_ecf(y)
        theta = np.array([1.1, 0.4])
        val = dtilde(theta, v, q, ecf)
        t = np.linspace(0.0, ecf.t_star, 10_001)
        c, s = ecf_values(y, t[1:])
        idx = v @ theta
        g = c * (np.sin(t[1:, None] * idx) @ q) - s * (np.cos(t[1:, None] * idx) @ q)
        integrand = np.concatenate([[0.0], g**2 * kernel(t[1:], ecf.t_star)])
        oracle = np.trapezoid(integrand, t)
        ok = abs(val - oracle) <= 1e-6 * abs(oracle)
        _report("6c dtilde trapezoid oracle",
                {"passed": ok, "summary": f"{val:.9e} vs {oracle:.9e}"})
        assert ok


@pytest.mark.slow
class TestStandardErrorStudies:
    """Further SE calibration studies beyond criterion 4 (reduced M)."""

    def test_setting_iii_heavy_tail_se_calibration(self):
        from eivgmm.acceptance import REFERENCE_EPS_VAR, REFERENCE_U_SCALE
        from eivgmm.study import run_study
        cfg = SimConfig(setting="III", n=1000, n_rep=2, m_reps=50,
                        error_law="t2_5", rho=0.5, seed=SEED,
                        sigma_eps_sq=REFERENCE_EPS_VAR, u_scale=REFERENCE_U_SCALE)
        res = run_study(cfg, estimators=("gmm_mm",), b=B, workers=WORKERS,
                        compute_se=True)
        s = res.se_summary["gmm_mm"]
        # every coefficient's average reported SE tracks its Monte Carlo SE
        rel = np.abs(s.avg_se - s.mc_se) / s.mc_se
        ok = bool(np.all(rel <= 0.35) and np.all((0.01 <= s.avg_se) & (s.avg_se <= 0.08)))
        _report("S3 SE calibration (setting III, t2.5)",
                {"passed": ok,
                 "summary": f"max relative gap {rel.max():.2f}; "
                            f"gamma2 {s.avg_se[-1]:.4f} vs {s.mc_se[-1]:.4f} "
                            f"(reference 0.018 vs 0.016)"})
        assert ok

    def test_se_shrinks_with_sample_size(self):
        from eivgmm.acceptance import REFERENCE_EPS_VAR, REFERENCE_U_SCALE
        from eivgmm.study import run_study
        avg = {}
        for n in (500, 1000):
            cfg = SimConfig(setting="I", n=n, n_rep=2, m_reps=50,
                            error_law="normal", rho=0.5, seed=SEED,
                            sigma_eps_sq=REFERENCE_EPS_VAR, u_scale=REFERENCE_U_SCALE)
            res = run_study(cfg, estimators=("gmm_mm",), b=B, workers=WORKERS,
                            compute_se=True)
            avg[n] = float(res.se_summary["gmm_mm"].avg_se[0])
        ratio = avg[500] / avg[1000]
        ok = 1.25 <= ratio <= 1.6
        _report("S4 SE sqrt(n) shrink",
                {"passed": ok,
                 "summary": f"beta1 Avg-SE {avg[500]:.4f} -> {avg[1000]:.4f} "
                            f"(ratio {ratio:.2f}, expect about sqrt(2))"})
        assert ok
