import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eivgmm.errors import DegenerateInputError, PhaseValueError
from eivgmm.phase import (
    PhaseConfig,
    build_ecf,
    dtilde,
    ecf_values,
    grad_and_hessian,
    grad_dtilde,
    kernel,
    select_t_star,
    wepf,
)


class TestSelectTStar:
    def test_two_point_closed_form(self):
        # |ecf| = |cos t| first reaches 2^{-1/2} at pi/4
        y = np.array([-1.0, 1.0])
        t = select_t_star(y)
        step = 0.01 / y.std(ddof=1)
        assert abs(t - np.pi / 4) <= step + 1e-12

    def test_standard_normal_band(self):
        # the noise-floor rule crosses near the analytic solution of
        # exp(-t^2/2) = n^{-1/2} (2.49 at n=500); sampling noise puts the first
        # crossing in a band around it, never far below
        rng = np.random.default_rng(2718)
        analytic = np.sqrt(2.0 * np.log(np.sqrt(500)))
        ts = np.array([select_t_star(rng.standard_normal(500)) for _ in range(50)])
        assert np.all(ts >= analytic - 0.6)
        assert 2.3 <= np.median(ts) <= 3.5

    def test_crossing_brackets_threshold(self, rng):
        y = rng.standard_normal(400)
        t = select_t_star(y)
        step = 0.01 / y.std(ddof=1)
        c1, s1 = ecf_values(y, t)
        assert np.hypot(c1, s1)[0] <= 400 ** -0.5 + 1e-12
        c0, s0 = ecf_values(y, t - step)
        assert np.hypot(c0, s0)[0] > 400 ** -0.5

    def test_cap_fallback_warns(self):
        # two-point lattice outcomes: |ecf| is periodic and never settles
        # below the noise floor, so the scan returns the cap
        y = np.array([0.0] * 90 + [1.0] * 10)
        with pytest.warns(RuntimeWarning, match="scan cap"):
            t = select_t_star(y)
        assert np.isclose(t, 50.0 / y.std(ddof=1), rtol=1e-6)

    def test_constant_outcome_raises(self):
        with pytest.raises(DegenerateInputError):
            select_t_star(np.ones(10))


class TestEcf:
    def test_values_at_zero(self, rng):
        y = rng.normal(size=50)
        c, s = ecf_values(y, 0.0)
        assert c[0] == 1.0 and s[0] == 0.0

    def test_modulus_bounded(self, rng):
        y = rng.normal(size=200)
        ecf = build_ecf(y)
        assert np.all(ecf.c_y**2 + ecf.s_y**2 <= 1.0 + 1e-12)
        assert np.all(np.diff(ecf.grid) > 0)
        assert ecf.grid[0] > 0.0 and ecf.grid[-1] < ecf.t_star

    def test_quadrature_weights_integrate(self, rng):
        # GL weights on [0, t*] integrate polynomials exactly
        y = rng.normal(size=100)
        ecf = build_ecf(y)
        assert np.isclose(ecf.quad_w.sum(), ecf.t_star, rtol=1e-12)
        assert np.isclose(ecf.quad_w @ ecf.grid**3, ecf.t_star**4 / 4, rtol=1e-12)


class TestWepf:
    def test_single_atom_phase(self):
        v = np.array([[1.5, 1.0]])
        theta = np.array([0.7, 0.3])
        t = 0.9
        val = wepf(theta, v, np.array([1.0]), t)
        expected = np.exp(1j * t * (v @ theta)[0])
        assert abs(val - expected) < 1e-12

    def test_symmetric_sample_real(self):
        vals = np.array([-2.0, -1.0, 1.0, 2.0])
        v = np.column_stack([vals])
        q = np.full(4, 0.25)
        val = wepf(np.array([1.0]), v, q, 0.7)
        assert abs(val.imag) < 1e-14

    def test_unit_modulus_random(self, rng):
        n, k = 30, 3
        v = rng.normal(size=(n, k))
        q = rng.dirichlet(np.ones(n))
        for _ in range(100):
            theta = rng.normal(size=k)
            t = rng.uniform(0.05, 3.0)
            val = wepf(theta, v, q, t)
            assert abs(abs(val) - 1.0) < 1e-10
            num = (q * np.exp(1j * t * (v @ theta))).sum()
            assert abs(val - num / abs(num)) < 1e-10

    def test_vanishing_modulus_raises(self):
        # two atoms half a period apart cancel exactly
        v = np.array([[0.0], [np.pi]])
        q = np.array([0.5, 0.5])
        with pytest.raises(PhaseValueError):
            wepf(np.array([1.0]), v, q, 1.0)


def _random_problem(rng, n=10, k=3):
    v = rng.normal(size=(n, k))
    theta0 = rng.normal(size=k)
    y = v @ theta0 + 0.1 * rng.normal(size=n)
    q = rng.dirichlet(np.ones(n))
    ecf = build_ecf(y)
    return v, y, q, ecf, theta0


class TestDtilde:
    def test_perfect_phase_match_is_zero(self, rng):
        v = rng.normal(size=(12, 2))
        theta = np.array([0.8, -0.4])
        y = v @ theta
        ecf = build_ecf(y)
        q = np.full(12, 1.0 / 12)
        assert dtilde(theta, v, q, ecf) <= 1e-20

    def test_nonnegative(self, rng):
        v, y, q, ecf, _ = _random_problem(rng)
        for _ in range(20):
            assert dtilde(rng.normal(size=3), v, q, ecf) >= 0.0

    def test_matches_trapezoid_oracle(self, rng):
        # 5-point dataset: 64-node quadrature vs 10^4-point trapezoid
        v = rng.normal(size=(5, 2))
        y = v @ np.array([1.0, 0.5]) + 0.05 * rng.normal(size=5)
        q = np.full(5, 0.2)
        ecf = build_ecf(y)
        theta = np.array([0.9, 0.6])
        val = dtilde(theta, v, q, ecf)

        t = np.linspace(0.0, ecf.t_star, 10_001)[1:]
        c, s = ecf_values(y, t)
        idx = v @ theta
        g = c * (np.sin(t[:, None] * idx) @ q) - s * (np.cos(t[:, None] * idx) @ q)
        integrand = g**2 * kernel(t, ecf.t_star)
        oracle = np.trapezoid(np.concatenate([[0.0], integrand]),
                              np.concatenate([[0.0], t]))
        assert abs(val - oracle) <= 1e-6 * abs(oracle)

    def test_refinement_stable(self, rng):
        v, y, q, _, theta0 = _random_problem(rng, n=25)
        base = dtilde(theta0, v, q, build_ecf(y, PhaseConfig(n_quad=64)))
        fine = dtilde(theta0, v, q, build_ecf(y, PhaseConfig(n_quad=128)))
        assert abs(base - fine) <= 1e-6 * max(abs(fine), 1e-30)

    def test_weight_permutation_consistency(self, rng):
        v, y, q, ecf, theta0 = _random_problem(rng, n=15)
        perm = rng.permutation(15)
        assert np.isclose(dtilde(theta0, v, q, ecf),
                          dtilde(theta0, v[perm], q[perm], ecf), rtol=1e-12)

    def test_sign_symmetry_no_intercept(self, rng):
        # +/- paired design and outcomes, no intercept: theta -> -theta invariant
        half_v = rng.normal(size=(8, 2))
        v = np.vstack([half_v, -half_v])
        half_y = rng.normal(size=8)
        y = np.concatenate([half_y, -half_y])
        q = np.full(16, 1.0 / 16)
        ecf = build_ecf(y)
        theta = rng.normal(size=2)
        assert np.isclose(dtilde(theta, v, q, ecf), dtilde(-theta, v, q, ecf),
                          rtol=1e-10, atol=1e-18)


class TestGradDtilde:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            v, y, q, ecf, theta0 = _random_problem(rng)
            theta = theta0 + 0.3 * rng.normal(size=3)
            grad = grad_dtilde(theta, v, q, ecf)
            fd = np.empty(3)
            for i in range(3):
                h = 1e-6 * (1.0 + abs(theta[i]))
                e = np.zeros(3)
                e[i] = h
                fd[i] = (dtilde(theta + e, v, q, ecf)
                         - dtilde(theta - e, v, q, ecf)) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * scale

    def test_zero_at_grid_search_minimum(self, rng):
        # one-parameter problem: golden-section minimum (derivative-free)
        from scipy.optimize import minimize_scalar
        v = rng.normal(size=(15, 1))
        y = (v @ [1.3]) + 0.05 * rng.normal(size=15)
        q = np.full(15, 1.0 / 15)
        ecf = build_ecf(y)
        grid = np.linspace(0.5, 2.0, 301)
        vals = [dtilde(np.array([b]), v, q, ecf) for b in grid]
        b0 = grid[int(np.argmin(vals))]
        res = minimize_scalar(lambda b: dtilde(np.array([b]), v, q, ecf),
                              bounds=(b0 - 0.01, b0 + 0.01), method="bounded",
                              options={"xatol": 1e-12})
        grad = grad_dtilde(np.array([res.x]), v, q, ecf)
        assert abs(grad[0]) <= 1e-6

    def test_dead_direction(self, rng):
        v = rng.normal(size=(12, 3))
        v[:, 1] = 0.0
        y = v @ [1.0, 0.0, -0.5] + 0.1 * rng.normal(size=12)
        q = np.full(12, 1.0 / 12)
        ecf = build_ecf(y)
        grad = grad_dtilde(rng.normal(size=3), v, q, ecf)
        assert grad[1] == 0.0

    def test_hessian_matches_gradient_differences(self, rng):
        v, y, q, ecf, theta0 = _random_problem(rng, n=12)
        _, hess = grad_and_hessian(theta0, v, q, ecf)
        assert np.allclose(hess, hess.T, atol=1e-14)
        fd = np.empty((3, 3))
        for i in range(3):
            h = 1e-6
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (grad_dtilde(theta0 + e, v, q, ecf)
                        - grad_dtilde(theta0 - e, v, q, ecf)) / (2 * h)
        assert np.max(np.abs(hess - fd)) <= 1e-4 * max(np.abs(fd).max(), 1e-12)


def _tied_sample(seed, n0, heavy):
    """A bootstrap resample of n0 draws: about a third of its rows repeat."""
    rng = np.random.default_rng(seed)
    base = rng.standard_t(2.5, size=n0) if heavy else rng.normal(size=n0)
    return base, rng.integers(0, n0, size=n0), rng


def _plain_t_star(y, step, cap):
    """First t = j step with |mean exp(i t y)| <= n^{-1/2}, by direct evaluation."""
    n_steps = int(np.floor(cap / step))
    t = np.arange(1, n_steps + 1) * step
    mod = np.abs(np.exp(1j * t[:, None] * y[None, :]).mean(axis=1))
    hit = np.nonzero(mod <= y.size ** -0.5)[0]
    return float(t[hit[0]]) if hit.size else float(n_steps * step)


class TestTiedFastPaths:
    """Count-weighted evaluation over distinct values against the plain formulas."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n0=st.integers(8, 150), heavy=st.booleans())
    def test_t_star_matches_direct_scan(self, seed, n0, heavy):
        base, idx, _ = _tied_sample(seed, n0, heavy)
        y = base[idx]
        sd = y.std(ddof=1)
        assume(sd > 0.0)
        step, cap = 0.01 / sd, 50.0 / sd
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert select_t_star(y, step=step, cap=cap) == _plain_t_star(y, step, cap)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n0=st.integers(2, 150), heavy=st.booleans())
    def test_ecf_matches_direct_means(self, seed, n0, heavy):
        base, idx, rng = _tied_sample(seed, n0, heavy)
        y = base[idx]
        t = rng.uniform(0.0, 5.0, size=16)
        c, s = ecf_values(y, t)
        ty = t[:, None] * y[None, :]
        # components are means of unit-modulus terms: atol matches rtol
        np.testing.assert_allclose(c, np.cos(ty).mean(axis=1), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(s, np.sin(ty).mean(axis=1), rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 60), k=st.integers(1, 5),
           n_schemes=st.integers(1, 4))
    def test_gradient_columns_match_single_calls(self, seed, n, k, n_schemes):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, k))
        y = v @ rng.normal(size=k) + 0.3 * rng.normal(size=n)
        assume(y.std() > 0.0)
        ecf = build_ecf(y)
        q = rng.dirichlet(np.ones(n), size=n_schemes).T
        theta = rng.normal(size=k)
        batched = grad_dtilde(theta, v, q, ecf)
        single = np.stack([grad_dtilde(theta, v, q[:, s], ecf) for s in range(n_schemes)])
        assert batched.shape == (n_schemes, k)
        np.testing.assert_allclose(batched, single, rtol=1e-12,
                                   atol=1e-12 * np.abs(single).max())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n0=st.integers(5, 150), k=st.integers(1, 5))
    def test_folded_weights_match_resampled_rows(self, seed, n0, k):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n0, k))
        y = v @ rng.normal(size=k) + 0.3 * rng.normal(size=n0)
        idx = rng.integers(0, n0, size=n0)
        assume(y[idx].std() > 0.0)
        ecf = build_ecf(y[idx])
        rows, first, counts = np.unique(idx, return_index=True, return_counts=True)
        # per-row weights: duplicates of one row share a weight
        raw = rng.uniform(0.5, 2.0, size=n0)[idx]
        q = raw / raw.sum()
        theta = rng.normal(size=k)
        full = grad_dtilde(theta, v[idx], q, ecf)
        folded = grad_dtilde(theta, v[rows], q[first] * counts, ecf)
        np.testing.assert_allclose(folded, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())
