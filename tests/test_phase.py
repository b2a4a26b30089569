import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import eivgmm.phase as phase_module
from eivgmm.acceptance import REFERENCE_EPS_VAR, REFERENCE_U_SCALE, _cfg
from eivgmm.errors import DegenerateInputError
from eivgmm.gmm import _outcome_counts, _resample_counts
from eivgmm.phase import (
    N_QUAD,
    T_CAP_SCALE,
    T_STEP_SCALE,
    EcfOutcome,
    _BootstrapPhase,
    _centered,
    _gl_rule,
    _scan_t_stars,
    _skip_lengths,
    grad_and_hessian,
    kernel,
)
from eivgmm.model_data import build_design
from eivgmm.simgen import ERROR_LAWS, SimConfig, gen_dataset
from eivgmm.study import _bootstrap_seed
import phase_oracles
from phase_oracles import (
    SHARED_ECF_ATOL,
    SHARED_GRAD_RTOL,
    PhaseUndefinedError,
    build_ecf,
    dtilde,
    ecf_values,
    wepf,
)

#: grid points of every t* scan: t = j step, j = 1 .. N_SCAN_STEPS
N_SCAN_STEPS = round(T_CAP_SCALE / T_STEP_SCALE)


def phase_grad(theta, v, q, ecf):
    """Gradient of the phase discrepancy, as the optimizer evaluates it."""
    return grad_and_hessian(theta, v, q, ecf)[0]


def _max_gap(got, want):
    """Largest elementwise gap relative to the largest oracle component."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


#: node-pair tables against the direct per-row formulas: both round each
#: sin/cos argument once, so they agree to a few ulps of the largest term
PAIR_AGREEMENT = 1e-12
#: the curvature term against central differences of the Hessian (step
#: 1e-5 along a unit-scale direction; measured gaps up to 2e-9) and against
#: the direct per-row third-derivative formula (measured up to 2e-15)
CURV_FD_RTOL = 1e-7
CURV_DIRECT_RTOL = 1e-11


class TestSelectTStar:
    def test_two_point_closed_form(self):
        # |ecf| = |cos t| first reaches 2^{-1/2} at pi/4
        y = np.array([-1.0, 1.0])
        t = build_ecf(y).t_star
        step = 0.01 / y.std(ddof=1)
        assert abs(t - np.pi / 4) <= step + 1e-12

    def test_standard_normal_band(self):
        # the noise-floor rule crosses near the analytic solution of
        # exp(-t^2/2) = n^{-1/2} (2.49 at n=500); sampling noise puts the first
        # crossing in a band around it, never far below
        rng = np.random.default_rng(2718)
        analytic = np.sqrt(2.0 * np.log(np.sqrt(500)))
        ts = np.array([build_ecf(rng.standard_normal(500)).t_star for _ in range(50)])
        assert np.all(ts >= analytic - 0.6)
        assert 2.3 <= np.median(ts) <= 3.5

    def test_crossing_brackets_threshold(self, rng):
        y = rng.standard_normal(400)
        t = build_ecf(y).t_star
        step = 0.01 / y.std(ddof=1)
        c1, s1 = ecf_values(y, t)
        assert np.hypot(c1, s1)[0] <= 400 ** -0.5 + 1e-12
        c0, s0 = ecf_values(y, t - step)
        assert np.hypot(c0, s0)[0] > 400 ** -0.5

    def test_cap_fallback_warns(self):
        # two-point lattice outcomes: |ecf| is periodic and never settles
        # below the noise floor, so the scan returns the cap and flags it
        y = np.array([0.0] * 90 + [1.0] * 10)
        ecf = build_ecf(y)
        assert ecf.capped
        assert np.isclose(ecf.t_star, 50.0 / y.std(ddof=1), rtol=1e-6)
        assert not build_ecf(np.arange(100.0)).capped

    @pytest.mark.parametrize("scale", [0.5025, 0.50625, 1.0, 2.0])
    def test_cap_is_a_fixed_step_count(self, scale):
        # the cap is grid point N_SCAN_STEPS whatever the last bit of sd;
        # counted as floor(cap / step), it lost a step at the first two scales
        y = scale * np.array([0.0] * 90 + [1.0] * 10)
        ecf = build_ecf(y)
        assert ecf.capped
        assert ecf.t_star == N_SCAN_STEPS * (T_STEP_SCALE / _ecf_sd(y))

    def test_constant_outcome_raises(self):
        with pytest.raises(DegenerateInputError):
            build_ecf(np.ones(10))


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
        with pytest.raises(PhaseUndefinedError):
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
        ecf = build_ecf(y)
        nodes, quad_w = _gl_rule(128)
        grid = 0.5 * ecf.t_star * (nodes + 1.0)
        c_y, s_y = ecf_values(y, grid)
        ecf_128 = EcfOutcome(grid=grid, quad_w=0.5 * ecf.t_star * quad_w, c_y=c_y, s_y=s_y,
                             t_star=ecf.t_star)
        base = dtilde(theta0, v, q, ecf)
        fine = dtilde(theta0, v, q, ecf_128)
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
            grad = phase_grad(theta, v, q, ecf)
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
        grad = phase_grad(np.array([res.x]), v, q, ecf)
        assert abs(grad[0]) <= 1e-6

    def test_dead_direction(self, rng):
        v = rng.normal(size=(12, 3))
        v[:, 1] = 0.0
        y = v @ [1.0, 0.0, -0.5] + 0.1 * rng.normal(size=12)
        q = np.full(12, 1.0 / 12)
        ecf = build_ecf(y)
        grad = phase_grad(rng.normal(size=3), v, q, ecf)
        assert grad[1] == 0.0

    def test_hessian_matches_gradient_differences(self, rng):
        v, y, q, ecf, theta0 = _random_problem(rng, n=12)
        _, hess, _ = grad_and_hessian(theta0, v, q, ecf)
        assert np.allclose(hess, hess.T, atol=1e-14)
        fd = np.empty((3, 3))
        for i in range(3):
            h = 1e-6
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (phase_grad(theta0 + e, v, q, ecf)
                        - phase_grad(theta0 - e, v, q, ecf)) / (2 * h)
        assert np.max(np.abs(hess - fd)) <= 1e-4 * max(np.abs(fd).max(), 1e-12)


def _tied_sample(seed, n0, heavy):
    """A bootstrap resample of n0 draws: about a third of its rows repeat."""
    rng = np.random.default_rng(seed)
    base = rng.standard_t(2.5, size=n0) if heavy else rng.normal(size=n0)
    return base, rng.integers(0, n0, size=n0), rng


def _plain_t_star(y, step):
    """First t = j step with |mean exp(i t y)| <= n^{-1/2}, by direct evaluation
    over every row, 256 grid points at a time; returns (t*, capped)."""
    for start in range(1, N_SCAN_STEPS + 1, 256):
        t = np.arange(start, min(start + 256, N_SCAN_STEPS + 1)) * step
        mod = np.abs(np.exp(1j * t[:, None] * y[None, :]).mean(axis=1))
        hit = np.nonzero(mod <= y.size ** -0.5)[0]
        if hit.size:
            return float(t[hit[0]]), False
    return float(N_SCAN_STEPS * step), True


def _rotation_block(vals, step, start, length):
    """exp(i j step vals) for j = start .. start + length - 1 by cumulative
    rotation: one exp, then complex products."""
    block = np.broadcast_to(np.exp(1j * step * vals), (length, vals.size)).copy()
    block[0] = np.exp(1j * (start * step) * vals)
    np.cumprod(block, axis=0, out=block)
    return block


def _chunked_t_star(y, step, chunk=512):
    """The dense scan: whole 512-point chunks of rotated distinct values,
    count-weighted, tested as re^2 + im^2 <= 1/n; returns (t*, capped)."""
    n = y.size
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    for start in range(1, N_SCAN_STEPS + 1, chunk):
        mean = (_rotation_block(vals, step, start, min(chunk, N_SCAN_STEPS + 1 - start))
                @ counts) / n
        hit = np.nonzero(mean.real**2 + mean.imag**2 <= 1.0 / n)[0]
        if hit.size:
            return float((start + hit[0]) * step), False
    return float(N_SCAN_STEPS * step), True


def _ecf_sd(y):
    """sd(y) (ddof=1) as build_ecf takes it: from the distinct values and
    their counts."""
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    n = counts.sum()
    d = vals - (counts @ vals) / n
    return np.sqrt((counts @ d**2) / (n - 1.0))


def _centered_counts(y):
    """Centered distinct values of y and their counts (float), as build_ecf
    passes them to the scan."""
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    return vals - (counts @ vals) / y.size, counts


def _skip_t_star(y, step):
    return phase_oracles.scan_t_star(*_centered_counts(y), y.size, step)


#: bound on how far the three scans' |ecf|^2 may differ at one grid point.
#: Observed: at most 3.8e-16 over 936 crossing and pre-crossing points of
#: 600 samples like those below (n 30..2000), whose |ecf|^2 stayed at least
#: 2.4e-8 from the floor 1/n, so the three scans pick the same point.
MOD_SQ_AGREEMENT = 1e-13


def _mod_sq_three_ways(y, step, j, chunk=512):
    """|ecf(j step)|^2 as the skip scan (the counts / n row of skip_rule's
    3-row basis times the cos/sin view of the direct exp of centered distinct
    values), the chunked scan (rotation from its chunk start) and the plain
    oracle (direct exp over every row) evaluate it."""
    n = y.size
    vals, counts = np.unique(y, return_counts=True)
    counts = counts.astype(float)
    d = vals - (counts @ vals) / n
    basis = np.stack([counts, counts * d, counts * d**2]) / n
    e = np.exp(1j * (j * step) * d)
    re, im = (basis @ e.view(float).reshape(-1, 2))[0].tolist()
    start = 1 + (j - 1) // chunk * chunk
    rotated = _rotation_block(vals, step, start, j - start + 1)[-1] @ counts / n
    plain = np.exp(1j * (j * step) * y).mean()
    return np.array([re * re + im * im, abs(rotated) ** 2, abs(plain) ** 2])


def _scan_sample(law, tied, seed, n):
    """n outcomes: normal, t2.5, 10%-contaminated normal (sd x10), or a
    lattice with one atom of mass >= 0.7, whose |ecf| >= 0.4 never reaches
    the floor; tied draws a bootstrap resample of the sample."""
    rng = np.random.default_rng(seed)
    if law == "normal":
        y = rng.normal(size=n)
    elif law == "t2_5":
        y = rng.standard_t(2.5, size=n)
    elif law == "contaminated":
        y = np.where(rng.random(n) < 0.1, 10.0, 1.0) * rng.normal(size=n)
    else:
        k = rng.integers(1, int(rng.integers(2, 6)), size=n)
        k[: int(np.ceil(0.7 * n))] = 0
        y = rng.uniform(0.1, 3.0) * rng.permutation(k) + rng.normal()
    return y[rng.integers(0, n, size=n)] if tied else y


class TestSkipScan:
    """The per-sample skip-ahead t* scan, the lockstep scan's oracle, against
    the chunked rotation scan and the plain direct scan it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=st.sampled_from(["normal", "t2_5", "contaminated", "lattice"]),
           tied=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(30, 2000))
    def test_matches_chunked_and_plain_oracles(self, law, tied, seed, n):
        y = _scan_sample(law, tied, seed, n)
        sd = _ecf_sd(y)
        step = T_STEP_SCALE / sd
        got = _skip_t_star(y, step)
        assert got == _chunked_t_star(y, step) == _plain_t_star(y, step)
        assert got[1] == (law == "lattice")
        ecf = build_ecf(y)
        assert got == (ecf.t_star, ecf.capped)
        if not got[1]:
            # the three evaluation orders agree to rounding at the crossing
            # and the point before it, and the floor is farther away than
            # that, so the three scans cannot disagree here
            j = round(got[0] / step)
            for point in range(max(j - 1, 1), j + 1):
                mod_sq = _mod_sq_three_ways(y, step, point)
                assert np.ptp(mod_sq) <= MOD_SQ_AGREEMENT
                assert np.all(np.abs(mod_sq - 1.0 / n) > MOD_SQ_AGREEMENT)

    @pytest.mark.parametrize("setting,law", [("III", "t2_5"), ("I", "normal"),
                                             ("simple", "contaminated_normal"),
                                             ("I", "t2_5")])
    def test_matches_chunked_on_bootstrap_resamples(self, setting, law):
        d, _ = gen_dataset(SimConfig(setting=setting, n=1000, n_rep=2, m_reps=1,
                                     error_law=law, seed=11), 0)
        for b in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([5, b]))
            y = d.y[rng.integers(0, d.n, size=d.n)]
            sd = _ecf_sd(y)
            ecf = build_ecf(y)
            assert (ecf.t_star, ecf.capped) == _chunked_t_star(y, T_STEP_SCALE / sd)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=st.sampled_from(["normal", "t2_5", "contaminated", "lattice"]),
           tied=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(30, 2000))
    def test_skip_passes_only_points_above_floor(self, law, tied, seed, n):
        # from grid points anywhere on the scan's range, before and after
        # the first crossing, every point the scan would pass over has
        # |ecf|^2 > 1/n by a dense evaluation
        y = _scan_sample(law, tied, seed, n)
        step = T_STEP_SCALE / _ecf_sd(y)
        d, counts = _centered_counts(y)
        skip = phase_oracles.skip_rule(d, counts, n)
        for j in np.random.default_rng(seed).integers(1, N_SCAN_STEPS, size=8):
            h = skip(j * step)
            if h is None:
                continue
            stop = min(j + max(1, int(h / step * (1.0 - 1e-9))), N_SCAN_STEPS + 1)
            for start in range(j + 1, stop, 512):
                t = np.arange(start, min(start + 512, stop)) * step
                re, im = phase_oracles.ecf_from_counts(d, counts, n, t)
                assert np.all(re**2 + im**2 > 1.0 / n)

    @pytest.mark.parametrize("setting,law", [("III", "t2_5"), ("I", "normal"),
                                             ("simple", "contaminated_normal"),
                                             ("I", "t2_5")])
    def test_fewer_evaluations_than_second_order_oracle(self, monkeypatch, setting, law):
        # one exp per evaluation in either scan: the third-order bound skips
        # far enough to save at least 40% of them (measured 44-51%) and
        # finds the same crossings
        d, _ = gen_dataset(SimConfig(setting=setting, n=1000, n_rep=2, m_reps=1,
                                     error_law=law, seed=11), 0)
        exp = np.exp
        calls = 0

        def counting_exp(x):
            nonlocal calls
            calls += 1
            return exp(x)

        monkeypatch.setattr(np, "exp", counting_exp)
        n_skip = n_oracle = 0
        for b in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([5, b]))
            y = d.y[rng.integers(0, d.n, size=d.n)]
            vals, counts = np.unique(y, return_counts=True)
            counts = counts.astype(float)
            step = T_STEP_SCALE / _ecf_sd(y)
            start = calls
            got = phase_oracles.scan_t_star(*_centered_counts(y), d.n, step)
            n_skip += calls - start
            start = calls
            assert got == phase_oracles.second_order_scan(vals, counts, d.n, step)
            n_oracle += calls - start
        assert n_skip <= 0.6 * n_oracle


class TestTiedFastPaths:
    """Count-weighted evaluation over distinct values against the plain formulas."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n0=st.integers(8, 150), heavy=st.booleans())
    def test_t_star_matches_direct_scan(self, seed, n0, heavy):
        base, idx, _ = _tied_sample(seed, n0, heavy)
        y = base[idx]
        sd = y.std(ddof=1)
        assume(sd > 0.0)
        step = 0.01 / sd
        assert _skip_t_star(y, step) == _plain_t_star(y, step)

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
        # one bootstrap block with a weight column per scheme, on the shared
        # tables (sized for 100 resamples, so they pay), against one
        # optimizer gradient per column
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, k))
        y = v @ rng.normal(size=k) + 0.3 * rng.normal(size=n)
        assume(y.std() > 0.0)
        ecf = build_ecf(y)
        q = rng.dirichlet(np.ones(n), size=n_schemes)
        theta = rng.normal(size=k)
        vals, counts = np.unique(y, return_counts=True)
        t_stars = np.full(100, ecf.t_star)
        phase = _BootstrapPhase(v, theta, vals, t_stars)
        assert phase.n_cheb > 0
        c_y, s_y, batched = phase.block(t_stars[:1], counts[None] / n, q[None])
        assert np.max(np.abs(np.concatenate([c_y[0] - ecf.c_y, s_y[0] - ecf.s_y]))) <= SHARED_ECF_ATOL
        single = np.stack([phase_grad(theta, v, q[s], ecf) for s in range(n_schemes)])
        assert batched.shape == (1, n_schemes, k)
        assert _max_gap(batched[0], single) <= SHARED_GRAD_RTOL

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
        full = phase_grad(theta, v[idx], q, ecf)
        folded = phase_grad(theta, v[rows], q[first] * counts, ecf)
        np.testing.assert_allclose(folded, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())




class TestNodePairs:
    """Half tables over the symmetric node pairs, and the tie collapse of the
    phase gradient, against the direct 64-node formulas over every row."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(law=st.sampled_from(["normal", "t2_5", "contaminated", "lattice"]),
           seed=st.integers(0, 2**16), n=st.integers(30, 2000), k=st.integers(1, 5),
           n_schemes=st.integers(1, 3))
    def test_matches_direct_formulas(self, law, seed, n, k, n_schemes):
        rng = np.random.default_rng(seed + 1)
        v = rng.normal(size=(n, k))
        theta = rng.normal(size=k)
        # a bootstrap resample: about a third of the rows are repeats, and
        # lattice outcomes tie on top of that
        y = v @ theta + _scan_sample(law, False, seed, n)
        idx = rng.integers(0, n, size=n)
        vb, yb = v[idx], y[idx]
        ecf = build_ecf(yb)
        tv = ecf.grid[:, None] * yb[None, :]
        assert _max_gap(np.concatenate([ecf.c_y, ecf.s_y]),
                        np.concatenate([np.cos(tv).mean(axis=1),
                                        np.sin(tv).mean(axis=1)])) <= PAIR_AGREEMENT

        q = rng.dirichlet(np.ones(n), size=n_schemes).T
        for col in range(n_schemes):
            grad, hess, _ = grad_and_hessian(theta, vb, q[:, col], ecf)
            grad_ref, hess_ref = phase_oracles.grad_and_hessian(theta, vb, q[:, col], ecf)
            assert _max_gap(grad, grad_ref) <= PAIR_AGREEMENT
            assert _max_gap(hess, hess_ref) <= PAIR_AGREEMENT

    def test_nodes_pair_up_exactly(self):
        nodes, quad_w = _gl_rule(N_QUAD)
        half = N_QUAD // 2
        assert np.array_equal(nodes[:half], -nodes[half:][::-1])
        assert np.all(nodes[half:] > 0.0)


class TestCurvature:
    """curv(u), the derivative of the phase Hessian along u, from the node-pair
    tables of grad_and_hessian."""

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_matches_hessian_differences_and_direct_formula(self, setting, law):
        d, _ = gen_dataset(SimConfig(setting=setting, n=300, n_rep=2, m_reps=1,
                                     error_law=law, seed=41), 0)
        v = build_design(d).v
        rng = np.random.default_rng(7)
        # near the least-squares index, where the optimizer evaluates it
        theta = np.linalg.lstsq(v, d.y, rcond=None)[0] + 0.05 * rng.normal(size=v.shape[1])
        q = rng.dirichlet(np.ones(d.n))
        ecf = build_ecf(d.y)
        curv = grad_and_hessian(theta, v, q, ecf)[2]
        for _ in range(3):
            u = rng.normal(size=theta.size)
            got = curv(u)
            assert _max_gap(got, got.T) <= 1e-14
            h = 1e-5
            fd = (grad_and_hessian(theta + h * u, v, q, ecf)[1]
                  - grad_and_hessian(theta - h * u, v, q, ecf)[1]) / (2 * h)
            assert _max_gap(got, fd) <= CURV_FD_RTOL
            want = phase_oracles.hessian_derivative(theta, v, q, ecf, u)
            assert _max_gap(got, want) <= CURV_DIRECT_RTOL


def _pass_counts(y, b, seed):
    """Distinct outcomes of y and the (1 + b, n_y) outcome counts of y (row
    0) and of b resamples of it, drawn and counted as the bootstrap pass
    draws them."""
    y_vals, y_inv = np.unique(y, return_inverse=True)
    counts = np.vstack([np.ones((1, y.size)), _resample_counts(seed, b, y.size)])
    return y_vals, _outcome_counts(counts, y_inv, y_vals.size)


def _oracle_scans(y_vals, y_counts):
    """Each row's (t*, capped) from its own exact scan, None for a constant row."""
    out = []
    for row in y_counts:
        held = row > 0.0
        try:
            out.append(phase_oracles.t_star_from_counts(y_vals[held], row[held]))
        except DegenerateInputError:
            out.append(None)
    return out


def _lockstep_scans(y_vals, y_counts):
    """_scan_t_stars's rows in the oracle's form."""
    t_stars, capped, errors = _scan_t_stars(y_vals, y_counts)
    assert all(err is None or isinstance(err, DegenerateInputError) for err in errors)
    return [None if err is not None else (float(t), bool(cap))
            for t, cap, err in zip(t_stars, capped, errors)]


def _t0(y_vals, y_counts):
    """The lockstep scan's first interval end, 2 sqrt(ln n) / sd of row 0."""
    n = y_counts[0].sum()
    held = y_counts[0] > 0.0
    return 2.0 * np.sqrt(np.log(n)) / _centered(y_vals[held], y_counts[0, held])[2]


def _recording_cheb_rule(monkeypatch):
    """Patch the Chebyshev rule of the scan tables to record each (lo, hi, n_cheb)."""
    built = []
    rule = phase_module._cheb_rule

    def recording(lo, hi, n_cheb):
        built.append((lo, hi, n_cheb))
        return rule(lo, hi, n_cheb)

    monkeypatch.setattr(phase_module, "_cheb_rule", recording)
    return built


def _outlier_y():
    """Setting I outcomes, n = 300, with y[7] moved to 1e6."""
    d, _ = gen_dataset(SimConfig(setting="I", n=300, n_rep=2, m_reps=1, seed=31), 0)
    y = d.y.copy()
    y[7] = 1e6
    return y


#: the gross-outlier pass (setting I, n = 300, one y = 1e6, B = 100): no
#: scan table may exceed this many Chebyshev points, nor the scan's
#: tracemalloc peak this many bytes (measured: 34 points and 1.2 MiB; with
#: every value in the tables a table needs about 10^6 points, and with cuts
#: only at the values' own magnitudes 18054 points and 27 MiB)
OUTLIER_MAX_CHEB = 256
OUTLIER_PEAK_BYTES = 4 * 2**20


class TestLockstepScan:
    """Every sample's t* from one lockstep pass over shared Chebyshev tables
    against each sample's own exact scan (phase_oracles.t_star_from_counts):
    (t*, capped) identical, the floats compared with ==."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=st.sampled_from(["normal", "t2_5", "contaminated", "lattice"]),
           tied=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(30, 2000))
    def test_matches_exact_scans(self, law, tied, seed, n):
        y = _scan_sample(law, tied, seed, n)
        y_vals, y_counts = _pass_counts(y, 8, seed)
        got = _lockstep_scans(y_vals, y_counts)
        assert got == _oracle_scans(y_vals, y_counts)
        assert got[0][1] == (law == "lattice")

    def test_crossing_intervals_past_t0(self, monkeypatch):
        # row 0 holds 5% of values at +-40, so its sd sets T0 near 0.5; row
        # 1 holds only the central values, whose |phi| meets the floor near
        # t = 2.5, in the fourth interval [4 T0, 8 T0]
        rng = np.random.default_rng(4)
        y = np.concatenate([rng.normal(size=475), 40.0 * rng.choice([-1.0, 1.0], size=25)])
        y_vals, y_inv = np.unique(y, return_inverse=True)
        central = np.flatnonzero(np.abs(y) < 10.0)
        counts = np.vstack([np.ones(y.size),
                            np.bincount(rng.choice(central, size=y.size), minlength=y.size)])
        y_counts = _outcome_counts(counts, y_inv, y_vals.size)
        built = _recording_cheb_rule(monkeypatch)
        got = _lockstep_scans(y_vals, y_counts)
        assert got == _oracle_scans(y_vals, y_counts)
        t0 = _t0(y_vals, y_counts)
        assert got[1][0] > 4.0 * t0 and not got[1][1]
        assert max(lo for lo, _, _ in built) >= 4.0 * t0 * (1.0 - 1e-12)

    def test_constant_row_gets_its_error(self):
        rng = np.random.default_rng(8)
        y_vals = np.sort(rng.normal(size=50))
        y_counts = np.vstack([np.ones(50), np.bincount([7] * 50, minlength=50),
                              np.bincount(rng.integers(0, 50, size=50), minlength=50)])
        t_stars, capped, errors = _scan_t_stars(y_vals, y_counts.astype(float))
        assert isinstance(errors[1], DegenerateInputError)
        assert "outcome is constant" in str(errors[1])
        assert np.isnan(t_stars[1]) and not capped[1]
        assert errors[0] is None and errors[2] is None
        assert _lockstep_scans(y_vals, y_counts) == _oracle_scans(y_vals, y_counts)

    def test_near_floor_branch_keeps_t_star(self, monkeypatch):
        # a margin of 1 sends every evaluation to the exact branch, which
        # must then decide every crossing as the interpolated one did
        d, _ = gen_dataset(SimConfig(setting="I", n=300, n_rep=2, m_reps=1,
                                     error_law="t2_5", seed=9), 0)
        y_vals, y_counts = _pass_counts(d.y, 20, 3)
        want = _lockstep_scans(y_vals, y_counts)
        exact = phase_module._exact_mod_sq
        calls = []

        def counting(vals, counts, t):
            calls.append(t)
            return exact(vals, counts, t)

        monkeypatch.setattr(phase_module, "_exact_mod_sq", counting)
        assert _lockstep_scans(y_vals, y_counts) == want
        assert not calls
        monkeypatch.setattr(phase_module, "_FLOOR_MARGIN", 1.0)
        assert _lockstep_scans(y_vals, y_counts) == want == _oracle_scans(y_vals, y_counts)
        assert len(calls) >= y_counts.shape[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(law=st.sampled_from(["normal", "t2_5", "contaminated", "lattice"]),
           tied=st.booleans(), seed=st.integers(0, 2**16), n=st.integers(30, 2000),
           own_mean=st.booleans())
    def test_skip_lengths_pass_only_points_above_floor(self, law, tied, seed, n, own_mean):
        # the vector skip rule, from exact sums about the global center (or
        # moved to the sample's own mean, as the scan moves them), at grid
        # points anywhere on the scan's range: every point it passes over
        # has |ecf|^2 > 1/n by a dense evaluation
        y = _scan_sample(law, tied, seed, n)
        vals, counts = np.unique(y, return_counts=True)
        counts = counts.astype(float)
        mean, d, sd = _centered(vals, counts)
        step = T_STEP_SCALE / sd
        c = vals - vals.mean()
        mu = mean - vals.mean() if own_mean else 0.0
        dist = np.abs(c - mu)
        m2, m3 = counts @ dist**2 / n, counts @ dist**3 / n
        j = np.random.default_rng(seed).integers(1, N_SCAN_STEPS, size=8)
        e = np.exp(1j * (j * step)[:, None] * c) * counts / n
        s0, s1, s2 = e.sum(axis=1), e @ c, e @ c**2
        sums = np.stack([s0, s1 - mu * s0, s2 - 2.0 * mu * s1 + mu * mu * s0], axis=1)
        h = _skip_lengths(sums, np.full(8, m2), np.full(8, m3), n**-0.5, np.zeros((8, 3)))
        for jj, hh in zip(j.tolist(), h.tolist()):
            stop = min(jj + max(1, int(hh / step * (1.0 - 1e-9))), N_SCAN_STEPS + 1)
            for start in range(jj + 1, stop, 512):
                t = np.arange(start, min(start + 512, stop)) * step
                re, im = phase_oracles.ecf_from_counts(d, counts, n, t)
                assert np.all(re**2 + im**2 > 1.0 / n)

    def test_gross_outlier(self, monkeypatch):
        # an outcome at 1e6 moves the global center to about 3.3e3: the
        # resamples that leave it out hold every value near |c| = 3.3e3, and
        # the cut keeps them out of the wide intervals' tables
        y_vals, y_counts = _pass_counts(_outlier_y(), 100, 5)
        built = _recording_cheb_rule(monkeypatch)
        got = _lockstep_scans(y_vals, y_counts)
        assert got == _oracle_scans(y_vals, y_counts)
        assert max(n_cheb for _, _, n_cheb in built) <= OUTLIER_MAX_CHEB
        tracemalloc.start()
        try:
            _scan_t_stars(y_vals, y_counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= OUTLIER_PEAK_BYTES

    @pytest.mark.slow
    def test_matches_exact_scans_on_benchmark_and_grid_inputs(self):
        # every sample of perfbench's replication workload (slots 0-15,
        # replications 0-5, B = 100) and of the four acceptance-grid
        # criteria at M = 20, B = 25, at the benchmark's and the default
        # seed, drawn as the bootstrap pass draws them
        cases = [(SimConfig(setting="III", n=1000, n_rep=2, error_law="t2_5", rho=0.5,
                            seed=20251017 + slot, sigma_eps_sq=REFERENCE_EPS_VAR,
                            u_scale=REFERENCE_U_SCALE), range(6), 100) for slot in range(16)]
        for seed in (20251017, 20250810):
            cases += [(_cfg("I", 1000, "normal", 0.5, 20, seed), range(20), 25),
                      (_cfg("I", 1000, "t2_5", 0.0, 20, seed), range(20), 25),
                      (SimConfig(setting="simple", n=1000, n_rep=2, m_reps=20,
                                 error_law="contaminated_normal", seed=seed), range(20), 25),
                      (_cfg("I", 500, "normal", 0.5, 20, seed), range(20), 25)]
        rows = 0
        for cfg, reps, b in cases:
            for m in reps:
                y_vals, y_counts = _pass_counts(gen_dataset(cfg, m)[0].y, b,
                                                _bootstrap_seed(cfg, m))
                assert _lockstep_scans(y_vals, y_counts) == _oracle_scans(y_vals, y_counts)
                rows += y_counts.shape[0]
        assert rows == 16 * 6 * 101 + 2 * 4 * 20 * 26
