import dataclasses
import functools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

import eivgmm.gmm as gmm_module
import eivgmm.phase as phase_module
import eivgmm.weights as weights_module
from eivgmm.covariance import estimate_covariances, pooled_error_covariance
from eivgmm.errors import (
    BootstrapInstabilityError,
    DegenerateCovarianceError,
    DegenerateInputError,
    EivError,
    StandardErrorError,
    WeightSolveError,
)
from eivgmm.gmm import (
    MAX_BOOT_FAILURE_FRAC,
    _bootstrap_accumulate,
    _floor_eigh,
    _levenberg_marquardt,
    _stacked_equations,
    fit_gmm_multi,
    gmm_standard_errors,
)
from eivgmm.model_data import build_design, make_dataset
from eivgmm.moment_correction import corrected_l2, fit_mc, fit_ols, grad_corrected_l2
from eivgmm.phase import (
    N_QUAD,
    EcfOutcome,
    _BootstrapPhase,
    _NodePairs,
    _t_star_from_counts,
    grad_and_hessian,
)
from eivgmm.simgen import ERROR_LAWS, SimConfig, gen_dataset
from eivgmm.weights import SCHEMES
from conftest import fail_minimax, full_sample_weights, toy_dataset
from gmm_oracles import gauss_newton_lm, resample_counts
from phase_oracles import SHARED_ECF_ATOL, SHARED_GRAD_RTOL, build_ecf, dtilde, node_pair_grad


def prepared(rng, **kw):
    d, x = toy_dataset(rng, **kw)
    sigma_j = estimate_covariances(d)
    design = build_design(d)
    mc = fit_mc(d, sigma_j, design)
    weights = full_sample_weights("minimax", sigma_j, design.v[:, :d.p], d.n_rep)
    ecf = build_ecf(d.y)
    return d, sigma_j, design, mc, weights, ecf


def stacked(theta, d, sigma_j, design, mc, weights, ecf):
    """(s, J, curv) of the stacked equations, as the optimizer evaluates them."""
    sig_w = pooled_error_covariance(sigma_j, d.n_rep)
    return _stacked_equations(theta, design.v, d.y, sig_w, 2.0 / d.n * mc.gram,
                              weights.q, ecf)


def scheme_omega(d, theta, b, seed, scheme, design=None, sigma_j=None):
    """Eigenvalue-floored bootstrap covariance of one scheme's stacked equations."""
    design = build_design(d) if design is None else design
    sigma_j = estimate_covariances(d) if sigma_j is None else sigma_j
    out = _bootstrap_accumulate(d, theta, b, seed, (scheme,), design, sigma_j)[1][scheme]
    if isinstance(out, EivError):
        raise out
    return out[0]


class TestStackedGradient:
    def test_mc_block_zero_at_mc_solution(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=50)
        s, _, _ = stacked(mc.theta, d, sigma_j, design, mc, weights, ecf)
        k = d.p + d.q + 1
        assert np.max(np.abs(s[:k])) <= 1e-8

    def test_dimensions(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=60, p=2, q=2)
        s, jac, _ = stacked(mc.theta, d, sigma_j, design, mc, weights, ecf)
        assert s.shape == (10,)
        assert jac.shape == (10, 5)

    def test_jacobian_matches_central_differences(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=40)
        k = d.p + d.q + 1
        theta = mc.theta.theta + 0.2 * rng.normal(size=k)
        _, jac, _ = stacked(theta, d, sigma_j, design, mc, weights, ecf)
        fd = np.empty((2 * k, k))
        for i in range(k):
            h = 1e-6 * (1.0 + abs(theta[i]))
            e = np.zeros(k)
            e[i] = h
            fd[:, i] = (stacked(theta + e, d, sigma_j, design, mc, weights, ecf)[0]
                        - stacked(theta - e, d, sigma_j, design, mc, weights, ecf)[0]) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_matches_joint_finite_differences(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=40)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        k = d.p + d.q + 1
        theta = mc.theta.theta + 0.2 * rng.normal(size=k)
        s, _, _ = stacked(theta, d, sigma_j, design, mc, weights, ecf)
        fd = np.empty(2 * k)
        for i in range(k):
            h = 1e-6 * (1.0 + abs(theta[i]))
            e = np.zeros(k)
            e[i] = h
            fd[i] = (corrected_l2(theta + e, design.v, d.y, sig_w)
                     - corrected_l2(theta - e, design.v, d.y, sig_w)) / (2 * h)
            fd[k + i] = (dtilde(theta + e, design.v, weights.q, ecf)
                         - dtilde(theta - e, design.v, weights.q, ecf)) / (2 * h)
        assert np.max(np.abs(s - fd)) <= 1e-5 * max(1.0, np.abs(fd).max())


class TestBootstrapOmega:
    def test_deterministic(self, rng):
        d, sigma_j, design, mc, _, _ = prepared(rng, n=40)
        o1 = scheme_omega(d, mc.theta, 30, seed=9, scheme="equal")
        o2 = scheme_omega(d, mc.theta, 30, seed=9, scheme="equal")
        assert np.array_equal(o1, o2)
        o3 = scheme_omega(d, mc.theta, 30, seed=10, scheme="equal")
        assert not np.array_equal(o1, o3)

    def test_symmetric_psd(self, rng):
        d, sigma_j, design, mc, _, _ = prepared(rng, n=45)
        for scheme in ("equal", "minimax", "quasi_likelihood"):
            omega = scheme_omega(d, mc.theta, 30, seed=3, scheme=scheme)
            assert np.allclose(omega, omega.T)
            assert np.linalg.eigvalsh(omega).min() > 0

    def test_floor_is_unit_free(self, rng):
        # a covariance with eigenvalues below the floor, its equations in
        # units 1e-3 .. 1e3 apart: rescaling the equations rescales the
        # floored matrix and its inverse alike
        a = rng.normal(size=(6, 3))
        omega = a @ a.T + 1e-14 * np.eye(6)
        d = np.diag([1e-3, 1e-2, 1.0, 1.0, 1e2, 1e3])
        floored, inv = _floor_eigh(omega)
        got, got_inv = _floor_eigh(d @ omega @ d)
        np.testing.assert_allclose(np.diag(got), np.diag(d @ floored @ d), rtol=1e-12)
        assert_normwise_close(np.linalg.inv(d) @ got @ np.linalg.inv(d), floored, 1e-12)
        assert_normwise_close(d @ got_inv @ d, inv, 1e-8)
        assert np.linalg.eigvalsh(got).min() > 0.0

    def test_zero_variance_is_a_typed_error(self):
        with pytest.raises(DegenerateCovarianceError, match="non-positive variance"):
            _floor_eigh(np.diag([1.0, 0.0, 2.0]))

    def test_minimum_resamples_enforced(self, rng):
        d = prepared(rng, n=40)[0]
        with pytest.raises(ValueError, match="25"):
            fit_gmm_multi(d, ("equal",), b=10, seed=1)

    def test_instability_raises(self):
        # outcomes almost surely constant within a resample: the frequency
        # cutoff is undefined for most resamples
        y = np.concatenate([np.zeros(11), [1.0]])
        w = [np.array([[0.1 * j], [0.2 * j]]) for j in range(12)]
        d = make_dataset(y, np.empty((12, 0)), w)
        with pytest.raises(BootstrapInstabilityError):
            scheme_omega(d, np.array([0.5, 0.1]), 40, seed=2, scheme="equal")

    @pytest.mark.slow
    def test_variance_scales_inversely_with_n(self):
        # diagonal entries at n=2000 are about half those at n=1000
        ratios = []
        for m in range(25):
            diags = {}
            for n in (1000, 2000):
                cfg = SimConfig(setting="I", n=n, n_rep=2, m_reps=1,
                                error_law="normal", rho=0.0, seed=400 + m)
                d, _ = gen_dataset(cfg, m)
                sigma_j = estimate_covariances(d)
                design = build_design(d)
                mc = fit_mc(d, sigma_j, design)
                omega = scheme_omega(d, mc.theta, 30, seed=m, scheme="equal",
                                        design=design, sigma_j=sigma_j)
                diags[n] = np.diag(omega)
            ratios.append(np.median(diags[2000] / diags[1000]))
        assert 0.35 <= np.mean(ratios) <= 0.65


def loop_bootstrap(d, theta, b, seed, schemes, design, sigma_j):
    """Reference: every resample's full n rows, gathered, one weight vector
    and one phase gradient per scheme. Returns ({scheme: (omega, omega_inv,
    failures, events)}, per-resample (t*, capped))."""
    v, y = design.v, d.y
    n, p = d.n, d.p
    n_rep = d.n_rep.astype(float)
    dim = 2 * design.k
    acc = {s: np.zeros((dim, dim)) for s in schemes}
    mean_acc = {s: np.zeros(dim) for s in schemes}
    failures = {s: [] for s in schemes}
    events = {s: {"boot_capped": 0, "boot_ql_fallback": 0, "boot_ql_clamped": 0}
              for s in schemes}
    t_stars = []
    for idx_b in range(b):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx_b]))
        idx = rng.integers(0, n, size=n)
        vb, yb = v[idx], y[idx]
        sj, nr = sigma_j[idx], n_rep[idx]
        w_bar_b = vb[:, :p]
        try:
            ecf_b = build_ecf(yb)
            s_mc = grad_corrected_l2(theta, vb, yb, pooled_error_covariance(sj, nr))
        except EivError as exc:
            for s in schemes:
                failures[s].append((idx_b, str(exc)))
            continue
        t_stars.append((ecf_b.t_star, ecf_b.capped))
        for scheme in schemes:
            events[scheme]["boot_capped"] += int(ecf_b.capped)
            try:
                q_b = full_sample_weights(scheme, sj, w_bar_b, nr)
                s_vec = np.concatenate([s_mc, node_pair_grad(theta, vb, q_b.q, ecf_b)])
            except EivError as exc:
                failures[scheme].append((idx_b, str(exc)))
                continue
            events[scheme]["boot_ql_fallback"] += int(q_b.fallback)
            events[scheme]["boot_ql_clamped"] += int(q_b.max_clamp > 0.0)
            if not np.all(np.isfinite(s_vec)):
                failures[scheme].append((idx_b, "non-finite stacked gradient"))
                continue
            acc[scheme] += np.outer(s_vec, s_vec)
            mean_acc[scheme] += s_vec
    out = {}
    for scheme in schemes:
        n_bad = len(failures[scheme])
        if n_bad > MAX_BOOT_FAILURE_FRAC * b:
            out[scheme] = BootstrapInstabilityError(
                f"{n_bad}/{b} bootstrap resamples failed for scheme {scheme!r}; "
                f"first: {failures[scheme][0][1]}"
            )
            continue
        n_ok = b - n_bad
        mean = mean_acc[scheme] / n_ok
        omega, omega_inv = _floor_eigh(acc[scheme] / n_ok - np.outer(mean, mean))
        out[scheme] = (omega, omega_inv, failures[scheme], events[scheme])
    return out, t_stars


def batched_with_t_stars(monkeypatch, *args):
    """_bootstrap_accumulate's per-scheme outcomes plus the (t*, capped) of
    every sample whose t* scan succeeded: the full sample's first, then the
    resamples'."""
    t_stars = []

    def recording_scan(vals, counts):
        out = _t_star_from_counts(vals, counts)
        t_stars.append(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(gmm_module, "_t_star_from_counts", recording_scan)
        out = _bootstrap_accumulate(*args)[1]
    return out, t_stars


#: the batched bootstrap sums over multiplicities, and over globally centered
#: second moments, where the oracle sums over gathered rows: the same terms
#: in another order, so the two agree to rounding. Tolerances are normwise,
#: relative to the largest entry of the oracle's matrix, because entries of
#: omega span six orders of magnitude and its smallest ones carry the
#: absolute rounding of its largest. Each is a fixed bound set from the
#: largest gap measured over these inputs with the SkylakeX, Haswell and
#: Sandybridge OpenBLAS kernels: omega 3.1e-15 and its inverse 2.0e-11 for
#: equal and minimax weights (closed forms); for quasi-likelihood weights,
#: whose Woodbury solve amplifies the rounding, omega 6.1e-10 and its
#: inverse 1.0e-7 (cond(omega) up to 5e8).
OMEGA_RTOL = {"equal": 1e-12, "minimax": 1e-12, "quasi_likelihood": 1e-7}
OMEGA_INV_RTOL = {"equal": 1e-10, "minimax": 1e-10, "quasi_likelihood": 1e-6}


def assert_normwise_close(got, want, rtol):
    gap = np.max(np.abs(got - want))
    assert gap <= rtol * np.max(np.abs(want)), (gap, np.max(np.abs(want)), rtol)


def gmm_estimate(args, scheme, omega_inv):
    """The estimate fit_gmm_multi minimizes to for scheme with this inverse
    bootstrap covariance, from the bootstrap's initial estimate."""
    d, theta, _, _, _, design, sigma_j = args
    weights = full_sample_weights(scheme, sigma_j, design.v[:, :d.p], d.n_rep)
    resid_jac = functools.partial(
        _stacked_equations, v=design.v, y=d.y,
        sig_w=pooled_error_covariance(sigma_j, d.n_rep),
        jac_mc=2.0 / d.n * fit_mc(d, sigma_j, design).gram, q=weights.q, ecf=build_ecf(d.y))
    x, _, _, converged, _ = _levenberg_marquardt(resid_jac, omega_inv, theta)
    assert converged
    return x


def assert_same_bootstrap(args, batched, oracle, inv_rtol=None):
    """The batched bootstrap matches the loop oracle, and so do the
    estimates fitted with either inverse covariance; inv_rtol maps a scheme
    to a raised tolerance on its inverse for an ill-conditioned input."""
    inv_rtol = {**OMEGA_INV_RTOL, **(inv_rtol or {})}
    (got, got_t), (ref, ref_t) = batched, oracle
    # a sample's ECF comes from its distinct outcomes and their counts on
    # both sides, so every t* and capped flag is the same to the last bit,
    # the full sample's (scanned first) included
    full = build_ecf(args[0].y)
    assert got_t == [(full.t_star, full.capped)] + ref_t
    assert set(got) == set(ref)
    for scheme, want in ref.items():
        if isinstance(want, EivError):
            assert type(got[scheme]) is type(want) and str(got[scheme]) == str(want)
            continue
        omega, omega_inv, fails, events = want
        assert_normwise_close(got[scheme][0], omega, OMEGA_RTOL[scheme])
        assert_normwise_close(got[scheme][1], omega_inv, inv_rtol[scheme])
        assert got[scheme][2] == fails
        assert got[scheme][3].pop("boot_trig_nodes") > 0
        assert got[scheme][3] == events
        # the estimate fitted with either inverse, to perfbench's estimate
        # tolerance; the measured gaps are the optimizer's stopping point at
        # Q's rounding floor, not the weighting matrix
        np.testing.assert_allclose(gmm_estimate(args, scheme, got[scheme][1]),
                                   gmm_estimate(args, scheme, omega_inv),
                                   rtol=1e-6, atol=1e-7)


class TestBatchedBootstrap:
    """The multiplicity bootstrap against the per-resample, per-scheme loop
    over gathered rows."""

    @staticmethod
    def inputs(setting, law, seed=31, b=30):
        cfg = SimConfig(setting=setting, n=200, n_rep=2, m_reps=1, error_law=law, seed=seed)
        d, _ = gen_dataset(cfg, 0)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        mc = fit_mc(d, sigma_j, design)
        return d, mc.theta.theta, b, seed, SCHEMES, design, sigma_j

    @staticmethod
    def outlier_inputs():
        # one outcome of a setting I sample moved to 1e6: the index values
        # of the MC estimate reach 5e4 and the centered outcomes 1e6, and 17
        # of the 25 resamples' t* scans reach their cap
        cfg = SimConfig(setting="I", n=300, n_rep=2, m_reps=1, error_law="normal", seed=31)
        d0, _ = gen_dataset(cfg, 0)
        y = d0.y.copy()
        y[0] = 1e6
        d = make_dataset(y, d0.z[:, 1:], d0.w)
        sigma_j, design = estimate_covariances(d), build_design(d)
        return d, fit_mc(d, sigma_j, design).theta.theta, 25, 3, SCHEMES, design, sigma_j

    @staticmethod
    def ragged_inputs(p, seed, ragged=True, b=30):
        # no simulated setting has p > 2 or a replicate count other than
        # n_rep for every row: here n_j is drawn from {2, 3, 4} (or is 3 for
        # every row), and the measurement error has a per-row scale
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.exponential(1.0, size=(n, p))
        z = rng.normal(size=(n, 1))
        y = 1.0 + x @ np.linspace(1.0, 0.5, p) + 0.5 * z[:, 0] + 0.3 * rng.normal(size=n)
        n_j = rng.integers(2, 5, size=n) if ragged else np.full(n, 3)
        scale = rng.uniform(0.2, 0.6, size=n)
        w = [x[j] + scale[j] * rng.normal(size=(n_j[j], p)) for j in range(n)]
        d = make_dataset(y, z, w)
        sigma_j, design = estimate_covariances(d), build_design(d)
        return d, fit_mc(d, sigma_j, design).theta.theta, b, seed, SCHEMES, design, sigma_j

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_matches_loop(self, monkeypatch, setting, law):
        args = self.inputs(setting, law)
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args),
                              loop_bootstrap(*args))

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("p, ragged", [(1, True), (2, True), (3, True), (3, False)])
    def test_matches_loop_ragged_and_p3(self, monkeypatch, p, ragged, seed):
        # p = 3 takes the general branches of _top_eigenvalues and _inv_held
        args = self.ragged_inputs(p, seed, ragged)
        assert ragged == (np.unique(args[0].n_rep).size > 1)
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args),
                              loop_bootstrap(*args))

    @pytest.mark.parametrize("block", [1, 16])
    def test_matches_loop_partial_last_block(self, monkeypatch, block):
        # 37 resamples in blocks of 16 (a last block of 5) or of 1
        args = self.inputs("I", "t2_5", b=37)
        d = args[0]
        monkeypatch.setattr(gmm_module, "_BOOT_BLOCK_ROWS", block * d.n)
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args),
                              loop_bootstrap(*args))

    def test_matches_loop_with_failing_weights(self, monkeypatch):
        # the quasi-likelihood solve fails on resamples whose mean first
        # covariate lies above the full-sample mean (fallback to equal
        # weights), and minimax weighting fails outright on a few resamples
        args = self.inputs("I", "t2_5")
        d, design = args[0], args[5]
        cut = design.v[:, 0].mean()
        solve = weights_module._solve_ql_system

        def flaky_solve(counts, omega_inv, w_bar, gamma):
            q, lam, errors = solve(counts, omega_inv, w_bar, gamma)
            means = counts @ w_bar[:, 0] / counts.sum(axis=1)
            return q, lam, tuple(WeightSolveError("forced failure") if m > cut else err
                                 for m, err in zip(means, errors))

        monkeypatch.setattr(weights_module, "_solve_ql_system", flaky_solve)
        fail_minimax(monkeypatch, lambda sx, _: int(sx[0, 0] * 1e9) % 11 == 0)
        oracle = loop_bootstrap(*args)
        ref = oracle[0]
        assert 0 < len(ref["minimax"][2]) <= MAX_BOOT_FAILURE_FRAC * args[2]
        assert ref["equal"][2] == [] and ref["quasi_likelihood"][2] == []
        assert 0 < ref["quasi_likelihood"][3]["boot_ql_fallback"] < args[2]
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args), oracle)

    def test_matches_loop_with_nonfinite_gradient(self, monkeypatch):
        # the phase gradient is NaN on the three resamples with the largest
        # t*: every scheme fails there with a non-finite stacked gradient
        args = self.inputs("simple", "normal")
        t_sorted = sorted(t for t, _ in loop_bootstrap(*args)[1])
        t_cut = 0.5 * (t_sorted[-3] + t_sorted[-4])
        original_block, original_grad = _BootstrapPhase.block, node_pair_grad

        def flaky_block(self, t_star, y_w, q):
            c_y, s_y, grads = original_block(self, t_star, y_w, q)
            grads[t_star > t_cut] = np.nan
            return c_y, s_y, grads

        def flaky_grad(theta, design, weights, ecf):
            grad = original_grad(theta, design, weights, ecf)
            return grad * np.nan if ecf.t_star > t_cut else grad

        monkeypatch.setattr(_BootstrapPhase, "block", flaky_block)
        monkeypatch.setattr(sys.modules[__name__], "node_pair_grad", flaky_grad)
        oracle = loop_bootstrap(*args)
        for scheme in SCHEMES:
            fails = oracle[0][scheme][2]
            assert [msg for _, msg in fails] == ["non-finite stacked gradient"] * 3
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args), oracle)

    def test_matches_loop_with_constant_outcome_resamples(self, monkeypatch):
        # outcomes 0 on all rows but three: a resample that misses those
        # three has a constant outcome, and every scheme fails on it
        rng = np.random.default_rng(5)
        n = 60
        x = rng.exponential(1.0, size=(n, 1))
        w = x[:, None, :] + 0.3 * rng.normal(size=(n, 2, 1))
        y = np.zeros(n)
        y[:3] = [1.0, 2.0, 3.0]
        d = make_dataset(y, np.empty((n, 0)), list(w))
        sigma_j, design = estimate_covariances(d), build_design(d)
        args = (d, np.array([0.5, 0.1]), 60, 4, SCHEMES, design, sigma_j)
        # minimax weighting fails on exactly those resamples too: the failed
        # scan's message outranks the weight error's
        fail_minimax(monkeypatch, lambda sx, counts: counts[:3].sum() == 0)
        oracle = loop_bootstrap(*args)
        for scheme in SCHEMES:
            fails = oracle[0][scheme][2]
            assert 0 < len(fails) <= MAX_BOOT_FAILURE_FRAC * args[2]
            assert all(msg.startswith("outcome is constant") for _, msg in fails)
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args), oracle)

    def test_matches_loop_past_break_even(self, monkeypatch):
        # one row's surrogates shifted by 1e4 puts an index value a = v theta
        # near 1e4: T max|a - mean a| would call for far more Chebyshev
        # points than 30 resamples' exact sums over that one value take, so
        # it is left out of the shared tables and summed at each resample's
        # own nodes. Omega's standard deviations then span 1e6 .. 5e-3 and
        # its correlation matrix has eigenvalues down to 1.2e-7, above the
        # floor, so its inverse carries the rounding of omega's sums
        # amplified by that conditioning, on the correlation scale
        # D^{1/2} omega^{-1} D^{1/2} as much as on the raw one (there the
        # gaps are larger: 3.0e-10 .. 1.0e-8). Measured with the SkylakeX,
        # Haswell, Sandybridge, Nehalem and Katmai OpenBLAS kernels, the
        # equal-weight inverse differs by 4.3e-11 .. 1.6e-9 of its largest
        # entry, hence 5e-9 for that scheme alone; minimax stays within
        # 1e-10 (6.8e-11 at most) and quasi-likelihood within 1e-6. The
        # estimates fitted with either inverse agree to 1.8e-8.
        d0, theta, b, seed, schemes, _, _ = self.inputs("I", "normal")
        w = d0.w.copy()
        w[0, :, 0] += 1e4
        d = make_dataset(d0.y, d0.z[:, 1:], w)
        args = (d, theta, b, seed, schemes, build_design(d), estimate_covariances(d))
        phase = recorded_blocks(monkeypatch, args)[0][0]
        assert phase.far[0][0].size > 0
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args),
                              loop_bootstrap(*args), inv_rtol={"equal": 5e-9})

    def test_matches_loop_with_outlier(self, monkeypatch):
        # the mean centers move with the outlier, so all but two index
        # values and every outcome are left out of the shared tables here:
        # nearly every sum is an exact one
        args = self.outlier_inputs()
        phase = recorded_blocks(monkeypatch, args)[0][0]
        assert phase.far[0][0].size > 0 and phase.far[1][0].size > 0
        assert_same_bootstrap(args, batched_with_t_stars(monkeypatch, *args),
                              loop_bootstrap(*args))

    def test_resamples_drawn_once(self, monkeypatch):
        # 37 resamples in three blocks, drawn by one call
        args = self.inputs("I", "t2_5", b=37)
        monkeypatch.setattr(gmm_module, "_BOOT_BLOCK_ROWS", 16 * args[0].n)
        calls = []
        original = gmm_module._resample_counts

        def recording_counts(*count_args):
            calls.append(count_args)
            return original(*count_args)

        monkeypatch.setattr(gmm_module, "_resample_counts", recording_counts)
        _bootstrap_accumulate(*args)
        assert calls == [(args[3], args[2], args[0].n)]

    @pytest.mark.parametrize("n, b", [(1000, 100), (37, 30)])
    def test_resample_counts_match_flat_bincount(self, n, b):
        # one bincount per resample row against the stacked flat bincount
        got = gmm_module._resample_counts(11, b, n)
        want = resample_counts(11, b, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def recorded_blocks(monkeypatch, args):
    """Inputs and outputs of every _BootstrapPhase.block call that
    _bootstrap_accumulate makes, with the phase object it was made on."""
    calls = []
    original = _BootstrapPhase.block

    def recording_block(self, *block_args):
        out = original(self, *block_args)
        calls.append((self, block_args, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(_BootstrapPhase, "block", recording_block)
        _bootstrap_accumulate(*args)
    return calls


def node_pair_gaps(monkeypatch, args):
    """For each sample of one _bootstrap_accumulate call (all of them live,
    the full sample first): the largest gap of its outcome ECF from
    _BootstrapPhase.block to that from its own node-pair tables over the
    outcomes it holds, the largest gap of each scheme's phase gradient
    relative to that gradient's largest component, and t* max|c| over the
    centered index values and outcomes it holds."""
    d, theta, b, seed, _, design, _ = args
    y_vals = np.unique(d.y)
    nodes, quad_w = phase_module._gl_rule(N_QUAD)
    calls = recorded_blocks(monkeypatch, args)
    assert sum(len(call[1][0]) for call in calls) == b + 1
    counts = iter(np.vstack([np.ones((1, d.n)), gmm_module._resample_counts(seed, b, d.n)]))
    gaps = []
    for phase, (t_star, y_w, q), (c_y, s_y, grads) in calls:
        for i, t in enumerate(t_star):
            rows, held = np.flatnonzero(next(counts)), np.flatnonzero(y_w[i])
            cos_y, sin_y = _NodePairs(t, y_vals[held]).times(y_w[i, held, None])
            ecf_gap = np.max(np.abs(np.concatenate([c_y[i] - cos_y[:, 0], s_y[i] - sin_y[:, 0]])))
            ecf = EcfOutcome(grid=0.5 * t * (nodes + 1.0), quad_w=0.5 * t * quad_w,
                             c_y=cos_y[:, 0], s_y=sin_y[:, 0], t_star=t)
            want = node_pair_grad(theta, design.v[rows], q[i][:, rows].T, ecf)
            grad_gap = max(np.max(np.abs(got_s - want_s)) / np.max(np.abs(want_s))
                           for got_s, want_s in zip(grads[i], want))
            c = np.concatenate([design.v[rows] @ theta - phase.centers[0],
                                y_vals[held] - phase.centers[1]])
            gaps.append((ecf_gap, grad_gap, t * np.max(np.abs(c))))
    return np.array(gaps)


class TestSharedTrigTables:
    """Each sample's outcome ECF and phase gradients from the shared
    Chebyshev tables and the far values' exact sums, against its own
    node-pair tables over the rows and outcomes it holds; each gradient
    relative to its own largest component. The full sample, row 0 of the
    pass, is one of the samples."""

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_each_resample_matches_node_pairs(self, monkeypatch, setting, law):
        gaps = node_pair_gaps(monkeypatch, TestBatchedBootstrap.inputs(setting, law))
        assert np.all(gaps[:, 0] <= SHARED_ECF_ATOL), gaps[:, 0].max()
        assert np.all(gaps[:, 1] <= SHARED_GRAD_RTOL), gaps[:, 1].max()

    def test_outlier_matches_node_pairs(self, monkeypatch):
        # the arguments t c reach 2e5 here, and each side rounds them in its
        # own way (the node pairs by angle addition about h = t*/2, the
        # bootstrap about the centers), so cos/sin may move by eps t max|c|,
        # beyond the pins of the inputs above. Measured, per resample: ECF
        # gaps up to 0.011 and gradient gaps up to 0.51 of eps t max|c|.
        gaps = node_pair_gaps(monkeypatch, TestBatchedBootstrap.outlier_inputs())
        bound = 4.0 * np.finfo(float).eps * gaps[:, 2]
        assert np.max(gaps[:, 2]) > 1e5
        assert np.all(gaps[:, 0] <= bound), np.max(gaps[:, 0] / bound)
        assert np.all(gaps[:, 1] <= bound), np.max(gaps[:, 1] / bound)


#: row 0's weights (the full sample's) against the one-row block of
#: full_sample_weights, normwise relative to the largest weight. Equal
#: weights are counts over their sum on both sides. Minimax weights take
#: sigma_x from the bootstrap's count product, where the oracle sums over
#: rows (sigma_x_from_parts), which moves it at rounding level. The
#: quasi-likelihood Woodbury solve amplifies that rounding, by an amount
#: that depends on the input: its largest gap measured was 5.6e-10 over the
#: nine inputs below and 6.5e-8 over 45 fits at n = 500 and 1000 (CHANGES.md).
FULL_WEIGHTS_RTOL = {"equal": 0.0, "minimax": 1e-14, "quasi_likelihood": 2e-7}
#: the estimate from row 0's ECF and weights against the one from the
#: per-sample oracles under the same inverse covariance, normwise relative
FULL_THETA_RTOL = 1e-7


class TestFullSampleRow:
    """Row 0 of the bootstrap pass is the full sample: its t*, ECF and
    weights against the per-sample oracles build_ecf (node-pair tables over
    the distinct outcomes) and full_sample_weights."""

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_ecf_and_weights_match_oracles(self, setting, law):
        args = TestBatchedBootstrap.inputs(setting, law)
        d, design, sigma_j = args[0], args[5], args[6]
        ecf, out = _bootstrap_accumulate(*args)
        want = build_ecf(d.y)
        assert (ecf.t_star, ecf.capped) == (want.t_star, want.capped)
        assert np.array_equal(ecf.grid, want.grid)
        assert np.array_equal(ecf.quad_w, want.quad_w)
        assert np.max(np.abs(ecf.c_y - want.c_y)) <= SHARED_ECF_ATOL
        assert np.max(np.abs(ecf.s_y - want.s_y)) <= SHARED_ECF_ATOL
        for scheme in SCHEMES:
            got = out[scheme][4]
            want = full_sample_weights(scheme, sigma_j, design.v[:, :d.p], d.n_rep)
            assert got.scheme == scheme
            assert_normwise_close(got.q, want.q, FULL_WEIGHTS_RTOL[scheme])
            assert got.fallback == want.fallback
            assert (got.max_clamp > 0.0) == (want.max_clamp > 0.0)

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_estimate_matches_oracle_ingredients(self, setting, law):
        args = TestBatchedBootstrap.inputs(setting, law)
        d, _, b, seed = args[:4]
        fits = fit_gmm_multi(d, SCHEMES, b=b, seed=seed, compute_se=False)
        for scheme, fit in fits.items():
            assert fit.converged
            assert_normwise_close(fit.theta.theta, gmm_estimate(args, scheme, fit.omega_inv),
                                  FULL_THETA_RTOL)

    def test_capped_scan_is_reported(self):
        # two-point lattice outcomes: the full sample's scan, and every
        # resample's, reaches its cap
        rng = np.random.default_rng(7)
        n = 100
        x = rng.exponential(1.0, size=(n, 1))
        w = x[:, None, :] + 0.3 * rng.normal(size=(n, 2, 1))
        y = np.array([0.0] * 90 + [1.0] * 10)
        d = make_dataset(y, np.empty((n, 0)), list(w))
        fit = fit_gmm_multi(d, ("equal",), b=25, seed=0, compute_se=False)["equal"]
        assert fit.ecf.capped and build_ecf(y).capped
        assert fit.diagnostics["capped"] == 1
        assert fit.diagnostics["boot_capped"] == 25

    def test_constant_outcome_fails_before_resample_scans(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 60
        x = rng.exponential(1.0, size=(n, 1))
        w = x[:, None, :] + 0.3 * rng.normal(size=(n, 2, 1))
        d = make_dataset(np.ones(n), np.empty((n, 0)), list(w))
        calls = []
        scan, draw = gmm_module._t_star_from_counts, gmm_module._resample_counts

        def counting_scan(vals, counts):
            calls.append(vals.size)
            return scan(vals, counts)

        def recording_draw(*draw_args):
            calls.append("draw")
            return draw(*draw_args)

        monkeypatch.setattr(gmm_module, "_t_star_from_counts", counting_scan)
        monkeypatch.setattr(gmm_module, "_resample_counts", recording_draw)
        with pytest.raises(DegenerateInputError, match="outcome is constant"):
            fit_gmm_multi(d, SCHEMES, b=100, seed=0)
        # one scan, the full sample's, and no resample drawn
        assert calls == [1]


class TestMinimizeQ:
    def test_quadratic_exact(self):
        # linear residual x - b under weight A: Q = (x - b)' A (x - b)
        a = np.diag([4.0, 1.0, 0.25])
        b = np.array([1.0, -2.0, 0.5])

        def rj(x):
            return x - b, np.eye(3), lambda u: np.zeros((3, 3))

        x, q, _, converged, jac = _levenberg_marquardt(rj, a, np.zeros(3))
        assert converged
        assert np.allclose(x, b, atol=1e-8)
        assert q <= 1e-16
        assert np.array_equal(jac, np.eye(3))

    def test_never_worsens_start(self):
        # oscillating ridge: best value never exceeds the start
        def rj(x):
            s = np.array([x[0] - 1.0, 10.0 * (x[1] - x[0] ** 2), 3.0 * np.sin(5.0 * x[0])])
            jac = np.array([[1.0, 0.0], [-20.0 * x[0], 10.0],
                            [15.0 * np.cos(5.0 * x[0]), 0.0]])
            # only the (0, 0) second derivatives are nonzero
            return s, jac, lambda u: np.diag([-20.0 * u[1] - 75.0 * np.sin(5.0 * x[0]) * u[2], 0.0])

        def q_of(x):
            s, _, _ = rj(x)
            return s @ s

        x0 = np.array([1.3, -0.7])
        x, q, _, converged, jac = _levenberg_marquardt(rj, np.eye(3), x0)
        assert converged
        assert np.isclose(q, q_of(x), rtol=1e-12)
        assert q <= q_of(x0) + 1e-12
        # the returned Jacobian is the one evaluated at the returned point
        assert np.array_equal(jac, rj(x)[1])

        # derivatives of the wrong sign make every step uphill: the search
        # stops unconverged at the start instead of taking one
        def rj_uphill(x):
            s, jac, curv = rj(x)
            return s, -jac, lambda u: -curv(u)

        x, q, _, converged, jac = _levenberg_marquardt(rj_uphill, np.eye(3), x0)
        assert not converged
        assert np.array_equal(x, x0)
        assert q <= q_of(x0) + 1e-12
        assert np.array_equal(jac, rj_uphill(x0)[1])

    def test_singular_hessian_is_not_at_the_floor(self):
        # both coordinates enter only through their sum, so J'WJ is singular
        # at every point while its damped form is not: the stop test, on the
        # damped step's prediction, must not raise
        def rj(x):
            r = x[0] + x[1] - 1.0
            return (np.array([r, 2.0 * r]), np.array([[1.0, 1.0], [2.0, 2.0]]),
                    lambda u: np.zeros((2, 2)))

        x, q, _, converged, _ = _levenberg_marquardt(rj, np.eye(2), np.zeros(2))
        assert converged
        assert abs(x.sum() - 1.0) <= 1e-8
        assert q <= 1e-15

    def test_stops_where_noise_hides_the_last_steps(self):
        # Q evaluated with relative noise 1e-11, some 45000 eps Q, as when
        # the stacked equations cancel: near the minimum the undamped Newton
        # step promises more than the floor and Q still refuses it. The
        # search must stop converged at the noise floor, from every start,
        # not raise mu to MU_MAX (a test on the undamped step alone ends 3
        # of these 20 searches unconverged after 49 or 50 evaluations)
        a = np.array([[2.0, 0.3], [0.1, 1.0], [0.5, -0.4]])
        b = np.array([1.0, -2.0, 0.5])
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        q_ref = np.sum((a @ ref - b) ** 2)
        for k in range(20):
            def rj(x):
                noise = 1.0 + 1e-11 * np.sin(1e9 * (x @ [1.0, np.pi]) + k)
                return (a @ x - b) * noise, a, lambda u: np.zeros((2, 2))

            x, q, n_eval, converged, _ = _levenberg_marquardt(
                rj, np.eye(3), np.array([0.1 * k, -0.05 * k]))
            assert converged, k
            assert np.max(np.abs(x - ref)) <= 1e-5
            assert q <= q_ref * (1.0 + 1e-9)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), setting=st.sampled_from(["simple", "I", "III"]),
           law=st.sampled_from(ERROR_LAWS))
    def test_matches_least_squares_reference(self, seed, setting, law):
        # the GMM minimizer equals scipy's on the Cholesky-whitened residual
        # L' s (omega_inv = L L', so |L' s|^2 = Q) from the same start
        cfg = SimConfig(setting=setting, n=200, n_rep=2, m_reps=1,
                        error_law=law, seed=seed)
        d, _ = gen_dataset(cfg, 0)
        sigma_j = estimate_covariances(d)
        design = build_design(d)
        mc = fit_mc(d, sigma_j, design)
        fit = fit_gmm_multi(d, ("minimax",), b=25, seed=seed, compute_se=False)["minimax"]
        assert fit.converged
        lt = np.linalg.cholesky(fit.omega_inv).T

        def resid(theta):
            return lt @ stacked(theta, d, sigma_j, design, mc, fit.weights, fit.ecf)[0]

        def jac(theta):
            return lt @ stacked(theta, d, sigma_j, design, mc, fit.weights, fit.ecf)[1]

        ref = least_squares(resid, fit.theta_init.theta, jac=jac, method="trf",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        theta = fit.theta.theta
        assert np.max(np.abs(theta - ref.x)) <= 1e-6 * (1.0 + np.max(np.abs(ref.x)))
        q_ref = 2.0 * ref.cost
        assert fit.q_value <= q_ref + 1e-9 * max(q_ref, 1.0)


class TestStackedCurvature:
    def test_matches_jacobian_differences(self, rng):
        # column i of sum_m u_m d^2 s_m / d theta d theta' is the central
        # difference of J' u along coordinate i; the corrected-LS half of u
        # meets a constant Jacobian and drops out
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=60)
        k = d.p + d.q + 1
        theta = mc.theta.theta + 0.1 * rng.normal(size=k)
        u = rng.normal(size=2 * k)
        got = stacked(theta, d, sigma_j, design, mc, weights, ecf)[2](u)
        fd = np.empty((k, k))
        for i in range(k):
            e = np.zeros(k)
            e[i] = 1e-5
            fd[:, i] = (stacked(theta + e, d, sigma_j, design, mc, weights, ecf)[1].T @ u
                        - stacked(theta - e, d, sigma_j, design, mc, weights, ecf)[1].T @ u) / 2e-5
        assert np.max(np.abs(got - fd)) <= 1e-7 * np.max(np.abs(fd))


def rounding_floor_fits(perturb=False):
    """n_iter of the 27 fits of TestNewtonAgainstGaussNewton (settings simple,
    I and III x error laws x schemes), with y moved by its last bit when
    perturb is set."""
    n_iter = []
    for setting in ("simple", "I", "III"):
        for law in ERROR_LAWS:
            d, _ = gen_dataset(SimConfig(setting=setting, n=300, n_rep=2, m_reps=1,
                                         error_law=law, seed=23), 0)
            if perturb:
                d = dataclasses.replace(d, y=np.nextafter(d.y, np.inf))
            fits = fit_gmm_multi(d, SCHEMES, b=30, seed=3, compute_se=False)
            n_iter += [fits[scheme].n_iter for scheme in SCHEMES]
    return n_iter


class TestNewtonAgainstGaussNewton:
    """The Newton search against the Gauss-Newton one it replaced: both stop
    at the same minimizer of Q, to the rounding floor where Q's evaluation
    noise hides any further decrease, and Newton gets there in fewer
    evaluations."""

    #: evaluations the 27 fits of test_same_minimum_fewer_evaluations took
    #: when the Newton search also stopped at a taken step, or an undamped
    #: one, of max-norm 1e-9 (493 for Gauss-Newton); the relative rounding
    #: floor takes 136
    EVALS_AT_STEP_TOL = 168
    #: sum over those fits of |n_iter(y) - n_iter(y moved by its last bit)|
    #: with the absolute step stop; the relative rounding floor gives 0
    N_ITER_GAP_AT_STEP_TOL = 37
    #: evaluations of the 81 fits of test_no_step_refused_at_the_floor with
    #: the absolute step stop, 27 of them refused within 1e-6 of the best
    #: point in 8 fits; the relative rounding floor takes 429
    EVALS_81_AT_STEP_TOL = 481

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_same_minimum_fewer_evaluations(self, setting, law):
        d, _ = gen_dataset(SimConfig(setting=setting, n=300, n_rep=2, m_reps=1,
                                     error_law=law, seed=23), 0)
        sigma_j, design = estimate_covariances(d), build_design(d)
        mc = fit_mc(d, sigma_j, design)
        fits = fit_gmm_multi(d, SCHEMES, b=30, seed=3, compute_se=False)
        n_newton = n_gauss_newton = 0
        for fit in fits.values():
            resid_jac = functools.partial(
                _stacked_equations, v=design.v, y=d.y,
                sig_w=pooled_error_covariance(sigma_j, d.n_rep),
                jac_mc=2.0 / d.n * mc.gram, q=fit.weights.q, ecf=fit.ecf)
            x, q, n_eval, converged, _ = gauss_newton_lm(resid_jac, fit.omega_inv,
                                                         mc.theta.theta)
            assert converged and fit.converged
            assert_normwise_close(fit.theta.theta, x, 1e-8)
            assert np.isclose(fit.q_value, q, rtol=1e-12, atol=0.0)
            n_newton += fit.n_iter
            n_gauss_newton += n_eval
        assert n_newton < n_gauss_newton

    def test_floor_stop_saves_evaluations(self):
        # fewer evaluations than the absolute step stop took, and a stop tied
        # to Q's own rounding does not turn on where the last bit of the
        # data falls
        n_iter = rounding_floor_fits()
        gap = sum(abs(a - b) for a, b in zip(n_iter, rounding_floor_fits(perturb=True)))
        assert sum(n_iter) < self.EVALS_AT_STEP_TOL
        assert gap <= self.N_ITER_GAP_AT_STEP_TOL

    def test_no_step_refused_at_the_floor(self, monkeypatch):
        # over 81 fits, no evaluation within 1e-6 (max-norm) of the best
        # point so far raises Q: the search stops before a step that only
        # Q's rounding would refuse
        evals = []

        def recording(theta, *args, **kwargs):
            out = _stacked_equations(theta, *args, **kwargs)
            evals.append((np.array(theta), out[0]))
            return out

        monkeypatch.setattr(gmm_module, "_stacked_equations", recording)
        refused = total = 0
        for setting in ("simple", "I", "III"):
            for law in ERROR_LAWS:
                for seed in range(3):
                    d, _ = gen_dataset(SimConfig(setting, n=500, error_law=law, seed=seed), 0)
                    evals.clear()
                    fits = fit_gmm_multi(d, SCHEMES, b=25, seed=seed, compute_se=False)
                    # the schemes are fitted one after another, in order
                    for fit in fits.values():
                        assert fit.converged
                        fit_evals, evals[:fit.n_iter] = evals[:fit.n_iter], []
                        best_x, best_q = None, np.inf
                        for x, s in fit_evals:
                            q = s @ fit.omega_inv @ s
                            if q <= best_q:
                                best_x, best_q = x, q
                            elif np.max(np.abs(x - best_x)) <= 1e-6:
                                refused += 1
                        total += fit.n_iter
                    assert not evals
        assert refused == 0
        assert total < self.EVALS_81_AT_STEP_TOL

    def test_indefinite_start_stays_in_its_basin(self):
        # the start's full Hessian of Q is indefinite; a Newton step on it
        # led this fit to another local minimum (Q 1.962 against 1.873)
        d, _ = gen_dataset(SimConfig(setting="simple", n=200, n_rep=2, m_reps=1,
                                     error_law="normal", seed=0), 0)
        sigma_j, design = estimate_covariances(d), build_design(d)
        mc = fit_mc(d, sigma_j, design)
        fit = fit_gmm_multi(d, ("quasi_likelihood",), b=25, seed=0,
                            compute_se=False)["quasi_likelihood"]
        resid_jac = functools.partial(
            _stacked_equations, v=design.v, y=d.y,
            sig_w=pooled_error_covariance(sigma_j, d.n_rep),
            jac_mc=2.0 / d.n * mc.gram, q=fit.weights.q, ecf=fit.ecf)
        s, jac, curv = resid_jac(mc.theta.theta)
        full = jac.T @ fit.omega_inv @ jac + curv(fit.omega_inv @ s)
        assert np.linalg.eigvalsh(full)[0] < 0.0
        x, q, _, converged, _ = gauss_newton_lm(resid_jac, fit.omega_inv, mc.theta.theta)
        assert converged and fit.converged
        assert_normwise_close(fit.theta.theta, x, 1e-8)
        assert np.isclose(fit.q_value, q, rtol=1e-12, atol=0.0)


class TestFitGmm:
    def test_zero_measurement_error_matches_ols(self, rng):
        # identical replicates and exact linear outcomes: the stacked
        # equations vanish at the least-squares solution
        n = 40
        x = rng.exponential(1.0, size=(n, 1))
        y = 1.5 * x[:, 0] + 0.8
        w = [np.tile(x[j], (2, 1)) for j in range(n)]
        d = make_dataset(y, np.empty((n, 0)), w)
        design = build_design(d)
        ols = fit_ols(d.y, design.v, d.p)
        fit = fit_gmm_multi(d, ("equal",), b=30, seed=4, compute_se=False)["equal"]
        assert np.max(np.abs(fit.theta.theta - ols.theta)) <= 1e-4
        assert np.max(np.abs(fit.theta.theta - fit.theta_init.theta)) <= 1e-4

    def test_q_never_worse_than_mc_start(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=60)
        fit = fit_gmm_multi(d, ("minimax",), b=40, seed=6, compute_se=False)["minimax"]
        s_mc, _, _ = stacked(mc.theta, d, sigma_j, design, mc, fit.weights, fit.ecf)
        q_at_mc = s_mc @ fit.omega_inv @ s_mc
        assert fit.q_value <= q_at_mc + 1e-12
        assert fit.q_value >= 0.0

    def test_deterministic(self, rng):
        d, *_ = prepared(rng, n=50)
        f1 = fit_gmm_multi(d, ("quasi_likelihood",), b=30, seed=12)["quasi_likelihood"]
        f2 = fit_gmm_multi(d, ("quasi_likelihood",), b=30, seed=12)["quasi_likelihood"]
        assert np.array_equal(f1.theta.theta, f2.theta.theta)
        assert np.array_equal(f1.omega_hat, f2.omega_hat)
        assert np.array_equal(f1.se, f2.se)

    def test_multi_matches_single(self, rng):
        d, *_ = prepared(rng, n=50)
        multi = fit_gmm_multi(d, ("equal", "minimax"), b=30, seed=8, compute_se=False)
        single = fit_gmm_multi(d, ("minimax",), b=30, seed=8, compute_se=False)
        assert np.allclose(multi["minimax"].theta.theta, single["minimax"].theta.theta)

    def test_repeated_scheme_fit_once(self, rng):
        # a scheme listed twice must not enter the bootstrap covariance twice
        d, *_ = prepared(rng, n=50)
        twice = fit_gmm_multi(d, ("minimax", "equal", "minimax"), b=30, seed=8)
        once = fit_gmm_multi(d, ("minimax", "equal"), b=30, seed=8)
        assert list(twice) == ["minimax", "equal"]
        for scheme in once:
            assert np.array_equal(twice[scheme].omega_hat, once[scheme].omega_hat)
            assert np.array_equal(twice[scheme].theta.theta, once[scheme].theta.theta)
            assert np.array_equal(twice[scheme].se, once[scheme].se)

    def test_grad_q_matches_finite_differences(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=45)
        omega = scheme_omega(d, mc.theta, 30, seed=5, scheme="minimax",
                             design=design, sigma_j=sigma_j)
        _, omega_inv = _floor_eigh(omega)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        k = d.p + d.q + 1

        def q_of(theta):
            s = np.concatenate([
                grad_corrected_l2(theta, design.v, d.y, sig_w),
                grad_and_hessian(theta, design.v, weights.q, ecf)[0],
            ])
            return s @ omega_inv @ s

        theta = mc.theta.theta + 0.1 * rng.normal(size=k)
        s, jac, _ = stacked(theta, d, sigma_j, design, mc, weights, ecf)
        grad = 2.0 * jac.T @ (omega_inv @ s)
        fd = np.empty(k)
        for i in range(k):
            h = 1e-6 * (1.0 + abs(theta[i]))
            e = np.zeros(k)
            e[i] = h
            fd[i] = (q_of(theta + e) - q_of(theta - e)) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-4 * max(1.0, np.abs(fd).max())

    def test_identity_omega_zero_phase_recovers_mc(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=55)
        sig_w = pooled_error_covariance(sigma_j, d.n_rep)
        k = d.p + d.q + 1
        jac_mc = 2.0 / d.n * mc.gram

        def rj(theta):
            s = np.concatenate([grad_corrected_l2(theta, design.v, d.y, sig_w),
                                np.zeros(k)])
            return s, np.vstack([jac_mc, np.zeros((k, k))]), lambda u: np.zeros((k, k))

        x, *_ = _levenberg_marquardt(rj, np.eye(2 * k),
                                     mc.theta.theta + 0.3 * rng.normal(size=k))
        assert np.max(np.abs(x - mc.theta.theta)) <= 1e-6

    def test_q_invariant_under_stacking_permutation(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=45)
        omega = scheme_omega(d, mc.theta, 30, seed=5, scheme="equal",
                             design=design, sigma_j=sigma_j)
        _, omega_inv = _floor_eigh(omega)
        s, _, _ = stacked(mc.theta.theta + 0.05, d, sigma_j, design, mc, weights, ecf)
        q0 = s @ omega_inv @ s
        perm = rng.permutation(s.size)
        pmat = np.eye(s.size)[perm]
        q1 = (pmat @ s) @ np.linalg.inv(pmat @ np.linalg.inv(omega_inv) @ pmat.T) @ (pmat @ s)
        assert np.isclose(q0, q1, rtol=1e-8)


@functools.cache
def equivariance_fit(y_scale=1.0, y_shift=0.0, w_scale=1.0, z_scale=1.0):
    """fit_gmm_multi, SEs on, of a setting III t2.5 dataset (n=500, B=50)
    after a change of units: y -> y_scale * y + y_shift, w -> w_scale * w,
    z -> z_scale * z (the intercept column stays one)."""
    d, _ = gen_dataset(SimConfig(setting="III", n=500, error_law="t2_5", seed=0), 0)
    moved = make_dataset(y_scale * d.y + y_shift, z_scale * d.z[:, 1:], w_scale * d.w)
    return fit_gmm_multi(moved, SCHEMES, b=50, seed=0)


class TestUnitEquivariance:
    """theta-hat and its sandwich SEs follow each change of units, for every
    scheme, because the floor of the bootstrap covariance and the stop of
    the search are both unit-free. theta is [beta (2), intercept, gamma_z (2)]."""

    @staticmethod
    def assert_follows(moved, scale, shift=0.0):
        base = equivariance_fit()
        for scheme in SCHEMES:
            got, want = moved[scheme], base[scheme]
            assert_normwise_close(got.theta.theta, scale * want.theta.theta + shift, 1e-7)
            assert_normwise_close(got.se, np.abs(scale) * want.se, 1e-7)

    def test_estimate_follows_the_units_of_y(self):
        # y in units c times smaller: every coefficient and SE scales by c
        for c in (1e-2, 1e2):
            self.assert_follows(equivariance_fit(y_scale=c), c)

    def test_estimate_follows_a_shift_of_y(self):
        # only the intercept moves, by delta; no SE moves
        for delta in (5.0, 1e3):
            self.assert_follows(equivariance_fit(y_shift=delta), 1.0,
                                np.array([0.0, 0.0, delta, 0.0, 0.0]))

    def test_estimate_follows_the_units_of_w(self):
        # beta and its SEs scale by 1/c
        for c in (1e-2, 1e2):
            self.assert_follows(equivariance_fit(w_scale=c),
                                np.array([1 / c, 1 / c, 1.0, 1.0, 1.0]))

    def test_estimate_follows_the_units_of_z(self):
        # gamma_z and its SEs scale by 1/c; the intercept does not
        for c in (1e-2, 1e2):
            self.assert_follows(equivariance_fit(z_scale=c),
                                np.array([1.0, 1.0, 1.0, 1 / c, 1 / c]))


class TestSchemeFailures:
    """A failure forced on the minimax scheme leaves the other schemes' fits
    bit for bit as in an unforced run."""

    @staticmethod
    def fit_all(d):
        return fit_gmm_multi(d, SCHEMES, b=30, seed=8)

    @staticmethod
    def assert_others_unchanged(forced, ref):
        for scheme in ("equal", "quasi_likelihood"):
            got, want = forced[scheme], ref[scheme]
            assert np.array_equal(got.theta.theta, want.theta.theta)
            assert np.array_equal(got.omega_hat, want.omega_hat)
            assert np.array_equal(got.se, want.se)
            assert (got.q_value, got.n_iter, got.diagnostics) == (
                want.q_value, want.n_iter, want.diagnostics)

    def test_standard_error_failure_keeps_estimate(self, rng, monkeypatch):
        d = prepared(rng, n=60)[0]
        ref = self.fit_all(d)
        sandwich = gmm_module.gmm_standard_errors

        def failing(jac, omega_inv):
            if np.array_equal(omega_inv, ref["minimax"].omega_inv):
                raise StandardErrorError("forced failure")
            return sandwich(jac, omega_inv)

        monkeypatch.setattr(gmm_module, "gmm_standard_errors", failing)
        forced = self.fit_all(d)
        self.assert_others_unchanged(forced, ref)
        got = forced["minimax"]
        assert got.se is None and ref["minimax"].se is not None
        assert got.diagnostics["se_error"] == "forced failure"
        assert np.array_equal(got.theta.theta, ref["minimax"].theta.theta)

    def test_bootstrap_over_limit_fails_alone(self, rng, monkeypatch):
        d = prepared(rng, n=60)[0]
        ref = self.fit_all(d)
        fail_minimax(monkeypatch)
        forced = self.fit_all(d)
        self.assert_others_unchanged(forced, ref)
        assert isinstance(forced["minimax"], BootstrapInstabilityError)
        assert "30/30 bootstrap resamples failed" in str(forced["minimax"])

    def test_zero_variance_fails_alone(self, rng, monkeypatch):
        # minimax's phase gradients the same for every resample: that scheme
        # fails with the typed error instead of weighting with a NaN
        d = prepared(rng, n=60)[0]
        ref = self.fit_all(d)
        block = _BootstrapPhase.block

        def constant_minimax(self, *args):
            c_y, s_y, grads = block(self, *args)
            grads[:, SCHEMES.index("minimax")] = 1.0
            return c_y, s_y, grads

        monkeypatch.setattr(_BootstrapPhase, "block", constant_minimax)
        forced = self.fit_all(d)
        self.assert_others_unchanged(forced, ref)
        assert isinstance(forced["minimax"], DegenerateCovarianceError)
        assert "non-positive variance" in str(forced["minimax"])

    def test_full_sample_weight_failure_fails_alone(self, rng, monkeypatch):
        d = prepared(rng, n=60)[0]
        ref = self.fit_all(d)
        fail_minimax(monkeypatch, lambda sx, counts: np.all(counts == 1.0))
        forced = self.fit_all(d)
        self.assert_others_unchanged(forced, ref)
        assert isinstance(forced["minimax"], DegenerateCovarianceError)
        assert str(forced["minimax"]) == "forced failure"

    def test_full_sample_ql_events_are_counts_not_warnings(self, rng, monkeypatch):
        # the quasi-likelihood solve fails on the full sample only: that fit
        # runs on equal weights and says so in its diagnostics, silently
        d = prepared(rng, n=60)[0]
        ref = self.fit_all(d)
        solve = weights_module._solve_ql_system

        def failing(counts, omega_inv, w_bar, gamma):
            q, lam, errors = solve(counts, omega_inv, w_bar, gamma)
            return q, lam, tuple(WeightSolveError("forced failure") if np.all(row == 1.0)
                                 else err for row, err in zip(counts, errors))

        monkeypatch.setattr(weights_module, "_solve_ql_system", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            forced = self.fit_all(d)
        got, want = forced["quasi_likelihood"], ref["quasi_likelihood"]
        assert got.weights.fallback and not want.weights.fallback
        assert (got.diagnostics["ql_fallback"], got.diagnostics["ql_clamped"]) == (1, 0)
        assert want.diagnostics["ql_fallback"] == 0
        assert want.diagnostics["ql_clamped"] == int(want.weights.max_clamp > 0.0)
        assert np.array_equal(got.omega_hat, want.omega_hat)
        for scheme in ("equal", "minimax"):
            assert forced[scheme].diagnostics == ref[scheme].diagnostics
            assert forced[scheme].diagnostics["ql_fallback"] == 0

    def test_nonconverged_fit_says_why_se_is_missing(self, rng, monkeypatch):
        monkeypatch.setattr(gmm_module, "MAX_EVAL", 1)
        d, *_ = prepared(rng, n=60)
        fit = fit_gmm_multi(d, ("minimax",), b=30, seed=8)["minimax"]
        assert not fit.converged and fit.se is None
        assert fit.diagnostics["se_error"] == "optimizer did not converge"

    def test_unknown_scheme_raises_before_bootstrap(self, rng, monkeypatch):
        # names are compared as given: "Minimax" is not a scheme; an empty
        # list names none
        def no_scan(vals, counts):
            raise AssertionError("bootstrap t* scan ran")

        monkeypatch.setattr(gmm_module, "_t_star_from_counts", no_scan)
        d, *_ = prepared(rng, n=60)
        for schemes, message in ((("bogus",), "unknown weight scheme"),
                                 (("equal", "Minimax"), "unknown weight scheme"),
                                 ((), "no weight scheme given")):
            with pytest.raises(ValueError, match=message):
                fit_gmm_multi(d, schemes, b=30, seed=8)
        with pytest.raises(AssertionError, match="t\\* scan ran"):
            fit_gmm_multi(d, ("equal",), b=30, seed=8)


def corrected_ls_jacobian(d, sigma_j, design):
    """(2/n) x the corrected Gram matrix, from its definition."""
    sig_w = pooled_error_covariance(sigma_j, d.n_rep)
    gram = design.v.T @ design.v
    gram[:d.p, :d.p] -= sig_w
    return 2.0 / d.n * gram


class TestStandardErrors:
    def test_positive_and_shapes(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=60)
        fit = fit_gmm_multi(d, ("minimax",), b=40, seed=7)["minimax"]
        k = d.p + d.q + 1
        assert fit.se is not None and fit.se.shape == (k,)
        assert np.all(fit.se > 0)
        assert fit_gmm_multi(d, ("minimax",), b=40, seed=7,
                             compute_se=False)["minimax"].se is None

    def test_recompute_matches_fit(self, rng):
        d, sigma_j, design, mc, weights, ecf = prepared(rng, n=60)
        fit = fit_gmm_multi(d, ("minimax",), b=40, seed=7)["minimax"]
        _, jac, _ = stacked(fit.theta, d, sigma_j, design, mc, fit.weights, fit.ecf)
        se = gmm_standard_errors(jac, fit.omega_inv)
        assert np.array_equal(se, fit.se)

    @pytest.mark.parametrize("law", ERROR_LAWS)
    @pytest.mark.parametrize("setting", ["simple", "I", "III"])
    def test_matches_recomputed_sandwich(self, setting, law):
        # oracle: the sandwich rebuilt at the estimate from scratch, with the
        # phase Hessian from a fresh grad_and_hessian call stacked under the
        # corrected least-squares Jacobian
        d, _ = gen_dataset(SimConfig(setting=setting, n=300, n_rep=2, m_reps=1,
                                     error_law=law, seed=23), 0)
        sigma_j, design = estimate_covariances(d), build_design(d)
        fits = fit_gmm_multi(d, SCHEMES, b=30, seed=3)
        jac_mc = corrected_ls_jacobian(d, sigma_j, design)
        for fit in fits.values():
            assert fit.se is not None
            _, jac_ph, _ = grad_and_hessian(fit.theta.theta, design.v, fit.weights.q, fit.ecf)
            p1 = np.hstack([jac_mc.T, jac_ph.T])
            oracle = np.sqrt(np.diag(np.linalg.inv(p1 @ fit.omega_inv @ p1.T)))
            np.testing.assert_allclose(fit.se, oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("setting", ["toy", "III"])
    def test_exact_hessian_matches_central_difference_oracle(self, rng, setting):
        # oracle: the sandwich with the phase block as a symmetrized central
        # difference of the phase gradient, step 1e-5 (1 + |theta_i|)
        if setting == "toy":
            d, sigma_j, design, *_ = prepared(rng, n=60)
        else:
            d, _ = gen_dataset(SimConfig(setting="III", n=300, n_rep=2, m_reps=1,
                                         error_law="t2_5", seed=17), 0)
            sigma_j, design = estimate_covariances(d), build_design(d)
        fit = fit_gmm_multi(d, ("minimax",), b=40, seed=7)["minimax"]
        assert fit.se is not None
        theta = fit.theta.theta
        k = theta.size
        jac_ph = np.empty((k, k))
        for i in range(k):
            h = 1e-5 * (1.0 + abs(theta[i]))
            e = np.zeros(k)
            e[i] = h
            jac_ph[:, i] = (grad_and_hessian(theta + e, design.v, fit.weights.q, fit.ecf)[0]
                            - grad_and_hessian(theta - e, design.v, fit.weights.q, fit.ecf)[0]
                            ) / (2 * h)
        jac_ph = 0.5 * (jac_ph + jac_ph.T)
        p1 = np.hstack([corrected_ls_jacobian(d, sigma_j, design).T, jac_ph.T])
        se_fd = np.sqrt(np.diag(np.linalg.inv(p1 @ fit.omega_inv @ p1.T)))
        assert np.allclose(fit.se, se_fd, rtol=1e-6, atol=0.0)
