import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eivgmm import metrics
from eivgmm.metrics import fast_mcd, mc_se_summary, robust_mse


def _c_step(a, support, h):
    """One concentration step: refit on support, keep the h closest rows."""
    loc = a[support].mean(axis=0)
    centered = a[support] - loc
    scatter = centered.T @ centered / (support.size - 1)
    try:
        dist = np.einsum("ij,ij->i", (a - loc) @ np.linalg.inv(scatter), a - loc)
    except np.linalg.LinAlgError:
        return None, None, None
    new_support = np.argsort(dist, kind="stable")[:h]
    sign, logdet = np.linalg.slogdet(scatter)
    return np.sort(new_support), (sign, logdet), scatter


def _loop_chain(a, support, h):
    """Oracle for one start's chain: ((sign, logdet), support), or None when
    its first scatter is singular."""
    result = None
    for _ in range(metrics.MCD_MAX_C_STEPS):
        new_support, obj, _ = _c_step(a, support, h)
        if new_support is None:
            break
        if np.array_equal(new_support, support):
            return obj, support
        support = new_support
        result = (obj, support)
    return result


def _mcd_starts(m, k, seed):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return [np.sort(rng.choice(m, size=k + 1, replace=False)) for _ in range(metrics.MCD_STARTS)]


def _mcd_h(m, k):
    return min(max(int(np.ceil(metrics.MCD_SUPPORT_FRACTION * m)), k + 1), m)


def _loop_fast_mcd(a, seed=0):
    """Oracle for fast_mcd: one start at a time, one C-step at a time."""
    a = np.asarray(a, dtype=float)
    m, k = a.shape
    h = _mcd_h(m, k)
    best = None
    for support in _mcd_starts(m, k, seed):
        result = _loop_chain(a, support, h)
        if result is None:
            continue
        (sign, logdet), support = result
        if sign <= 0:
            continue
        if best is None or logdet < best[0] - 1e-12:
            best = (logdet, support)
    if best is None:
        return None, None
    support = best[1]
    loc = a[support].mean(axis=0)
    centered = a[support] - loc
    scatter = centered.T @ centered / (support.size - 1)
    return loc, scatter


def _mcd_rows(kind, m, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal((m, k))
    if kind == "t2_5":
        return rng.standard_t(2.5, size=(m, k))
    if kind == "lattice":
        return rng.integers(-2, 3, size=(m, k)).astype(float)
    if kind == "duplicated":
        # few distinct rows: supports with repeated rows give exactly singular scatters
        pool = rng.integers(0, 2, size=(max(2, m // 6), k)).astype(float)
        return pool[rng.integers(0, pool.shape[0], size=m)]
    # rank-deficient: a zero column makes every scatter exactly singular
    a = rng.standard_normal((m, k))
    a[:, rng.integers(0, k)] = 0.0
    return a


class TestRobustMse:
    def test_zero_error_matrix(self):
        estimates = np.tile([1.0, 0.5, 2.0], (50, 1))
        r = robust_mse(estimates, np.array([1.0, 0.5, 2.0]))
        assert r.mad_fallback
        assert r.det_metric == 0.0
        assert r.kept_rows >= 45

    def test_trim_count(self, rng):
        m = 100
        estimates = rng.normal(size=(m, 3))
        r = robust_mse(estimates, np.zeros(3))
        assert abs(r.kept_rows - int(np.ceil(0.9 * m))) <= 1

    def test_gaussian_oracle(self):
        # iid N(theta0, sigma^2 I): det(1000 * MSE_rob) matches a direct
        # pipeline simulation oracle with the same trimming rule
        rng = np.random.default_rng(42)
        m, k, sigma2 = 500, 3, 1e-3
        estimates = np.sqrt(sigma2) * rng.standard_normal((m, k))
        r = robust_mse(estimates, np.zeros(k), seed=3)
        # oracle: expected shrinkage of the second moment when the 10% most
        # extreme (by Mahalanobis distance) rows are removed, estimated by
        # direct simulation with known scatter
        oracle_rng = np.random.default_rng(7)
        shrink = []
        for _ in range(40):
            a = oracle_rng.standard_normal((m, k))
            d = (a**2).sum(axis=1)
            cut = np.sort(d)[int(np.ceil(0.9 * m)) - 1]
            kept = a[d <= cut]
            shrink.append(np.diag(kept.T @ kept / kept.shape[0]).mean())
        c = np.mean(shrink)
        expected = np.linalg.det(1000.0 * c * sigma2 * np.eye(k))
        assert 0.7 * expected <= r.det_metric <= 1.3 * expected

    def test_outlier_robustness(self):
        rng = np.random.default_rng(5)
        m, k = 200, 3
        clean = 0.03 * rng.standard_normal((m, k))
        r_clean = robust_mse(clean, np.zeros(k), seed=1)
        contaminated = clean.copy()
        idx = rng.choice(m, size=10, replace=False)
        contaminated[idx] += 100.0
        r_cont = robust_mse(contaminated, np.zeros(k), seed=1)
        # the trimmed metric barely moves (the kept set reaches slightly
        # deeper into the clean tail), while the untrimmed det explodes
        assert abs(r_cont.det_metric - r_clean.det_metric) <= 0.30 * r_clean.det_metric
        a = contaminated
        untrimmed = np.linalg.det(1000.0 * a.T @ a / m)
        assert untrimmed > 100.0 * r_cont.det_metric

    def test_row_permutation_invariant(self, rng):
        estimates = rng.normal(size=(80, 2))
        r1 = robust_mse(estimates, np.zeros(2), seed=2)
        r2 = robust_mse(estimates[rng.permutation(80)], np.zeros(2), seed=2)
        assert np.isclose(r1.det_metric, r2.det_metric, rtol=1e-10)

    def test_scaling_law(self, rng):
        estimates = rng.normal(size=(150, 2))
        r1 = robust_mse(estimates, np.zeros(2), seed=4)
        r2 = robust_mse(3.0 * estimates, np.zeros(2), seed=4)
        # det scales as c^(2k) exactly before trimming, approximately after
        assert abs(r2.det_metric / r1.det_metric - 3.0**4) <= 0.05 * 3.0**4

    def test_requires_enough_rows(self, rng):
        with pytest.raises(ValueError, match="20"):
            robust_mse(rng.normal(size=(10, 2)), np.zeros(2))

    def test_singular_scatter_fallback(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=60)
        estimates = np.column_stack([col, 2.0 * col])  # rank-1 scatter
        r = robust_mse(estimates, np.zeros(2), seed=1)
        assert r.mad_fallback
        assert np.isfinite(r.det_metric)


class TestFastMcd:
    def test_recovers_clean_scatter(self):
        rng = np.random.default_rng(12)
        a = rng.multivariate_normal([0, 0], [[1.0, 0.3], [0.3, 0.5]], size=400)
        loc, scatter = fast_mcd(a, seed=5)
        # MCD scatter is a (biased, consistent up to a factor) robust scatter:
        # check shape, not scale
        ratio = scatter / np.array([[1.0, 0.3], [0.3, 0.5]])
        assert abs(ratio[0, 1] / ratio[0, 0] - 1.0) < 0.25
        assert np.all(np.abs(loc) < 0.15)

    def test_ignores_gross_outliers(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((200, 2))
        a[:40] += 50.0
        _, scatter = fast_mcd(a, seed=5)
        assert np.all(np.diag(scatter) < 5.0)

    def test_deterministic(self, rng):
        a = rng.standard_normal((100, 3))
        l1, s1 = fast_mcd(a, seed=11)
        l2, s2 = fast_mcd(a, seed=11)
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1, s2)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(k=st.integers(1, 5), extra=st.integers(2, 150),
           kind=st.sampled_from(["normal", "t2_5", "lattice", "duplicated", "rank_deficient"]),
           max_steps=st.sampled_from([1, 2, 3, metrics.MCD_MAX_C_STEPS]),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 1000))
    # chains that reach an exactly singular scatter after some steps, among
    # them the best start's
    @example(k=1, extra=40, kind="duplicated", max_steps=metrics.MCD_MAX_C_STEPS,
             data_seed=5, seed=0)
    @example(k=4, extra=60, kind="duplicated", max_steps=metrics.MCD_MAX_C_STEPS,
             data_seed=0, seed=0)
    def test_matches_loop_oracle(self, k, extra, kind, max_steps, data_seed, seed):
        # a small step cap leaves chains unconverged: each keeps the scatter
        # of its last refit beside the support that refit selected
        m = min(k + extra, 150)
        a = _mcd_rows(kind, m, k, data_seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "MCD_MAX_C_STEPS", max_steps)
            h = _mcd_h(m, k)
            starts = _mcd_starts(m, k, seed)
            sign, logdet, supports = metrics._run_chains(a, np.array(starts), h)
            for i, start in enumerate(starts):
                result = _loop_chain(a, start, h)
                if result is None:
                    assert sign[i] == 0
                else:
                    assert (sign[i], logdet[i]) == result[0]
                    assert np.array_equal(supports[i], result[1])
            loc, scatter = fast_mcd(a, seed=seed)
            loc_ref, scatter_ref = _loop_fast_mcd(a, seed=seed)
        if scatter_ref is None:
            assert loc is None and scatter is None
        else:
            assert np.array_equal(loc, loc_ref)
            assert np.array_equal(scatter, scatter_ref)
        if kind == "rank_deficient":
            assert scatter is None
            if m >= 20:
                assert robust_mse(a, np.zeros(k), seed=seed).mad_fallback


class TestMcSeSummary:
    def test_constant_columns(self):
        estimates = np.tile([1.0, 2.0], (30, 1))
        avg = np.abs(np.random.default_rng(1).normal(size=(30, 2)))
        s = mc_se_summary(estimates, avg)
        assert np.array_equal(s.mc_se, [0.0, 0.0])
        assert np.allclose(s.avg_se, avg.mean(axis=0))

    def test_sampling_distribution(self):
        rng = np.random.default_rng(21)
        estimates = 0.03 * rng.standard_normal((500, 1))
        s = mc_se_summary(estimates, np.full((500, 1), 0.03))
        assert abs(s.mc_se[0] - 0.03) < 0.002

    def test_pairing_shape(self, rng):
        s = mc_se_summary(rng.normal(size=(40, 5)), np.abs(rng.normal(size=(40, 5))))
        assert s.mc_se.shape == (5,) and s.avg_se.shape == (5,)
