import ctypes
import json
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import eivgmm.gmm as gmm_module
import eivgmm.study as study_module
from eivgmm.acceptance import run_criterion
from eivgmm.cli import main
from eivgmm.covariance import estimate_covariances
from eivgmm.errors import (
    BootstrapInstabilityError,
    EstimationError,
    StandardErrorError,
    UsageError,
    ValidationError,
)
from eivgmm.gmm import fit_gmm_multi
from eivgmm.model_data import CsvSchema, build_design, load_csv, write_csv
from eivgmm.moment_correction import fit_mc, fit_ols
from eivgmm.simgen import SimConfig, gen_dataset
from eivgmm.study import _OPENBLAS_SET_THREADS, _pin_blas_threads, run_replication, run_study
from eivgmm.weights import SCHEMES
from conftest import fail_minimax


def openblas_threads():
    """{library path: thread count} for every OpenBLAS loaded in this process,
    read through the getter that matches its setter's symbol."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_SET_THREADS:
            getter = getattr(lib, symbol.replace("_set_", "_get_"), None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[path] = int(getter())
                break
    return threads


class TestStudy:
    def test_replication_deterministic_and_pool_invariant(self):
        cfg = SimConfig(setting="simple", n=120, n_rep=2, m_reps=3,
                        error_law="normal", seed=77)
        r1 = run_study(cfg, estimators=("true", "naive", "mc", "gmm_equal"),
                       b=30, workers=1, compute_se=True)
        r2 = run_study(cfg, estimators=("true", "naive", "mc", "gmm_equal"),
                       b=30, workers=2, compute_se=True)
        for name in r1.estimates:
            assert np.array_equal(r1.estimates[name], r2.estimates[name])
            assert np.array_equal(r1.ses[name], r2.ses[name], equal_nan=True)
        assert np.all(np.isfinite(r1.ses["gmm_equal"]))

    def test_bad_arguments_raise_before_any_dataset(self, monkeypatch):
        def no_draw(cfg, m):
            raise AssertionError("a dataset was drawn")

        assert issubclass(UsageError, ValidationError) and issubclass(UsageError, ValueError)
        monkeypatch.setattr(study_module, "gen_dataset", no_draw)
        cfg = SimConfig(setting="simple", n=60, n_rep=2, m_reps=2, seed=1)
        for kwargs, message in (
                ({"estimators": ("bogus", "naive")}, r"unknown estimators \['bogus'\]"),
                ({"estimators": ()}, "no estimators given"),
                ({"workers": 0}, "need workers >= 1, got 0"),
                ({"estimators": ("mc", "gmm_ql"), "b": 10}, "b >= 25 bootstrap resamples, got 10")):
            with pytest.raises(UsageError, match=message):
                run_study(cfg, **kwargs)
        with pytest.raises(UsageError, match="b >= 25 bootstrap resamples, got 10"):
            run_replication(cfg, 0, estimators=("naive", "gmm_mm"), b=10)
        # the bootstrap count binds only when a gmm_* estimator is listed
        monkeypatch.undo()
        est, _, errors = run_replication(cfg, 0, estimators=("naive", "mc"), b=10)
        assert set(est) == {"naive", "mc"} and errors == []

    def test_pool_workers_run_blas_single_threaded(self):
        if not openblas_threads():
            pytest.skip("no OpenBLAS library is loaded in this process")
        with ProcessPoolExecutor(max_workers=2, initializer=_pin_blas_threads) as pool:
            seen = [pool.submit(openblas_threads).result(timeout=60) for _ in range(4)]
        for threads in seen:
            assert threads and set(threads.values()) == {1}

    def test_gmm_failure_keeps_mc(self, monkeypatch):
        def unstable(*args, **kwargs):
            raise BootstrapInstabilityError("forced bootstrap failure")

        monkeypatch.setattr(study_module, "fit_gmm_multi", unstable)
        cfg = SimConfig(setting="I", n=200, n_rep=2, m_reps=1, error_law="normal", seed=3)
        est, ses, errors = run_replication(cfg, 0, b=30)
        assert np.all(np.isfinite(est["mc"]))
        assert np.all(np.isfinite(est["naive"]))
        assert sorted(name for name, _ in errors) == ["gmm_equal", "gmm_mm", "gmm_ql"]
        assert all(msg == "forced bootstrap failure" for _, msg in errors)
        assert np.all(np.isnan(est["gmm_mm"]))

    @pytest.mark.parametrize("failure", ["standard_errors", "bootstrap"])
    def test_one_scheme_failure_keeps_the_others(self, monkeypatch, failure):
        # the failure is forced on minimax weighting (gmm_mm), the second of
        # the three schemes
        cfg = SimConfig(setting="I", n=200, n_rep=2, m_reps=1, error_law="normal", seed=3)
        ref_est, ref_ses, ref_errors = run_replication(cfg, 0, b=30)
        assert ref_errors == []
        if failure == "standard_errors":
            sandwich, calls = gmm_module.gmm_standard_errors, []

            def failing_se(jac, omega_inv):
                calls.append(None)
                if len(calls) == 2:
                    raise StandardErrorError("forced failure")
                return sandwich(jac, omega_inv)

            monkeypatch.setattr(gmm_module, "gmm_standard_errors", failing_se)
        else:
            fail_minimax(monkeypatch)
        est, ses, errors = run_replication(cfg, 0, b=30)
        for name in ("true", "naive", "mc", "gmm_equal", "gmm_ql"):
            assert np.array_equal(est[name], ref_est[name])
            assert np.array_equal(ses[name], ref_ses[name], equal_nan=True)
        assert [name for name, _ in errors] == ["gmm_mm"]
        assert np.all(np.isnan(ses["gmm_mm"]))
        if failure == "standard_errors":
            assert errors[0][1] == "standard errors: forced failure"
            assert np.array_equal(est["gmm_mm"], ref_est["gmm_mm"])
        else:
            assert "30/30 bootstrap resamples failed for scheme 'minimax'" in errors[0][1]
            assert np.all(np.isnan(est["gmm_mm"]))

    def test_replication_outputs(self):
        cfg = SimConfig(setting="I", n=150, n_rep=2, m_reps=1,
                        error_law="normal", rho=0.5, seed=3)
        est, ses, errors = run_replication(cfg, 0, estimators=("true", "naive", "mc"),
                                           b=30)
        assert set(est) == {"true", "naive", "mc"}
        assert all(v.shape == (3,) for v in est.values())
        assert errors == []


def constant_last_estimator(cfg, m, estimators, b, compute_se):
    """Stand-in for run_replication: the last estimator returns theta0 exactly
    (an exactly singular MCD scatter), the others a unit-normal error."""
    k = cfg.p + cfg.q + 1
    noise = np.random.default_rng(m).normal(size=k)
    est = {name: cfg.theta0 + (noise if name != estimators[-1] else 0.0) for name in estimators}
    return est, {name: np.full(k, np.nan) for name in estimators}, []


def failing_last_estimator(cfg, m, estimators, b, compute_se):
    """Stand-in for run_replication: the last estimator fails in every
    replication, the others return a unit-normal error."""
    k = cfg.p + cfg.q + 1
    noise = np.random.default_rng(m).normal(size=k)
    est = {name: cfg.theta0 + noise for name in estimators}
    est[estimators[-1]] = np.full(k, np.nan)
    return (est, {name: np.full(k, np.nan) for name in estimators},
            [(estimators[-1], "forced failure")])


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one command; an argparse usage error
    exits 2 through SystemExit, as it does from the console script."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliFit:
    @pytest.fixture
    def csv_path(self, tmp_path):
        cfg = SimConfig(setting="I", n=150, n_rep=2, m_reps=1,
                        error_law="normal", rho=0.0, seed=10)
        d, _ = gen_dataset(cfg, 0)
        path = tmp_path / "data.csv"
        write_csv(d, path, CsvSchema(y="y"))
        return str(path)

    def test_fit_report(self, csv_path, tmp_path, capsys):
        json_path = str(tmp_path / "report.json")
        code, out, _ = run_cli([
            "fit", "--data", csv_path, "--y", "y", "--estimators", "naive,mc,gmm",
            "--weights", "mm", "--bootstrap", "30", "--seed", "7",
            "--json", json_path,
        ], capsys)
        assert code == 0
        assert "coefficient" in out
        report = json.loads(open(json_path).read())
        assert set(report["results"]) == {"naive", "mc", "gmm_minimax"}
        assert len(report["results"]["gmm_minimax"]["coef"]) == 3
        assert report["results"]["gmm_minimax"]["se"] is not None
        assert report["diagnostics"]["gmm_minimax"]["converged"]
        events = {key: report["diagnostics"]["gmm_minimax"][key]
                  for key in ("boot_capped", "boot_ql_fallback", "boot_ql_clamped")}
        assert events == {"boot_capped": 0, "boot_ql_fallback": 0, "boot_ql_clamped": 0}
        # 30 resamples share trig tables at this many Chebyshev points
        assert 16 < report["diagnostics"]["gmm_minimax"]["boot_trig_nodes"] < 600
        assert {key: report["diagnostics"]["gmm_minimax"][key]
                for key in ("capped", "ql_fallback", "ql_clamped")} == {
            "capped": 0, "ql_fallback": 0, "ql_clamped": 0}

    def test_repeated_weight_scheme_fit_once(self, csv_path, tmp_path, capsys):
        # "mm" and "minimax" name one scheme: one column, one fit, and the
        # same numbers as naming it once
        reports = {}
        for weights in ("mm", "mm,minimax"):
            path = tmp_path / f"{weights}.json"
            code, out, _ = run_cli(["fit", "--data", csv_path, "--y", "y",
                                    "--estimators", "gmm", "--weights", weights,
                                    "--bootstrap", "30", "--seed", "7", "--json", str(path)],
                                   capsys)
            assert code == 0
            assert out.splitlines()[0].split() == ["coefficient", "gmm_minimax"]
            reports[weights] = json.loads(path.read_text())
        assert reports["mm,minimax"]["config"]["weights"] == ["minimax"]
        assert reports["mm,minimax"]["results"] == reports["mm"]["results"]
        assert reports["mm,minimax"]["diagnostics"] == reports["mm"]["diagnostics"]

    def test_failed_scheme_reported_beside_the_others(self, csv_path, tmp_path, capsys,
                                                      monkeypatch):
        argv = ["fit", "--data", csv_path, "--y", "y", "--estimators", "mc,gmm",
                "--weights", "equal,mm", "--bootstrap", "30", "--seed", "7", "--json"]
        code, _, _ = run_cli(argv + [str(tmp_path / "ref.json")], capsys)
        assert code == 0

        fail_minimax(monkeypatch)
        code, out, err = run_cli(argv + [str(tmp_path / "forced.json")], capsys)
        assert code == 1
        assert "error: gmm_minimax: 30/30 bootstrap resamples failed" in err
        ref = json.loads((tmp_path / "ref.json").read_text())
        forced = json.loads((tmp_path / "forced.json").read_text())
        assert set(forced["results"]) == {"mc", "gmm_equal"}
        assert forced["results"]["gmm_equal"] == ref["results"]["gmm_equal"]
        assert "forced failure" in forced["diagnostics"]["gmm_minimax"]["error"]
        assert out.splitlines()[0].split() == ["coefficient", "mc", "gmm_equal"]

    def test_fit_deterministic_json(self, csv_path, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["fit", "--data", csv_path, "--y", "y", "--estimators", "mc,gmm",
                "--weights", "ql", "--bootstrap", "30", "--seed", "5"]
        assert run_cli(argv + ["--json", p1], capsys)[0] == 0
        assert run_cli(argv + ["--json", p2], capsys)[0] == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_missing_y_flag_usage_error(self, csv_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", csv_path])
        assert exc.value.code == 2
        # a negative seed is rejected by the parser as well
        code, out, err = run_cli(["fit", "--data", csv_path, "--y", "y", "--seed", "-1"], capsys)
        assert code == 2
        assert "argument --seed: need an integer >= 0, got '-1'" in err
        assert out == ""

    def test_gmm_without_bootstrap_rejected(self, csv_path, capsys):
        code, *_ = run_cli(["fit", "--data", csv_path, "--y", "y",
                            "--estimators", "gmm", "--bootstrap", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("case", ["missing", "not-utf8"])
    def test_gmm_arguments_checked_before_data(self, tmp_path, capsys, case):
        # a bad bootstrap count exits 2 whatever is wrong with --data
        data = tmp_path / "data.csv"
        if case == "not-utf8":
            data.write_bytes(b"y,w1_r1,w1_r2\n1.0,2.0,\xff\n2.0,1.0,1.5\n")
        code, out, err = run_cli(["fit", "--data", str(data), "--y", "y",
                                  "--bootstrap", "0"], capsys)
        assert code == 2
        assert err.startswith("error: need b >= 25 bootstrap resamples, got 0")
        assert out == ""

    def test_empty_estimator_list_usage_error(self, csv_path, capsys):
        code, out, err = run_cli(["fit", "--data", csv_path, "--y", "y",
                                  "--estimators", ","], capsys)
        assert code == 2
        assert "no estimators" in err
        assert out == ""

    def test_gmm_with_empty_weight_list_usage_error(self, csv_path, capsys):
        code, out, err = run_cli(["fit", "--data", csv_path, "--y", "y",
                                  "--estimators", "mc,gmm", "--weights", ","], capsys)
        assert code == 2
        assert "no weight scheme given" in err
        assert out == ""

    def test_naive_needs_no_corrected_fit(self, tmp_path, capsys):
        # the corrected normal equations of this file are singular; naive
        # least squares does not use them, and a failed MC fit is reported
        # beside the naive one, as a failed scheme is
        path = tmp_path / "singular.csv"
        path.write_text("y,w1_r1,w1_r2\n0.3,-0.5,0.5\n-0.1,-0.5,0.5\n"
                        "1.2,0.5,1.5\n0.9,0.5,1.5\n", encoding="utf-8")
        json_path = tmp_path / "naive.json"
        code, *_ = run_cli(["fit", "--data", str(path), "--y", "y",
                            "--estimators", "naive", "--json", str(json_path)], capsys)
        assert code == 0
        naive = json.loads(json_path.read_text())["results"]["naive"]
        assert np.allclose(naive["coef"], [0.95, 0.1])
        code, out, err = run_cli(["fit", "--data", str(path), "--y", "y",
                                  "--estimators", "naive,mc", "--json", str(json_path)], capsys)
        assert code == 1
        report = json.loads(json_path.read_text())
        assert report["results"] == {"naive": naive}
        assert "near-singular" in report["diagnostics"]["mc"]["error"]
        assert re.search(r"^error: mc: corrected normal equations are near-singular", err, re.M)
        assert out.splitlines()[0].split() == ["coefficient", "naive"]

    def test_report_matches_the_library(self, tmp_path, capsys):
        # every coefficient and SE of the report equals, bit for bit, that of
        # the library's own fits of the loaded file with the same b and seed
        d, _ = gen_dataset(SimConfig(setting="III", n=200, n_rep=2, m_reps=1,
                                     error_law="t2_5", seed=4), 0)
        path, json_path = tmp_path / "iii.csv", tmp_path / "iii.json"
        schema = CsvSchema(y="y", z=("z1", "z2"))
        write_csv(d, path, schema)
        code, *_ = run_cli(["fit", "--data", str(path), "--y", "y", "--z", "z1,z2",
                            "--estimators", "naive,mc,gmm", "--weights", "equal,mm,ql",
                            "--bootstrap", "30", "--seed", "9", "--json", str(json_path)],
                           capsys)
        assert code == 0
        results = json.loads(json_path.read_text())["results"]
        loaded = load_csv(path, schema)
        mc = fit_mc(loaded, estimate_covariances(loaded))
        want = {"naive": (fit_ols(loaded.y, build_design(loaded).v, loaded.p).theta, None),
                "mc": (mc.theta.theta, None)}
        for scheme, fit in fit_gmm_multi(loaded, SCHEMES, b=30, seed=9).items():
            want[f"gmm_{scheme}"] = (fit.theta.theta, fit.se)
        assert set(results) == set(want)
        for key, (coef, se) in want.items():
            assert results[key]["coef"] == coef.tolist()
            assert results[key]["se"] == (None if se is None else se.tolist())

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "json-dir"])
    def test_file_error_json_exit_1(self, csv_path, tmp_path, capsys, case):
        data, extra = csv_path, []
        if case == "missing":
            data = str(tmp_path / "missing.csv")
        elif case == "directory":
            data = str(tmp_path)
        elif case == "not-utf8":
            data = str(tmp_path / "latin1.csv")
            with open(data, "wb") as fh:
                fh.write(b"y,w1_r1,w1_r2\n1.0,2.0,\xff\n2.0,1.0,1.5\n")
        else:
            extra = ["--json", str(tmp_path / "no" / "dir" / "r.json")]
        code, out, _ = run_cli(["fit", "--data", data, "--y", "y",
                                "--estimators", "naive", *extra], capsys)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]

    def test_estimation_error_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,w1_r1,w1_r2\n1.0,2.0,oops\n2.0,1.0,1.5\n", encoding="utf-8")
        code, out, _ = run_cli(["fit", "--data", str(bad), "--y", "y"], capsys)
        assert code == 1
        assert "error" in json.loads(out.splitlines()[0])

    def test_header_only_file_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "header_only.csv"
        path.write_text("y,w1_r1,w1_r2\n", encoding="utf-8")
        code, out, _ = run_cli(["fit", "--data", str(path), "--y", "y"], capsys)
        assert code == 1
        assert "no data rows" in json.loads(out.splitlines()[0])["error"]


class TestCliSimulate:
    def test_small_m_skips_metric(self, capsys, tmp_path):
        code, out, _ = run_cli([
            "simulate", "--setting", "simple", "--error", "normal", "--n", "100",
            "--nrep", "2", "--M", "2", "--b", "30", "--seed", "1",
            "--estimators", "naive,mc", "--workers", "1",
            "--json", str(tmp_path / "r.json"),
        ], capsys)
        assert code == 0
        report = json.loads(open(tmp_path / "r.json").read())
        assert "raw estimates" in report["note"]

    def test_small_m_reports_failures(self, monkeypatch, capsys, tmp_path):
        def unstable(*args, **kwargs):
            raise BootstrapInstabilityError("forced bootstrap failure")

        monkeypatch.setattr(study_module, "fit_gmm_multi", unstable)
        json_path = tmp_path / "r.json"
        code, *_ = run_cli([
            "simulate", "--setting", "simple", "--n", "100", "--M", "2", "--b", "30",
            "--seed", "1", "--estimators", "mc,gmm_mm", "--workers", "1",
            "--json", str(json_path),
        ], capsys)
        assert code == 1
        report = json.loads(json_path.read_text())
        assert report["failures"] == [[m, "gmm_mm", "forced bootstrap failure"] for m in (0, 1)]
        assert all(np.all(np.isfinite(report["estimates"][m]["mc"])) for m in ("0", "1"))
        assert all(np.all(np.isnan(report["estimates"][m]["gmm_mm"])) for m in ("0", "1"))

    def test_standard_error_failures_are_not_failed_fits(self, monkeypatch, capsys, tmp_path):
        # every gmm_mm estimate stands, so the study exits 0 and reports the
        # failed sandwiches under their own count
        def singular(jac, omega_inv):
            raise StandardErrorError("forced failure")

        monkeypatch.setattr(gmm_module, "gmm_standard_errors", singular)
        json_path = tmp_path / "r.json"
        code, *_ = run_cli([
            "simulate", "--setting", "simple", "--n", "100", "--M", "2", "--b", "30",
            "--seed", "1", "--estimators", "mc,gmm_mm", "--workers", "1",
            "--json", str(json_path),
        ], capsys)
        assert code == 0
        report = json.loads(json_path.read_text())
        assert (report["n_failed"], report["n_se_failed"]) == (0, 2)
        assert report["failures"] == [[m, "gmm_mm", "standard errors: forced failure"]
                                      for m in (0, 1)]
        assert all(np.all(np.isfinite(report["estimates"][m]["gmm_mm"])) for m in ("0", "1"))

    def test_det_fallback_reported(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(study_module, "run_replication", constant_last_estimator)
        json_path = tmp_path / "r.json"
        code, *_ = run_cli(["simulate", "--setting", "simple", "--M", "20", "--seed", "1",
                            "--estimators", "naive,mc", "--workers", "1",
                            "--json", str(json_path)], capsys)
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["det_fallback"] == ["mc"]
        assert report["det_metrics"]["mc"] == 0.0

    def test_gmm_with_too_few_resamples_usage_error(self, capsys):
        code, _, err = run_cli(["simulate", "--M", "2", "--b", "10",
                                "--estimators", "mc,gmm_mm"], capsys)
        assert code == 2
        assert "b >= 25 bootstrap resamples, got 10" in err

    def test_study_json_and_csv(self, capsys, tmp_path):
        json_path = str(tmp_path / "sim.json")
        csv_path = str(tmp_path / "sim.csv")
        code, out, _ = run_cli([
            "simulate", "--setting", "simple", "--error", "normal", "--n", "120",
            "--M", "20", "--b", "30", "--seed", "2",
            "--estimators", "true,naive,mc", "--no-se", "--workers", "2",
            "--json", json_path, "--csv", csv_path,
        ], capsys)
        assert code == 0
        report = json.loads(open(json_path).read())
        assert report["det_metrics"]["naive"] > report["det_metrics"]["true"]
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "estimator,det_metric,n_converged"
        assert len(lines) == 4

    def test_byte_identical_reports(self, capsys, tmp_path):
        argv = ["simulate", "--setting", "simple", "--error", "t2.5", "--n", "100",
                "--M", "2", "--b", "30", "--seed", "9", "--estimators", "naive,mc",
                "--workers", "1"]
        p1, p2 = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        assert run_cli(argv + ["--json", p1], capsys)[0] == 0
        assert run_cli(argv + ["--json", p2], capsys)[0] == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_dump_data_round_trips(self, capsys, tmp_path):
        dump = tmp_path / "dumped"
        code, *_ = run_cli([
            "simulate", "--setting", "I", "--error", "normal", "--n", "60",
            "--M", "1", "--b", "30", "--seed", "4", "--estimators", "naive",
            "--workers", "1", "--dump-data", str(dump),
        ], capsys)
        assert code == 0
        files = sorted(os.listdir(dump))
        assert files == ["dataset_0000.csv"]
        from eivgmm.model_data import load_csv
        d = load_csv(dump / files[0], CsvSchema(y="y"))
        assert (d.n, d.p) == (60, 2)

    def test_unknown_estimator_usage_error(self, capsys):
        for estimators in ("bogus", ","):
            code, *_ = run_cli(["simulate", "--estimators", estimators, "--M", "2"], capsys)
            assert code == 2, estimators

    def test_bad_scalars_usage_error(self, capsys):
        for flag, value in (("--u-scale", "0"), ("--eps-var", "-1"), ("--M", "-1")):
            code, out, err = run_cli(["simulate", "--setting", "I", "--n", "60", "--M", "2",
                                      "--estimators", "naive", "--workers", "1",
                                      flag, value], capsys)
            assert code == 2, flag
            assert err.startswith("error: need"), flag
            assert out == ""
        # a negative seed is rejected by the parser, before SimConfig sees it
        code, out, err = run_cli(["simulate", "--setting", "I", "--n", "60", "--M", "2",
                                  "--estimators", "naive", "--workers", "1",
                                  "--seed", "-1"], capsys)
        assert code == 2
        assert "argument --seed: need an integer >= 0, got '-1'" in err
        assert out == ""

    def test_too_small_n_usage_error(self, capsys):
        # rejected with the other scalars, before any dataset is drawn
        code, out, err = run_cli(["simulate", "--n", "3", "--M", "20",
                                  "--estimators", "naive,mc", "--workers", "1"], capsys)
        assert code == 2
        assert err.startswith("error: need n >= p+q+2 = 4, got n = 3")
        assert out == ""

    def test_workers_below_one_usage_error(self, monkeypatch, capsys):
        for workers in ("0", "-2"):
            code, out, err = run_cli(["simulate", "--n", "60", "--M", "2",
                                      "--estimators", "naive", "--workers", workers], capsys)
            assert code == 2, workers
            assert err.startswith(f"error: need workers >= 1, got {workers}")
            assert out == ""
        # EIVGMM_WORKERS sets the default, which the same check rejects
        monkeypatch.setenv("EIVGMM_WORKERS", "0")
        code, out, err = run_cli(["simulate", "--n", "60", "--M", "2",
                                  "--estimators", "naive"], capsys)
        assert code == 2
        assert err.startswith("error: need workers >= 1, got 0")
        assert out == ""

    def test_rejected_argument_dumps_no_data(self, capsys, tmp_path):
        dump = tmp_path / "dumped"
        for argv in (["--estimators", "bogus"], ["--workers", "0"],
                     ["--estimators", "mc,gmm_mm", "--b", "10"]):
            code, out, _ = run_cli(["simulate", "--n", "60", "--M", "2",
                                    "--dump-data", str(dump), *argv], capsys)
            assert code == 2, argv
            assert out == "" and not dump.exists(), argv

    def test_non_integer_workers_env_usage_error(self, monkeypatch, capsys, tmp_path):
        # only the commands that start a pool read EIVGMM_WORKERS
        monkeypatch.setenv("EIVGMM_WORKERS", "two")
        path = tmp_path / "small.csv"
        write_csv(gen_dataset(SimConfig(setting="simple", n=60), 0)[0], path)
        code, _, err = run_cli(["fit", "--data", str(path), "--y", "y",
                                "--estimators", "naive"], capsys)
        assert code == 0 and "EIVGMM_WORKERS" not in err
        for argv in (["simulate", "--n", "60", "--M", "2", "--estimators", "naive"],
                     ["reproduce", "--only", "se"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert err.startswith("error: EIVGMM_WORKERS must be an integer, got 'two'")
            assert out == ""


class TestCliReproduce:
    def test_unknown_criterion_usage_error(self, capsys):
        code, *_ = run_cli(["reproduce", "--only", "nope"], capsys)
        assert code == 2
        code, out, err = run_cli(["reproduce", "--only", "se", "--seed", "-1"], capsys)
        assert code == 2
        assert "argument --seed: need an integer >= 0, got '-1'" in err
        assert out == ""

    def test_too_few_resamples_usage_error(self, capsys):
        code, _, err = run_cli(["reproduce", "--M", "20", "--b", "10"], capsys)
        assert code == 2
        assert "b >= 25 bootstrap resamples, got 10" in err

    def test_too_few_replications_usage_error(self, capsys):
        code, out, err = run_cli(["reproduce", "--M", "5"], capsys)
        assert code == 2
        assert "m_reps >= 20, got 5" in err
        assert out == ""

    def test_run_criterion_rejects_bad_arguments(self):
        with pytest.raises(UsageError, match="unknown criterion 'nope'"):
            run_criterion("nope", m_reps=20, b=25)
        with pytest.raises(UsageError, match="m_reps >= 20, got 5"):
            run_criterion("se", m_reps=5, b=25)

    def test_workers_below_one_usage_error(self, capsys):
        for workers in ("0", "-2"):
            code, out, err = run_cli(["reproduce", "--workers", workers], capsys)
            assert code == 2, workers
            assert err.startswith(f"error: need workers >= 1, got {workers}")
            assert out == ""

    @pytest.mark.parametrize("criterion", ["naive-ordering", "heavy-tails",
                                           "contaminated-simple", "se"])
    def test_missing_metric_is_an_estimation_error(self, monkeypatch, criterion):
        # the last estimator of every criterion fails in all 20 replications
        monkeypatch.setattr(study_module, "run_replication", failing_last_estimator)
        with pytest.raises(EstimationError, match=r"gmm_\w+.*: it needs .*, got 0"):
            run_criterion(criterion, m_reps=20, b=25, seed=3)

    def test_missing_metric_json_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(study_module, "run_replication", failing_last_estimator)
        code, out, _ = run_cli(["reproduce", "--only", "heavy-tails", "--M", "20",
                                "--b", "25", "--workers", "1"], capsys)
        assert code == 1
        assert "no det metric for ['gmm_mm']" in json.loads(out)["error"]

    def test_wall_time_on_stderr_only(self, monkeypatch, capsys):
        # the stdout line ends with the criterion's summary, so reruns'
        # stdout is identical; the seconds go to stderr
        monkeypatch.setattr(study_module, "run_replication", constant_last_estimator)
        _, out, err = run_cli(["reproduce", "--only", "heavy-tails", "--M", "20",
                               "--b", "25", "--workers", "1"], capsys)
        summary = run_criterion("heavy-tails", m_reps=20, b=25)["summary"]
        assert re.fullmatch(rf"\[(PASS|FAIL)\] heavy-tails: {re.escape(summary)}",
                            out.splitlines()[0])
        assert re.search(r"^\[\d+s\] heavy-tails$", err, re.MULTILINE)

    def test_criterion_reports_det_fallback(self, monkeypatch):
        monkeypatch.setattr(study_module, "run_replication", constant_last_estimator)
        outcome = run_criterion("heavy-tails", m_reps=20, b=25, seed=3)
        assert outcome["det_fallback"] == ["gmm_mm"]
        assert (outcome["n_failed"], outcome["n_se_failed"]) == (0, 0)
