"""The benchmark's three workloads: inputs, operations and correctness checks.

Each workload is built from a seed slot (the benchmark seed modulo
`SLOTS`), so every seed maps to inputs whose outputs were recorded in
`reference.json` at the commit that defined the benchmark. An operation is
one timed `run(label)`, which looks the package's functions up when it is
called, so a tracer installed in between sees every call; `check` compares
its output with the reference outside the timed region and returns an
error message or None.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from eivgmm.acceptance import REFERENCE_EPS_VAR, REFERENCE_U_SCALE, run_criterion
from eivgmm.covariance import estimate_covariances
from eivgmm.metrics import robust_mse
from eivgmm.model_data import CsvSchema, build_design, load_csv, make_dataset, write_csv
from eivgmm.moment_correction import fit_mc, fit_ols
from eivgmm.simgen import SimConfig, gen_dataset
from eivgmm.study import ESTIMATORS, run_replication

#: seeds map onto this many recorded input sets
SLOTS = 16
BASE_SEED = 20251017

#: estimates and det metrics may move by rounding-level amounts (a batched
#: bootstrap, another optimizer reaching the same minimum) and still pass
THETA_RTOL, THETA_ATOL = 1e-6, 1e-7
SE_RTOL = 1e-4
DET_RTOL = 1e-4
#: the CSV fits see bit-identical data; only summation order may change
CSV_RTOL, CSV_ATOL = 1e-9, 1e-12

GRID_CRITERIA = ("naive-ordering", "heavy-tails", "contaminated-simple", "se")


def _mismatch(label, got, ref, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=rtol, atol=atol, equal_nan=True):
        return f"{label}: got {got.tolist()}, reference {ref.tolist()}"
    return None


def _first(messages):
    return next((m for m in messages if m), None)


class Replication:
    """Closed loop, one client: `run_replication` on setting III, t2.5 errors,
    rho 0.5, n=1000, two replicates, calibrated scale, B=100, all six
    estimators with standard errors, over six consecutive replication indices."""

    name = "replication"
    labels = tuple(str(m) for m in range(6))
    #: replications an operation completes, and the per-layer divisor
    items_per_op = units_per_op = 1

    def __init__(self, slot, work_dir):
        self.cfg = SimConfig(setting="III", n=1000, n_rep=2, error_law="t2_5", rho=0.5,
                             seed=BASE_SEED + slot, sigma_eps_sq=REFERENCE_EPS_VAR,
                             u_scale=REFERENCE_U_SCALE)

    def warm_up(self):
        run_replication(dataclasses.replace(self.cfg, n=200), 0, ESTIMATORS, b=25)

    def run(self, label):
        return run_replication(self.cfg, int(label), ESTIMATORS, b=100, compute_se=True)

    def close(self):
        pass

    @staticmethod
    def errors(label, output):
        return [f"{name}: {msg}" for name, msg in output[2]]

    @staticmethod
    def record(label, output):
        estimates, ses, _ = output
        return {"estimates": {k: v.tolist() for k, v in estimates.items()},
                "ses": {k: v.tolist() for k, v in ses.items()}}

    @staticmethod
    def check(label, output, ref):
        estimates, ses, _ = output
        if set(estimates) != set(ref["estimates"]):
            return f"estimators {sorted(estimates)} differ from {sorted(ref['estimates'])}"
        return _first(
            [_mismatch(f"theta {k}", estimates[k], ref["estimates"][k], THETA_RTOL, THETA_ATOL)
             for k in ref["estimates"]]
            + [_mismatch(f"se {k}", ses[k], ref["ses"][k], SE_RTOL) for k in ref["ses"]]
        )


class Grid:
    """The four acceptance criteria through `run_criterion` at M=20, B=25,
    two pool workers: mixed p, all weight schemes, SEs on and off."""

    name = "grid"
    #: the request a user waits for is the whole grid, not one criterion
    per_round = True
    labels = GRID_CRITERIA
    m_reps = 20
    items_per_op = units_per_op = m_reps
    b = 25
    workers = 2

    def __init__(self, slot, work_dir):
        self.seed = BASE_SEED + slot

    def warm_up(self):
        cfg = SimConfig(setting="I", n=200, n_rep=2, seed=self.seed)
        run_replication(cfg, 0, ESTIMATORS, b=25, compute_se=True)
        rows = np.random.default_rng(self.seed).normal(size=(self.m_reps, 3))
        robust_mse(rows, np.zeros(3), seed=self.seed)

    def run(self, label):
        return run_criterion(label, m_reps=self.m_reps, b=self.b, seed=self.seed,
                             workers=self.workers)

    def close(self):
        pass

    @staticmethod
    def errors(label, output):
        n_failed = output.get("n_failed", 0)
        return [f"{n_failed} failed or non-converged fits"] if n_failed else []

    @staticmethod
    def record(label, output):
        keep = ("passed", "det_metrics", "mc_se", "avg_se")
        return {k: output[k] for k in keep if k in output}

    @staticmethod
    def check(label, output, ref):
        if bool(output["passed"]) != ref["passed"]:
            return f"passed={output['passed']}, reference {ref['passed']}"
        messages = []
        if "det_metrics" in ref:
            det, ref_det = output["det_metrics"], ref["det_metrics"]
            if set(det) != set(ref_det):
                return f"det metrics for {sorted(det)}, reference {sorted(ref_det)}"
            messages += [_mismatch(f"det {k}", det[k], ref_det[k], DET_RTOL) for k in ref_det]
        messages += [_mismatch(k, output[k], ref[k], SE_RTOL)
                     for k in ("mc_se", "avg_se") if k in ref]
        return _first(messages)


class CsvIngest:
    """Applied-user path: a ragged 25k-row file (2-4 replicates a row, p=2,
    q=2) through write_csv -> load_csv -> estimate_covariances ->
    build_design -> fit_ols + fit_mc. At 25k rows a pass takes about 2 s on
    two cores, so a run holds enough passes for a steady median."""

    name = "csv-ingest"
    labels = ("pass",)
    rows = 25_000
    items_per_op, units_per_op = rows, 1
    schema = CsvSchema(y="y", z=("z1", "z2"))

    def __init__(self, slot, work_dir):
        self.path = Path(work_dir) / "ingest.csv"
        self.data = self._ragged(self.rows, BASE_SEED + slot)

    @staticmethod
    def _ragged(n, seed):
        cfg = SimConfig(setting="III", n=n, n_rep=4, error_law="normal", rho=0.5, seed=seed)
        full, _ = gen_dataset(cfg, 0)
        keep = np.random.default_rng(seed).integers(2, 5, size=n)
        return make_dataset(full.y, full.z[:, 1:], [w[:r] for w, r in zip(full.w_reps, keep)])

    def warm_up(self):
        self._pass(self._ragged(500, BASE_SEED))

    def _pass(self, data):
        write_csv(data, self.path, self.schema)
        loaded = load_csv(self.path, self.schema)
        cov = estimate_covariances(loaded)
        design = build_design(loaded)
        ols = fit_ols(loaded.y, design.v, loaded.p)
        mc = fit_mc(loaded, cov, design)
        return loaded, ols, mc

    def run(self, label):
        return self._pass(self.data)

    @staticmethod
    def errors(label, output):
        return []

    @staticmethod
    def record(label, output):
        _, ols, mc = output
        return {"ols": ols.theta.tolist(), "mc": mc.theta.theta.tolist()}

    def check(self, label, output, ref):
        loaded, ols, mc = output
        src = self.data
        same = (loaded.y.tobytes() == src.y.tobytes()
                and loaded.z.tobytes() == src.z.tobytes()
                and len(loaded.w_reps) == len(src.w_reps)
                and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                        for a, b in zip(loaded.w_reps, src.w_reps)))
        if not same:
            return "CSV round trip is not bit-identical"
        return _first([_mismatch("ols", ols.theta, ref["ols"], CSV_RTOL, CSV_ATOL),
                       _mismatch("mc", mc.theta.theta, ref["mc"], CSV_RTOL, CSV_ATOL)])

    def close(self):
        self.path.unlink(missing_ok=True)


#: constructors take (seed slot, directory for the files a run writes)
WORKLOADS = {"replication": Replication, "grid": Grid, "csv-ingest": CsvIngest}
