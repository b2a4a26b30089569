"""eivgmm benchmark: one command that times a workload and checks its outputs.

    python3 perfbench/run.py --workload {replication,grid,csv-ingest}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
`src/` of that checkout and exits with code 2 when there is none. Inputs
come from the seed: seed modulo `workloads.SLOTS` picks one of the input
sets whose outputs `reference.json` holds, and every output is checked
against it. A round is one pass over the workload's operations; rounds
repeat while the next one is expected to end within `--seconds`, and there
is always at least one. A request is what a user waits for: one operation,
or the whole round on `grid`, where it is one reduced `eivgmm reproduce`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones:

    latency_s         median seconds per request: one replication
                      (replication), the four acceptance criteria (grid),
                      one CSV round-trip pass (csv-ingest)
    setup_s           median of three set-ups, each timed from the start of
                      this script to the end of import, input generation and
                      warm-up; one in this process, two in child processes
    peak_rss_mb       peak resident set of this process plus that of its
                      largest child (pool workers), in MiB

With `--trace 1` every operation is run once untraced and then once with
every public function of the package's modules wrapped (see tracer.py), and
the metrics are the per-layer ones in BENCHMARK.json, from the traced runs;
`trace.overhead_frac` compares the two.
Times and counts are per replication (replication, grid) or per pass
(csv-ingest). Every run writes its result, the environment and each
operation's record to `.perfbench/`; a traced run writes its spans there too.

A summary line with the workload's own names (replication_s, reps_per_s,
rows_per_s, failed_frac) and a line recording the environment precede the
JSON line. `--record` runs every slot once and rewrites reference.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("replication", "grid", "csv-ingest")
SETUP_PROBES = 2

#: per-layer metrics: name -> (unit, how it is read); "span:<name>:<field>"
#: reads the span table, "count:<name>" a counter, the rest are computed
LAYER_METRICS = {
    "phase.build_ecf.s": ("s", "span:phase.build_ecf:s"),
    "phase.build_ecf.calls": ("count", "span:phase.build_ecf:calls"),
    "phase.build_ecf.capped": ("count", "count:phase.build_ecf.capped"),
    "phase.grad_dtilde.s": ("s", "span:phase.grad_dtilde:s"),
    "phase.grad_dtilde.calls": ("count", "span:phase.grad_dtilde:calls"),
    "phase.trig_cells": ("count", "count:phase.trig_cells"),
    "phase.grad_and_hessian.s": ("s", "span:phase.grad_and_hessian:s"),
    "phase.grad_and_hessian.calls": ("count", "span:phase.grad_and_hessian:calls"),
    "weights.make_weights.s": ("s", "span:weights.make_weights:s"),
    "weights.make_weights.calls": ("count", "span:weights.make_weights:calls"),
    "weights.ql_fallback": ("count", "count:weights.ql_fallback"),
    "weights.ql_clamped": ("count", "count:weights.ql_clamped"),
    "gmm.fit_gmm_multi.s": ("s", "span:gmm.fit_gmm_multi:s"),
    "gmm.fit_gmm_multi.self_s": ("s", "span:gmm.fit_gmm_multi:self_s"),
    "gmm.n_iter": ("count", "count:gmm.n_iter"),
    "gmm.used_fallback": ("count", "count:gmm.used_fallback"),
    "gmm.nonconverged": ("count", "count:gmm.nonconverged"),
    "gmm.boot_failed": ("count", "count:gmm.boot_failed"),
    "gmm.gmm_standard_errors.s": ("s", "span:gmm.gmm_standard_errors:s"),
    "covariance.sigma_x_from_parts.s": ("s", "span:covariance.sigma_x_from_parts:s"),
    "covariance.sigma_x_from_parts.calls": ("count", "span:covariance.sigma_x_from_parts:calls"),
    "covariance.estimate_covariances.s": ("s", "span:covariance.estimate_covariances:s"),
    "model_data.write_csv.s": ("s", "span:model_data.write_csv:s"),
    "model_data.load_csv.s": ("s", "span:model_data.load_csv:s"),
    "model_data.build_design.s": ("s", "span:model_data.build_design:s"),
    "moment_correction.fit_mc.s": ("s", "span:moment_correction.fit_mc:s"),
    "moment_correction.fit_ols.s": ("s", "span:moment_correction.fit_ols:s"),
    "simgen.gen_dataset.s": ("s", "span:simgen.gen_dataset:s"),
    "metrics.robust_mse.s": ("s", "span:metrics.robust_mse:s"),
    "metrics.robust_mse.calls": ("count", "span:metrics.robust_mse:calls"),
    "study.pool_util": ("ratio", "pool_util"),
    "study.cpu_s_per_rep": ("s", "cpu_s_per_unit"),
    "trace.latency_s": ("s", "traced_latency"),
    "trace.overhead_frac": ("ratio", "overhead"),
    "trace.unaccounted_frac": ("ratio", "unaccounted"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description="eivgmm benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print the set-up seconds and exit")
    ap.add_argument("--record", action="store_true",
                    help="run every seed slot once and rewrite reference.json "
                         "(only the --workload's entry when one is given)")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    return args


# -- environment --------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_at_start):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


# -- measuring ----------------------------------------------------------------

def _cpu_s(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_op(workload, refs, index, label):
    """Time one operation, then check its output; returns the op record."""
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    child0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        output = workload.run(label)
        error = None
    except Exception:  # a failed operation is counted, not fatal
        output, error = None, traceback.format_exc(limit=3).strip()
    wall = time.perf_counter() - t0
    rec = {
        "round": index, "label": label, "wall_s": wall,
        "cpu_s": _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0,
        "child_cpu_s": _cpu_s(resource.RUSAGE_CHILDREN) - child0,
    }
    if output is not None:
        rec["items"] = workload.items_per_op
        rec["units"] = workload.units_per_op
        errors = workload.errors(label, output)
        error = "; ".join(errors) if errors else None
        if error is None:
            error = workload.check(label, output, refs[label])
    rec["error"] = error
    return rec


def measure(workload, refs, seconds, tracer=None):
    """Repeat rounds while the next is expected to fit in `seconds`.

    Untraced, returns (records, []). Traced, every operation runs untraced
    and then traced, so the pair sees the same machine: returns (untraced
    records, traced records).
    """
    plain, traced = [], []
    callers = [sys.modules[type(workload).__module__]]
    start = time.perf_counter()
    for index in itertools.count():
        r0 = time.perf_counter()
        for label in workload.labels:
            plain.append(run_op(workload, refs, index, label))
            if tracer is not None:
                tracer.install(callers)
                try:
                    traced.append(run_op(workload, refs, index, label))
                finally:
                    tracer.restore()
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - r0) > seconds:
            return plain, traced


def request_walls(workload, records):
    """Seconds per request: per operation, or per round where a round is one
    request."""
    if not getattr(workload, "per_round", False):
        return [r["wall_s"] for r in records]
    walls = collections.defaultdict(float)
    for r in records:
        walls[r["round"]] += r["wall_s"]
    return list(walls.values())


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _setup_probes(args):
    """Set-up seconds of fresh interpreters, each run to completion."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(tracer, workload, plain, traced):
    from tracer import self_seconds, summarize

    spans, counts = tracer.spans_all()
    own = self_seconds(spans)
    table = summarize(spans, own)
    units = sum(r.get("units", 0) for r in traced) or 1
    traced_wall = sum(r["wall_s"] for r in traced)
    main_self = sum(own[s[0]] for s in spans if s[5] == tracer.main_pid)
    workers = getattr(workload, "workers", 0)
    computed = {
        "pool_util": (sum(r["child_cpu_s"] for r in traced) / (traced_wall * workers)
                      if workers else 0.0),
        "cpu_s_per_unit": sum(r["cpu_s"] for r in traced) / units,
        "traced_latency": statistics.median(request_walls(workload, traced)),
        "overhead": traced_wall / sum(r["wall_s"] for r in plain) - 1.0,
        "unaccounted": (traced_wall - main_self) / traced_wall,
    }
    metrics = {}
    for name, (unit, how) in LAYER_METRICS.items():
        kind, _, key = how.partition(":")
        if kind == "span":
            span_name, field = key.rsplit(":", 1)
            value = table.get(span_name, {}).get(field, 0) / units
        elif kind == "count":
            value = counts.get(key, 0) / units
        else:
            value = computed[kind]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, spans, table


def _summary_line(workload, plain, latency):
    """The workload's headline figure under its own name, and its failures."""
    requests = len(request_walls(workload, plain))
    per_request = sum(r.get("items", 0) for r in plain) / requests
    failed = sum(r["error"] is not None for r in plain)
    figure = {
        "replication": f"replication_s={latency:.4f} s",
        "grid": f"reps_per_s={per_request / latency:.4f} 1/s",
        "csv-ingest": f"rows_per_s={per_request / latency:.1f} 1/s",
    }[workload.name]
    return (f"workload={workload.name} {figure} (median of {requests}) "
            f"failed_frac={failed / len(plain):.4f} ({failed}/{len(plain)})")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "eivgmm" / "__init__.py").is_file():
        print(f"error: no eivgmm package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.record:
        return record(workloads, args.workload)

    WORK.mkdir(exist_ok=True)
    slot = args.seed % workloads.SLOTS
    workload = workloads.WORKLOADS[args.workload](slot, WORK)
    workload.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    with open(REFERENCE, encoding="utf-8") as fh:
        refs = json.load(fh)[args.workload][str(slot)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        spill = WORK / f"spill-{os.getpid()}"
        shutil.rmtree(spill, ignore_errors=True)
        spill.mkdir()
        tracer = Tracer(spill)
    try:
        plain, traced = measure(workload, refs, args.seconds, tracer)
    finally:
        workload.close()
    records = plain + traced
    failures = [r for r in records if r["error"] is not None]
    for r in failures:
        print(f"FAILED {args.workload} {r['label']}: {r['error']}", file=sys.stderr)

    env = environment(load_at_start)
    latency = statistics.median(request_walls(workload, plain))
    if tracer is None:
        peak = _peak_rss_mb()
        setups = [setup_s] + _setup_probes(args)
        metrics = {
            "latency_s": {"value": latency, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
        extra = {"setup_samples_s": setups}
    else:
        metrics, spans, table = layer_metrics(tracer, workload, plain, traced)
        extra = {"span_table": table}
        shutil.rmtree(tracer.spill_dir, ignore_errors=True)
        with open(WORK / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "pid"],
                       "spans": spans}, fh)

    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    with open(WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "env": env, "workload": args.workload, "seed": args.seed,
                   "slot": slot, "ops": records, **extra}, fh, indent=1)
    print(_summary_line(workload, plain, latency))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def record(workloads, only=None):
    """Run every workload (or only the named one) once per slot and write
    the reference outputs."""
    WORK.mkdir(exist_ok=True)
    out = {}
    if only is not None and REFERENCE.is_file():
        with open(REFERENCE, encoding="utf-8") as fh:
            out = json.load(fh)
    out.update(slots=workloads.SLOTS, base_seed=workloads.BASE_SEED)
    for name in WORKLOAD_NAMES if only is None else (only,):
        out[name] = {}
        for slot in range(workloads.SLOTS):
            workload = workloads.WORKLOADS[name](slot, WORK)
            entry = {}
            for label in workload.labels:
                output = workload.run(label)
                for error in workload.errors(label, output):
                    print(f"warning: {name} slot {slot} {label}: {error}", file=sys.stderr)
                entry[label] = workload.record(label, output)
            workload.close()
            out[name][str(slot)] = entry
            print(f"recorded {name} slot {slot}", file=sys.stderr, flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
