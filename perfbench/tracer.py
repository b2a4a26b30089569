"""Span tracer that wraps eivgmm's public functions from outside the package.

`Tracer.install` replaces every public function of the traced modules at each
module attribute that refers to it, which is the name each caller looks up
(`eivgmm.gmm.grad_dtilde`, for instance, is the name the bootstrap calls). A
wrapped call records one span: name, start, end, parent span and process.
Spans stay in memory. Pool workers forked while tracing is on inherit the
wrappers; each writes its spans to the spill directory when a top-level call
in it ends, and `Tracer.spans_all` merges those files with the parent's.
`Tracer.restore` puts every original function back.

A name that a later version of the package removes is simply not wrapped and
reads as zero calls.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("simgen", "model_data", "covariance", "moment_correction", "phase",
          "weights", "gmm", "metrics", "study")


def _arg(args, kwargs, index, name):
    """Positional-or-keyword argument lookup without binding the signature."""
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _rows(design) -> int:
    return int(getattr(design, "v", design).shape[0])


def _trig_cells(counts, args, kwargs, result, design_name):
    """n observations x n_quad nodes: the size of one pair of sin/cos tables."""
    design = _arg(args, kwargs, 1, design_name)
    ecf = _arg(args, kwargs, 3, "ecf")
    counts["phase.trig_cells"] += _rows(design) * int(ecf.grid.size)


def _ecf_hook(counts, args, kwargs, result):
    counts["phase.build_ecf.capped"] += int(bool(getattr(result, "capped", False)))


def _weights_hook(counts, args, kwargs, result):
    counts["weights.ql_fallback"] += int(bool(getattr(result, "fallback", False)))
    counts["weights.ql_clamped"] += int(getattr(result, "max_clamp", 0.0) > 0.0)


def _gmm_hook(counts, args, kwargs, result):
    for fit in result.values():
        counts["gmm.n_iter"] += int(getattr(fit, "n_iter", 0))
        counts["gmm.used_fallback"] += int(bool(getattr(fit, "used_fallback", False)))
        counts["gmm.nonconverged"] += int(not getattr(fit, "converged", True))
        counts["gmm.boot_failed"] += int(getattr(fit, "n_boot_failed", 0))


#: counters read off a wrapped call's arguments or result, by span name
HOOKS = {
    "phase.build_ecf": _ecf_hook,
    "phase.grad_dtilde": functools.partial(_trig_cells, design_name="design"),
    "phase.grad_and_hessian": functools.partial(_trig_cells, design_name="v"),
    "weights.make_weights": _weights_hook,
    "gmm.fit_gmm_multi": _gmm_hook,
}


class Tracer:
    """In-memory spans `(id, parent, name, start, end, pid)` plus counters."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._local_root_depth = 0
        self._next_id = 0
        self._patched = []

    # -- recording -------------------------------------------------------

    def _adopt_process(self):
        """First span in a forked worker: drop what the parent had recorded,
        keep its open spans as cross-process parents."""
        self._pid = os.getpid()
        self.spans = []
        self.counts = collections.Counter()
        self._local_root_depth = len(self._stack)

    def _flush_worker(self):
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans = []
        self.counts = collections.Counter()

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._adopt_process()
            tracer._next_id += 1
            span_id = (tracer._pid << 32) | tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, tracer._pid))
            if hook is not None:
                try:
                    hook(tracer.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result type reads as zero counts
            if tracer._pid != tracer.main_pid and len(tracer._stack) == tracer._local_root_depth:
                tracer._flush_worker()
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self, callers=()):
        """Wrap every public function (a module-level function whose name has
        no leading underscore) of each layer module, wherever the package's
        modules or the extra `callers` modules refer to it."""
        targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"eivgmm.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "eivgmm" or name.startswith("eivgmm."))]
        for module in [*modules, *callers]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    setattr(module, attr, targets[value])
                    self._patched.append((module, attr, value))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- reading ---------------------------------------------------------

    def spans_all(self):
        """This process's spans plus those the pool workers wrote out."""
        spans = list(self.spans)
        counts = collections.Counter(self.counts)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    chunk = json.loads(line)
                    spans.extend(tuple(s) for s in chunk["spans"])
                    counts.update(chunk["counts"])
        return spans, counts


def self_seconds(spans):
    """Span id -> its duration minus the durations of its direct children in
    the same process; children in another process ran in parallel and are
    not subtracted."""
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[4] - s[3] for s in spans}
    for _, parent, _, start, end, pid in spans:
        owner = by_id.get(parent)
        if owner is not None and owner[5] == pid:
            own[parent] -= end - start
    return own


def summarize(spans, own):
    """Per span name: calls, inclusive seconds and self seconds."""
    table = collections.defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span_id, _, name, start, end, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own[span_id]
    return dict(table)
