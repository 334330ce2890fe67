"""Per-layer spans around survfuse's public functions, installed from outside.

The package binds names at import time (`from .survival import cox_loss`),
so a wrapper replaces the original under every name that refers to it in
every loaded survfuse module; methods are replaced on their class. Each call
records a span (id, parent id, name, start, end, pid, op id) in memory. A
layer is the module part of the span name, and a span's self time is its
duration minus the time its children in the same process cover.

`experiment` runs folds in a ProcessPoolExecutor. The tracer substitutes a
subclass that counts pool starts, submissions and pickled argument bytes,
times the wait on each result, and runs each task through `_traced_task`:
forked workers inherit the wrappers, and hand their spans, counters and
thread count back with the task's result.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "cohort", "smoothing", "nnet", "survival", "modulation",
          "fusion", "experiment")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index: int, name: str):
    """A call's argument by position or keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _dense_flops(per_row_and_unit: int):
    def measure(args, kwargs, result):
        layer = args[0]
        return {"flops": per_row_and_unit * result.shape[0] * layer.in_dim * layer.out_dim}
    return measure


def _risk_set_entries(args, kwargs, result):
    """Sum over events of the risk-set size |{j : t_j >= t_k}|, from the batch's
    times and events, whatever structure the batch keeps."""
    batch = args[0]
    times = np.sort(batch.times)
    event_times = batch.times[batch.events]
    entries = times.size * event_times.size - np.searchsorted(times, event_times).sum()
    return {"entries": int(entries)}


def _train_steps(args, kwargs, result):
    records, cfg = _arg(args, kwargs, 1, "records"), _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.epochs * math.ceil(len(records) / cfg.batch_size),
            "skipped": result.skipped_batches}


def _pretrain_steps(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.epochs * cfg.steps_per_epoch}


def _path_bytes(name: str):
    def measure(args, kwargs, result):
        return {"bytes": _file_bytes(_arg(args, kwargs, 0, name))}
    return measure


def _cohort_size(args, kwargs, result):
    return {"bytes": _file_bytes(_arg(args, kwargs, 0, "path")), "rows": len(result)}


def _c_index_n(args, kwargs, result):
    return {"n": int(np.size(_arg(args, kwargs, 0, "theta")))}


# (module, attribute, span name, work measure or None)
FUNCTION_SPANS = [
    ("survfuse.cli", "main", "cli.main", None),
    ("survfuse.cohort", "load_cohort", "cohort.load_cohort", _cohort_size),
    ("survfuse.cohort", "split_folds", "cohort.split_folds", None),
    ("survfuse.cohort", "fold_split", "cohort.fold_split", None),
    ("survfuse.smoothing", "pretrain_mlp_a", "smoothing.pretrain_mlp_a", _pretrain_steps),
    ("survfuse.smoothing", "interpolation_gap", "smoothing.interpolation_gap", None),
    ("survfuse.smoothing", "load_stage1", "smoothing.load_stage1", None),
    ("survfuse.smoothing", "load_cells", "smoothing.load_cells", None),
    ("survfuse.nnet", "mlp_forward", "nnet.mlp_forward", None),
    ("survfuse.nnet", "mlp_backward", "nnet.mlp_backward", None),
    ("survfuse.nnet", "sgd_step", "nnet.sgd_step", None),
    ("survfuse.nnet", "mse_loss", "nnet.mse_loss", None),
    ("survfuse.nnet", "load_checkpoint", "nnet.checkpoint_load", _path_bytes("path")),
    ("survfuse.nnet", "save_checkpoint", "nnet.checkpoint_save", _path_bytes("path")),
    ("survfuse.survival", "build_risk_sets", "survival.build_risk_sets", None),
    ("survfuse.survival", "cox_loss", "survival.cox_loss", None),
    ("survfuse.survival", "cox_gradient", "survival.cox_gradient", None),
    ("survfuse.survival", "concordance_index", "survival.concordance_index", _c_index_n),
    ("survfuse.survival", "fit_linear_cox", "survival.fit_linear_cox", None),
    ("survfuse.modulation", "branch_scores", "modulation.branch_scores", None),
    ("survfuse.modulation", "contribution_ratio", "modulation.contribution_ratio", None),
    ("survfuse.modulation", "apply_modulation", "modulation.apply_modulation", None),
    ("survfuse.fusion", "train_survival", "fusion.train_survival", _train_steps),
    ("survfuse.fusion", "predict_theta", "fusion.predict_theta", None),
    ("survfuse.fusion", "evaluate", "fusion.evaluate", None),
    ("survfuse.fusion", "build_model", "fusion.build_model", None),
    ("survfuse.fusion", "load_model", "fusion.load_model", None),
    ("survfuse.fusion", "save_model", "fusion.save_model", None),
    ("survfuse.experiment", "run_cross_validation", "experiment.cross_validation", None),
    ("survfuse.experiment", "run_single_fold", "experiment.fold", None),
    ("survfuse.experiment", "run_stage1", "experiment.run_stage1", None),
    ("survfuse.experiment", "run_final_fit", "experiment.final_fit", None),
    ("survfuse.experiment", "run_ablation", "experiment.ablation", None),
]
# (module, class, method, span name, work measure or None)
METHOD_SPANS = [
    ("survfuse.nnet", "DenseLayer", "forward", "nnet.dense_forward", _dense_flops(2)),
    ("survfuse.nnet", "DenseLayer", "backward", "nnet.dense_backward", _dense_flops(4)),
    ("survfuse.survival", "CoxBatch", "__init__", "survival.cox_batch", _risk_set_entries),
    ("survfuse.smoothing", "FrozenEncoder", "apply", "smoothing.encoder_apply", None),
    ("survfuse.fusion", "FusionModel", "forward_batch", "fusion.forward_batch", None),
    ("survfuse.fusion", "FusionModel", "backward_batch", "fusion.backward_batch", None),
    ("survfuse.fusion", "FusionModel", "frozen_rna_features",
     "fusion.frozen_rna_features", None),
]
# "pool.wait" (blocked on a pool result) belongs to no layer: self time is
# time a layer is busy, and experiment.pool.wait_s reports the waiting.
SPAN_NAMES = ([name for *_, name, _ in FUNCTION_SPANS]
              + [name for *_, name, _ in METHOD_SPANS] + ["pool.wait"])
# Counted but not timed: ~87k calls per train op, where a span each would
# cost more than the call itself.
COUNTED = [("survfuse.nnet", "as_matrix", "nnet.as_matrix.calls")]

# The tracer installed in this process. Forked pool workers inherit it, and
# `_traced_task` (which the pool unpickles by name) finds it here.
_ACTIVE: "Tracer | None" = None


@dataclass
class OpTrace:
    """Everything one traced op recorded, workers included."""

    wall_s: float
    spans: list[tuple] = field(default_factory=list)
    attrs: dict[int, dict] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (sid, parent, name, t0, t1, pid, op)
        self.attrs: dict[int, dict] = {}    # sid -> work measured for that call
        self.counts: dict[str, float] = defaultdict(float)
        self.current: int | None = None
        self.pid = os.getpid()
        self.next_id = 1
        self.op = 0
        self.missing: list[str] = []        # targets the package no longer has
        self._patches: list[tuple] = []
        self._originals: dict[int, str] = {}
        self._worker_payloads: list[dict] = []

    # --- wrappers ---

    def _span_wrapper(self, fn, name: str, measure=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            sid = tracer.next_id
            tracer.next_id = sid + 1
            tracer.current = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = parent
                tracer.spans.append((sid, parent, name, t0, t1, tracer.pid, tracer.op))
            if measure is not None:
                try:
                    tracer.attrs[sid] = measure(args, kwargs, result)
                except Exception:   # a changed signature must not fail the op
                    tracer.counts["trace.measure_errors"] += 1
            return result

        return wrapper

    def _count_wrapper(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedFuture(Future):
            def result(self, timeout=None):
                wait = tracer._span_wrapper(Future.result, "pool.wait")
                return wait(self, timeout)

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.counts["experiment.pool.starts"] += 1

            def submit(self, fn, /, *args, **kwargs):
                tracer.counts["experiment.pool.submits"] += 1
                tracer.counts["experiment.pool.submit_bytes_total"] += len(
                    pickle.dumps((args, kwargs)))
                inner = super().submit(_traced_task, fn, tracer.current, tracer.op,
                                       args, kwargs)
                outer = TracedFuture()

                def relay(done):
                    if done.cancelled():
                        outer.cancel()
                        outer.set_running_or_notify_cancel()
                    elif done.exception() is not None:
                        outer.set_exception(done.exception())
                    else:
                        result, payload = done.result()
                        tracer._worker_payloads.append(payload)
                        outer.set_result(result)

                inner.add_done_callback(relay)
                return outer

        return TracedPool

    # --- install / uninstall ---

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "survfuse" or n.startswith("survfuse."))]

    def install(self) -> None:
        global _ACTIVE
        import survfuse.cli  # noqa: F401  (loads every module the CLI reaches)

        self.missing = []
        replacement: dict[int, tuple] = {}
        for mod, attr, name, measure in FUNCTION_SPANS:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            replacement[id(fn)] = (fn, self._span_wrapper(fn, name, measure))
        for mod, attr, key in COUNTED:
            fn = getattr(sys.modules.get(mod), attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            replacement[id(fn)] = (fn, self._count_wrapper(fn, key))
        replacement[id(ProcessPoolExecutor)] = (ProcessPoolExecutor, self._pool_class())

        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        for mod, cls_name, meth, name, measure in METHOD_SPANS:
            cls = getattr(sys.modules.get(mod), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._span_wrapper(original, name, measure))
            self._patches.append((cls, meth, original))
        self._originals = {id(orig): f"{getattr(owner, '__name__', owner)}.{attr}"
                           for owner, attr, orig in self._patches}
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def unwrapped_references(self) -> list[str]:
        """Names in survfuse modules or classes that still reach an original."""
        found = []
        for module in self._package_modules():
            for attr, value in vars(module).items():
                if id(value) in self._originals:
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    for meth, member in vars(value).items():
                        if id(member) in self._originals:
                            found.append(f"{module.__name__}.{attr}.{meth}")
        return found

    # --- ops and workers ---

    def _reset_buffers(self) -> None:
        self.spans = []
        self.attrs = {}
        self.counts.clear()
        self._worker_payloads = []

    def run_op(self, fn):
        """Run fn() as one traced op; returns (fn's result, OpTrace)."""
        self.op += 1
        self._reset_buffers()
        self.current = None
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        trace = OpTrace(wall_s=wall, spans=self.spans, attrs=self.attrs,
                        counts=dict(self.counts))
        threads = []
        for payload in self._worker_payloads:
            trace.spans.extend(payload["spans"])
            trace.attrs.update(payload["attrs"])
            for key, value in payload["counts"].items():
                trace.counts[key] = trace.counts.get(key, 0) + value
            threads.append(payload["threads"])
        if threads:
            trace.counts["experiment.pool.worker_threads_max"] = max(threads)
        self._reset_buffers()
        return result, trace

    def begin_worker_task(self, parent: int | None, op: int) -> None:
        if self.pid != os.getpid():   # first task in a fresh worker
            self.pid = os.getpid()
            self.next_id = self.pid << 32   # span ids stay unique across processes
        self._reset_buffers()
        self.current = parent
        self.op = op

    def worker_payload(self) -> dict:
        payload = {"spans": self.spans, "attrs": self.attrs, "counts": dict(self.counts),
                   "threads": len(os.listdir(f"/proc/{self.pid}/task"))}
        self._reset_buffers()
        return payload


def _traced_task(fn, parent, op, args, kwargs):
    """Pool task body: run one submission and return its spans with its result."""
    tracer = _ACTIVE
    if tracer is None:   # a spawned (not forked) worker starts untraced
        tracer = Tracer()
        tracer.install()
    tracer.begin_worker_task(parent, op)
    result = fn(*args, **kwargs)
    return result, tracer.worker_payload()


# ---------------------------------------------------------------------------
# per-layer metrics


def span_table(trace: OpTrace) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, durations and work."""
    pid_of = {s[0]: s[5] for s in trace.spans}
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _name, t0, t1, pid, _op in trace.spans:
        if parent is not None and pid_of.get(parent) == pid:
            covered[parent] += t1 - t0
    table: dict[str, dict] = {}
    for sid, _parent, name, t0, t1, pid, _op in trace.spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": [], "work": defaultdict(float),
                                      "max_n": 0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - covered[sid]
        row["durations"].append(t1 - t0)
        for key, value in trace.attrs.get(sid, {}).items():
            row["work"][key] += value
            if key == "n":
                row["max_n"] = max(row["max_n"], value)
    return table


def op_metrics(trace: OpTrace) -> dict[str, float]:
    """Every per-layer metric of one traced op, by name."""
    table = span_table(trace)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "work": defaultdict(float), "max_n": 0}

    def row(name):
        return table.get(name, empty)

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(r["self_s"] for n, r in table.items()
                                     if n.split(".", 1)[0] == layer)
    for name in ("nnet.dense_forward", "nnet.dense_backward"):
        r = row(name)
        out[f"{name}.gflops"] = (r["work"]["flops"] / r["self_s"] / 1e9
                                 if r["self_s"] > 0 else 0.0)
    out["nnet.as_matrix.calls"] = trace.counts.get("nnet.as_matrix.calls", 0)
    out["nnet.checkpoint_load.bytes"] = row("nnet.checkpoint_load")["work"]["bytes"]
    out["nnet.checkpoint_save.bytes"] = row("nnet.checkpoint_save")["work"]["bytes"]
    train = row("fusion.train_survival")["work"]
    out["fusion.train_survival.steps"] = train["steps"]
    out["fusion.train_survival.skipped_ratio"] = (train["skipped"] / train["steps"]
                                                  if train["steps"] else 0.0)
    out["survival.cox_batch.risk_set_entries"] = row("survival.cox_batch")["work"]["entries"]
    out["survival.concordance_index.max_n"] = row("survival.concordance_index")["max_n"]
    out["cohort.load_cohort.bytes"] = row("cohort.load_cohort")["work"]["bytes"]
    out["cohort.load_cohort.rows"] = row("cohort.load_cohort")["work"]["rows"]
    out["smoothing.pretrain_mlp_a.steps"] = row("smoothing.pretrain_mlp_a")["work"]["steps"]
    folds = row("experiment.fold")["durations"]
    out["experiment.fold.count"] = len(folds)
    out["experiment.fold.p50_s"] = statistics.median(folds) if folds else 0.0
    submits = trace.counts.get("experiment.pool.submits", 0)
    out["experiment.pool.starts"] = trace.counts.get("experiment.pool.starts", 0)
    out["experiment.pool.submits"] = submits
    out["experiment.pool.submit_bytes"] = (
        trace.counts.get("experiment.pool.submit_bytes_total", 0) / submits if submits else 0)
    out["experiment.pool.wait_s"] = row("pool.wait")["total_s"]
    out["experiment.pool.worker_threads_max"] = trace.counts.get(
        "experiment.pool.worker_threads_max", 0)
    out["trace.measure_errors"] = trace.counts.get("trace.measure_errors", 0)
    out["trace.wall_s"] = trace.wall_s
    out["trace.spans"] = len(trace.spans)
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return {"bytes": "B", "gflops": "GFLOP/s", "skipped_ratio": "ratio",
            "overhead": "ratio"}.get(last, "count")


def write_spans(path, traces: list[OpTrace]) -> None:
    """All spans of a run as one compressed .npz (names stored once)."""
    names = sorted({s[2] for t in traces for s in t.spans})
    code = {n: i for i, n in enumerate(names)}
    spans = [s for t in traces for s in t.spans]
    np.savez_compressed(
        path, names=np.array(names),
        sid=np.array([s[0] for s in spans], dtype=np.int64),
        parent=np.array([-1 if s[1] is None else s[1] for s in spans], dtype=np.int64),
        name=np.array([code[s[2]] for s in spans], dtype=np.int32),
        start=np.array([s[3] for s in spans]), end=np.array([s[4] for s in spans]),
        pid=np.array([s[5] for s in spans], dtype=np.int64),
        op=np.array([s[6] for s in spans], dtype=np.int32))
