"""Self-test of the tracer, kept out of the package's own test suite.

    python3 -m pytest -q perfbench/tracer_selftest.py

One traced train_modulated op at the default seed must give the exact call
counts that follow from its shape (15 folds x 12 epochs on 600 patients plus
the final fit), attribute no more self time than the op took, and leave no
survfuse name bound to an unwrapped original. A small train with --jobs 2
must hand every worker span back.
"""

from __future__ import annotations

import json
import shutil

import pytest

import run
import tracer as tr
from workloads import DEFAULT_SEED, WORKLOADS

STEPS = 15 * 12 * 18 + 12 * 19   # fold steps (560 rows, batch 32) + final fit
HELD_OUT = 15
C_INDEX_CALLS = 15 * 12 + 12 + HELD_OUT


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    run.check_checkout()
    work_root = tmp_path_factory.mktemp("selftest")
    _, work = run.run_setups(WORKLOADS["train_modulated"], DEFAULT_SEED, work_root,
                             repeats=1)
    yield work
    shutil.rmtree(work_root, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(inputs):
    cli = run.import_cli()
    tracer = tr.Tracer()
    tracer.install()
    try:
        bypass = tracer.unwrapped_references()
        argv = WORKLOADS["train_modulated"].op(inputs, DEFAULT_SEED, 1)
        (code, text), trace = tracer.run_op(lambda: run.in_process_op(cli, argv))
    finally:
        tracer.uninstall()
    return {"tracer": tracer, "bypass": bypass, "code": code, "text": text,
            "trace": trace, "metrics": tr.op_metrics(trace), "work": inputs}


def test_op_succeeds_with_reference_output(traced):
    assert traced["code"] == 0, traced["text"]
    _, problems = run.check_outputs(WORKLOADS["train_modulated"], traced["work"],
                                    DEFAULT_SEED, [])
    assert problems == []


def test_exact_counts(traced):
    m = traced["metrics"]
    assert m["nnet.sgd_step.calls"] == STEPS == 3468
    assert m["survival.cox_gradient.calls"] == STEPS
    assert m["survival.cox_loss.calls"] == STEPS + HELD_OUT == 3483
    assert m["survival.concordance_index.calls"] == C_INDEX_CALLS == 207
    assert m["fusion.train_survival.steps"] == STEPS
    assert m["modulation.contribution_ratio.calls"] == STEPS   # the final fit modulates too
    assert m["experiment.fold.count"] == 15


def test_self_times_fit_in_wall_time(traced):
    trace = traced["trace"]
    total_self = sum(row["self_s"] for row in tr.span_table(trace).values())
    assert 0.0 < total_self <= trace.wall_s
    assert all(s[4] >= s[3] for s in trace.spans)


def test_no_call_bypasses_a_wrapper(traced):
    tracer = traced["tracer"]
    assert tracer.missing == []
    assert traced["bypass"] == []
    # after uninstall every name is back on its original
    import survfuse.fusion
    import survfuse.survival
    assert survfuse.fusion.cox_loss is survfuse.survival.cox_loss
    assert not hasattr(survfuse.survival.cox_loss, "__wrapped__")


def test_every_declared_per_layer_metric_is_produced(traced):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    run_level = {"cli.startup_s", "trace.overhead"}
    assert [n for n in declared if n not in traced["metrics"] and n not in run_level] == []
    assert traced["metrics"]["trace.measure_errors"] == 0
    assert run.trace_problems(traced["metrics"], declared) == []


def test_pool_workers_hand_their_spans_back(inputs, tmp_path):
    cli = run.import_cli()
    counts = {}
    for jobs in (1, 2):
        argv = ["train", "--out", str(tmp_path / f"jobs{jobs}"),
                "--cohort", str(inputs / "cohort.csv"), "--stage1", str(inputs / "stage1.ckpt"),
                "--k-folds", "3", "--epochs", "1", "--jobs", str(jobs)]
        tracer = tr.Tracer()
        tracer.install()
        try:
            (code, text), trace = tracer.run_op(lambda: run.in_process_op(cli, argv))
        finally:
            tracer.uninstall()
        assert code == 0, text
        counts[jobs] = tr.op_metrics(trace)
        if jobs == 2:
            assert len({s[5] for s in trace.spans}) > 1, "no span came from a worker"
    one, two = counts[1], counts[2]
    assert two["experiment.pool.starts"] == 1
    assert two["experiment.pool.submits"] == 3
    assert two["experiment.pool.submit_bytes"] > 0
    assert two["experiment.pool.worker_threads_max"] >= 1
    assert one["trace.measure_errors"] == two["trace.measure_errors"] == 0
    for name in tr.SPAN_NAMES:
        if name != "pool.wait":
            assert two[f"{name}.calls"] == one[f"{name}.calls"], name
    assert two["nnet.as_matrix.calls"] == one["nnet.as_matrix.calls"]
