"""The benchmark's workload process (started by ``run.py``).

``probe`` mode does one workload's set-up in a fresh interpreter and
prints a ready line: ``run.py`` times several of these for
``setup_s``. ``reference`` mode computes the per-model outputs every
call is checked against and writes them to ``--references``. ``run``
mode sets the workload up, warms up with one session per model, and
runs the closed loop for the requested seconds. Untraced it reports
every call's wall time; traced it alternates traced and untraced
rounds and reports the per-layer metrics. Its last stdout line is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads
from spans import OP_TYPES, SpanRecorder, self_times, summarize

CLOCK = time.perf_counter


# ---------------------------------------------------------------------
# leak checks
# ---------------------------------------------------------------------
def open_fds():
    return len(os.listdir("/proc/self/fd"))


def child_pids():
    pids = set()
    task_dir = "/proc/self/task"
    for task in os.listdir(task_dir):
        with open(os.path.join(task_dir, task, "children")) as handle:
            pids.update(handle.read().split())
    return pids


# ---------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------
class Tally:
    def __init__(self):
        self.records = []   # one dict per call
        self.failures = []

    def add(self, record):
        self.records.append(record)
        if record["problems"]:
            self.failures.append({
                "call": len(self.records),
                "model": workloads.ROSTER[record["index"]][0],
                "causes": record["problems"],
            })

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return len(self.failures)


def run_call(workload, index, recorder=None, phase="measured"):
    """One workload call: untimed ``before``, the timed call, then the
    untimed output and leak checks."""
    fds, kids = open_fds(), child_pids()
    ctx = workload.before(index)
    root = None
    if recorder is not None:
        recorder.install()
        root = recorder.open("call", "bench")
    error = None
    start = CLOCK()
    try:
        result = workload.call(index, ctx)
    except Exception as exc:   # a failed call is counted, not fatal
        result = None
        error = f"raised {type(exc).__name__}: {exc}"
    wall = CLOCK() - start
    if recorder is not None:
        recorder.close(root)
        recorder.uninstall()
    problems, stats = workload.after(index, ctx, result)
    del result
    if error is not None:
        problems.insert(0, error)
    if open_fds() > fds:
        problems.append(f"file descriptors leaked: {open_fds() - fds}")
    leftover = child_pids() - kids
    if leftover:
        problems.append(f"child processes left running: {sorted(leftover)}")
    return {
        "index": index, "wall": wall, "problems": problems,
        "stats": stats, "traced": recorder is not None, "phase": phase,
    }


def run_round(workload, tally, recorder=None, phase="measured"):
    for index in range(len(workloads.ROSTER)):
        tally.add(run_call(workload, index, recorder, phase))


def measure(workload, seconds, tally, recorder=None):
    """Whole rounds (one session per model) until ``seconds`` pass.
    With a recorder, rounds alternate traced and untraced, starting
    traced, and at least three rounds run."""
    start = CLOCK()
    rounds = 0
    min_rounds = 3 if recorder is not None else 1
    while rounds < min_rounds or CLOCK() - start < seconds:
        traced = recorder is not None and rounds % 2 == 0
        run_round(workload, tally, recorder if traced else None)
        rounds += 1
    return rounds


def peak_rss_mb():
    """Peak resident memory of this process and its forked workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # Linux reports KiB


# ---------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------
def mean_stat(records, key):
    values = [r["stats"].get(key, 0) for r in records]
    return sum(values) / len(values) if values else 0.0


def max_stat(records, key):
    return max((r["stats"].get(key, 0) for r in records), default=0)


def optimizer_pass(workload):
    """Regret of Vista's plan and absolute cost-model ratios, in the
    ``explore`` setting (raw images, serial backend) on this
    workload's dataset. Every roster CNN runs all six logical plans
    twice; the fastest run of each plan counts. One traced run of
    Vista's plan per model gives the observed stage self times."""
    from repro.core.plans import ALL_PLANS
    from repro.observe.progress import predict_stage_plan

    metrics = {}
    predicted = {"inference": 0.0, "train": 0.0}
    observed = {"inference": 0.0, "train": 0.0}
    recorder = SpanRecorder()
    for index, (name, _) in enumerate(workloads.ROSTER):
        best = {}
        for _ in range(2):
            for label, plan in ALL_PLANS.items():
                vista = workload.vista(index)
                start = CLOCK()
                vista.run(plan=plan)
                wall = CLOCK() - start
                best[label] = min(wall, best.get(label, wall))
        vista = workload.vista(index)
        pick = next(
            label for label, plan in ALL_PLANS.items() if plan == vista.plan
        )
        config = vista.optimize()
        metrics[f"optimizer.regret.{name}"] = (
            best[pick] / min(best.values()), "ratio"
        )
        metrics[f"optimizer.num_partitions.{name}"] = (
            config.num_partitions, "count"
        )
        stage_plan = predict_stage_plan(
            vista.model_stats, vista.layers, vista.dataset_stats,
            vista.plan, config, vista.resources, backend=vista.backend,
        )
        for stage in stage_plan.stages:
            bucket = stage.key.split(":", 1)[0]
            if bucket in predicted:
                predicted[bucket] += stage.predicted_s
        first = len(recorder.spans)
        recorder.install()
        try:
            vista.run()
        finally:
            recorder.uninstall()
        spans = recorder.spans[first:]
        selfs = self_times(spans)
        for span in spans:
            if span.layer == "cnn" and span.name != "cnn.build":
                observed["inference"] += selfs[span.id]
            elif span.name in ("ml.fit", "features.pool"):
                observed["train"] += selfs[span.id]
    for bucket in predicted:
        metrics[f"costmodel.ratio.{bucket}"] = (
            predicted[bucket] / observed[bucket], "ratio"
        )
    return metrics, recorder


def store_pass(workload):
    """FeatureStore cost of the ``reuse`` sessions (Appendix B): per
    roster CNN, one session from the lowest explored layer that writes
    a fresh store and one that reads it, traced. Values are per
    session."""
    from repro.features.store import FeatureStore

    recorder = SpanRecorder()
    store = FeatureStore(os.path.join(workload.workdir, "store-pass"))
    sessions = 0
    recorder.install()
    try:
        for index in range(len(workloads.ROSTER)):
            for _ in range(2):
                workload.vista(index).run(
                    premat_layer=workload.layers[index][0],
                    feature_store=store,
                )
                sessions += 1
    finally:
        recorder.uninstall()
    by_name, _ = summarize(recorder.spans)
    get = by_name.get("features.store_get", {"self_s": 0.0, "attrs": {}})
    put = by_name.get("features.store_put", {"self_s": 0.0, "attrs": {}})
    metrics = {
        "features.store_get_s": (get["self_s"] / sessions, "s"),
        "features.store_put_s": (put["self_s"] / sessions, "s"),
        "features.store_hits": (get["attrs"].get("hits", 0) / sessions,
                                "count"),
        "features.store_misses": (get["attrs"].get("misses", 0) / sessions,
                                  "count"),
        "features.store_bytes": (put["attrs"].get("bytes", 0) / sessions,
                                 "B"),
    }
    return metrics, recorder


def per_layer(workload, tally, recorder):
    traced = [r for r in tally.records
              if r["phase"] == "measured" and r["traced"]]
    untraced = [r for r in tally.records
                if r["phase"] == "measured" and not r["traced"]]
    calls = len(traced)
    by_name, _ = summarize(recorder.spans)

    def entry(name):
        return by_name.get(name, {"calls": 0, "self_s": 0.0, "attrs": {}})

    def self_s(*names):
        return sum(entry(n)["self_s"] for n in names) / calls

    def count(*names):
        return sum(entry(n)["calls"] for n in names) / calls

    def attr(name, key):
        return entry(name)["attrs"].get(key, 0) / calls

    forward = ("cnn.forward", "cnn.partial_forward")
    cnn_names = forward + tuple(f"cnn.op.{op}" for op in OP_TYPES)
    cnn_total = sum(entry(n)["self_s"] for n in cnn_names)
    flops = sum(entry(n)["attrs"].get("flops", 0) for n in forward)
    wave_tasks = entry("dataflow.wave")["attrs"].get("tasks", 0)
    metrics = {
        "optimizer.self_s": (self_s("optimizer"), "s"),
        "cnn.self_s": (cnn_total / calls, "s"),
        "cnn.calls": (count(*forward), "count"),
        "cnn.gflops_per_s": (
            flops / cnn_total / 1e9 if cnn_total else 0.0, "GFLOP/s",
        ),
        "cnn.build_self_s": (self_s("cnn.build"), "s"),
    }
    for op in OP_TYPES:
        metrics[f"cnn.op.{op}.self_s"] = (self_s(f"cnn.op.{op}"), "s")
    metrics.update({
        "features.pool_self_s": (self_s("features.pool"), "s"),
        "dataflow.read_self_s": (self_s("dataflow.read"), "s"),
        "dataflow.join_self_s": (self_s("dataflow.join"), "s"),
        "dataflow.map_self_s": (self_s("dataflow.map"), "s"),
        "dataflow.cache_self_s": (self_s("dataflow.cache"), "s"),
        "dataflow.wave_self_s": (self_s("dataflow.wave"), "s"),
        "dataflow.waves": (count("dataflow.wave"), "count"),
        "dataflow.tasks": (wave_tasks / calls, "count"),
        "dataflow.wave_s_per_task": (
            entry("dataflow.wave")["self_s"] / wave_tasks
            if wave_tasks else 0.0, "s",
        ),
        "dataflow.codec_self_s": (self_s("dataflow.codec"), "s"),
        "dataflow.codec_bytes": (attr("dataflow.codec", "bytes"), "B"),
        "dataflow.shuffle_bytes": (mean_stat(traced, "shuffle_bytes"), "B"),
        "dataflow.spilled_bytes": (mean_stat(traced, "spilled_bytes"), "B"),
    })
    for region in ("user", "storage", "dl", "driver"):
        metrics[f"memory.peak_bytes.{region}"] = (
            max_stat(traced, f"peak_{region}"), "B"
        )
    metrics.update({
        "ml.fit_self_s": (self_s("ml.fit"), "s"),
        "ml.fit_calls": (count("ml.fit"), "count"),
        "recovery.put_self_s": (self_s("recovery.put"), "s"),
        "recovery.puts": (count("recovery.put"), "count"),
        "recovery.bytes_written": (mean_stat(traced, "bytes_written"), "B"),
        "recovery.commit_self_s": (self_s("recovery.commit"), "s"),
        "recovery.restore_self_s": (self_s("recovery.restore"), "s"),
        "recovery.restored_partitions": (
            mean_stat(traced, "restored_partitions"), "count"
        ),
        "recovery.saved_ratio": (mean_stat(traced, "saved_ratio"), "ratio"),
        "resilient.attempts": (mean_stat(traced, "attempts"), "count"),
        "resilient.resumes": (mean_stat(traced, "resumes"), "count"),
        "resilient.degrades": (mean_stat(traced, "degrades"), "count"),
        "resilient.task_retries": (mean_stat(traced, "task_retries"),
                                   "count"),
        "observe.emit_self_s": (self_s("observe.emit"), "s"),
        "observe.events": (count("observe.emit"), "count"),
        "observe.ledger_bytes": (mean_stat(traced, "ledger_bytes"), "B"),
    })
    # Overhead pairs every untraced round with the traced round after
    # it; the first traced round has no untraced predecessor (and on
    # ``reuse`` it is the one that writes the store).
    paired_traced = [r["wall"] for r in traced[len(workloads.ROSTER):]]
    paired_untraced = untraced[:len(paired_traced)]
    roots = [s for s in recorder.spans if s.name == "call"]
    selfs = self_times(recorder.spans)
    metrics["bench.trace_overhead"] = (
        sum(paired_traced) / sum(r["wall"] for r in paired_untraced),
        "ratio",
    )
    metrics["bench.unattributed_share"] = (
        sum(selfs[s.id] for s in roots) / sum(s.duration for s in roots),
        "ratio",
    )
    return metrics, {"calls_traced": calls}


def layer_shares(recorder):
    """Share of traced call wall time per layer (for the report)."""
    _, by_layer = summarize(recorder.spans)
    total = sum(s.duration for s in recorder.spans if s.name == "call")
    return {layer: round(v / total, 4) for layer, v in sorted(by_layer.items())}


# ---------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------
def blas_threads():
    import ctypes

    names = ("scipy_openblas_get_num_threads64_",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "blas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_fingerprint():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cluster_cpu": workloads.CLUSTER_CPU,
    }


# ---------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("probe", "reference", "run"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--references", default=None,
                        help="JSON file written by the reference mode")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        _, timings = workloads.setup(args.workload, args.seed)
        print(json.dumps({"ready": True, **timings}), flush=True)
        return 0

    workload = workloads.make(args.workload, args.seed, args.workdir)
    if args.mode == "reference":
        with open(args.references, "w") as handle:
            json.dump(workload.compute_references(), handle)
        return 0

    references = None
    if args.references:
        with open(args.references) as handle:
            references = json.load(handle)
    out = {}
    try:
        workload.prepare(references)
        tally = Tally()
        run_round(workload, tally, phase="warmup")
        workload.begin()
        recorder = SpanRecorder() if args.trace else None
        rounds = measure(workload, args.seconds, tally, recorder)
        if recorder is None:
            out["walls"] = [r["wall"] for r in tally.records
                            if r["phase"] == "measured"]
            out["rounds"] = rounds
        else:
            metrics, notes = per_layer(workload, tally, recorder)
            notes["layer_share_of_call"] = layer_shares(recorder)
            optimizer_metrics, optimizer_spans = optimizer_pass(workload)
            metrics.update(optimizer_metrics)
            store_metrics, store_spans = store_pass(workload)
            metrics.update(store_metrics)
            out["metrics"] = {k: [float(v), u] for k, (v, u) in metrics.items()}
            out["notes"] = notes
            if args.spans_out:
                with open(args.spans_out, "w") as handle:
                    json.dump({
                        "workload": args.workload, "seed": args.seed,
                        "host": host_fingerprint(),
                        "spans": [s.to_dict() for s in recorder.spans],
                        "optimizer_pass_spans": [
                            s.to_dict() for s in optimizer_spans.spans
                        ],
                        "store_pass_spans": [
                            s.to_dict() for s in store_spans.spans
                        ],
                    }, handle)
    finally:
        workload.close()
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "records_per_call": workload.records,
        "peak_rss_mb": peak_rss_mb(),
        "host": host_fingerprint(),
        **out,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
