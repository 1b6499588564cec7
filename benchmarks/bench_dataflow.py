"""Dataflow benchmark: columnar tensor-native partitions vs the
legacy row-list layout, measured in one process.

Runs the same mini workload (alexnet, three feature layers) through a
set of logical plans twice — once with the default columnar partition
layout and once inside :class:`~repro.dataflow.columnar.row_layout` —
and reads every number back out of the exported trace spans:

- **Feature-stage inference** (``inference:<layer>`` spans whose input
  is a stored feature block, not the raw image table) is where the
  zero-copy contract pays: the columnar path feeds the stored ``(N,
  D)`` block straight into the batched kernels while the row path
  re-stacks N rows and splits the result back. The bench asserts the
  columnar layout wins this stage by >= 1.3x (full mode).
- **Single-buffer serialization**: one fixed 64-record mini-table is
  encoded once as the columnar wire buffer and once as N per-row
  pickles. The buffer must be smaller, and its per-row size is
  recorded as the ``serialized_bytes_per_row`` gauge — the encode is
  deterministic (fixed seed, raw little-endian buffers), so the
  committed value is compared *exactly* by the
  ``exact-serialized-bytes-per-row`` rules in ``slo/default.yaml``:
  any byte of wire-format drift flips CI.
- End-to-end plan walls for both layouts ride along as the perf
  trajectory (cross-machine CI gates them at 3x like the other
  benches, through ``repro report --slo``).

The committed ``BENCH_dataflow.json`` is the shared ``trace/v2``
envelope (span tree + metrics block) and is intentionally tracked in
git: it is the perf record, not a scratch artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataflow.py [--quick]
        [--records N] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import (  # noqa: E402
    find_span,
    print_table,
    trace_payload,
    write_results,
)

from repro.cnn import build_model  # noqa: E402
from repro.core.config import VistaConfig  # noqa: E402
from repro.core.executor import FeatureTransferExecutor  # noqa: E402
from repro.core.plans import ALL_PLANS  # noqa: E402
from repro.data import foods_dataset  # noqa: E402
from repro.dataflow.columnar import ColumnarBlock, row_layout  # noqa: E402
from repro.dataflow.context import local_context  # noqa: E402
from repro.metrics import MetricsRegistry  # noqa: E402
from repro.trace import Tracer  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_dataflow.json",
)

#: Plans the layout comparison runs (one per materialization family —
#: the reordered variants share the same dataflow operators).
PLANS = ("staged", "lazy", "eager")

#: Acceptance bound (full mode): columnar feature-stage inference must
#: beat the row layout by at least this factor.
MIN_FEATURE_INFERENCE_SPEEDUP = 1.3

#: The serialization micro-table is pinned (size and seed) so its
#: uncompressed columnar encode — and therefore the committed
#: ``serialized_bytes_per_row`` gauge — is bit-deterministic across
#: machines and across --quick/full runs.
SERIALIZATION_TABLE_RECORDS = 64


def _span_sum(trace, prefix, attr_filter=None):
    """Sum of ``wall_s`` over spans whose name starts with ``prefix``
    (optionally filtered on the span's attrs)."""
    total = 0.0
    stack = [trace]
    while stack:
        node = stack.pop()
        if node["name"].startswith(prefix):
            if attr_filter is None or attr_filter(node.get("attrs", {})):
                total += node["wall_s"]
        stack.extend(node.get("children", ()))
    return total


def run_plan(plan_name, records, metrics=None):
    """One traced end-to-end run; returns the exported span tree."""
    model = build_model("alexnet", profile="mini")
    layers = model.feature_layers[-3:]
    dataset = foods_dataset(num_records=records)
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    tracer = Tracer(name=f"dataflow:{plan_name}")
    executor = FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config,
        downstream_fn=lambda f, l: {}, tracer=tracer, metrics=metrics,
    )
    executor.run(ALL_PLANS[plan_name])
    return tracer.export()


def bench_plans(records, tracer):
    """Each plan under both layouts; numbers come from the traces."""
    # One untimed run per layout first: the first run pays numpy and
    # allocator warm-up, which would otherwise land entirely on the
    # columnar side (it runs first within each plan).
    run_plan(PLANS[0], min(records, 128))
    with row_layout():
        run_plan(PLANS[0], min(records, 128))
    results = []
    for plan_name in PLANS:
        with tracer.span(f"plan:{plan_name}", records=records) as sp:
            columnar_trace = run_plan(plan_name, records)
            with row_layout():
                row_trace = run_plan(plan_name, records)
            feature_stage = lambda attrs: attrs.get("from_layer") != "image"
            columnar_feature = _span_sum(
                columnar_trace, "inference:", feature_stage
            )
            row_feature = _span_sum(row_trace, "inference:", feature_stage)
            entry = {
                "plan": plan_name,
                "records": records,
                "columnar_wall_seconds": find_span(
                    columnar_trace, "workload")["wall_s"],
                "row_wall_seconds": find_span(
                    row_trace, "workload")["wall_s"],
                "columnar_inference_seconds": _span_sum(
                    columnar_trace, "inference:"
                ),
                "row_inference_seconds": _span_sum(row_trace, "inference:"),
                "columnar_feature_inference_seconds": columnar_feature,
                "row_feature_inference_seconds": row_feature,
            }
            entry["wall_speedup"] = (
                entry["row_wall_seconds"] / entry["columnar_wall_seconds"]
            )
            if columnar_feature > 0:
                # Not gated against the baseline: this ratio is built
                # from sub-millisecond spans — too noisy for a
                # cross-machine quick-vs-full gate. The full-mode run
                # asserts the floor itself instead.
                entry["feature_inference_gain"] = (
                    row_feature / columnar_feature
                )
            sp.add("plans", 1)
            results.append(entry)
    return results


def bench_serialization(repeats, registry):
    """Single-buffer wire format vs N per-row pickles on the pinned
    mini-table: sizes (deterministic) and encode+decode round-trip
    times (measured)."""
    dataset = foods_dataset(num_records=SERIALIZATION_TABLE_RECORDS)
    rows = [dict(row) for row in dataset.structured_rows]
    block = ColumnarBlock.from_rows(rows)

    buffer = block.to_buffer()
    n_pickle_bytes = sum(
        len(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
        for row in rows
    )
    bytes_per_row = len(buffer) / block.num_rows
    registry.gauge("serialized_bytes_per_row").set(bytes_per_row)

    def roundtrip_columnar():
        ColumnarBlock.from_buffer(block.to_buffer()).column("features")

    def roundtrip_pickle():
        [pickle.loads(pickle.dumps(
            row, protocol=pickle.HIGHEST_PROTOCOL))
         for row in rows]

    def best_of(fn):
        best = float("inf")
        for _ in range(max(5, repeats)):
            start = time.perf_counter()
            for _ in range(10):
                fn()
            best = min(best, time.perf_counter() - start)
        return best

    columnar_seconds = best_of(roundtrip_columnar)
    pickle_seconds = best_of(roundtrip_pickle)
    return {
        "records": SERIALIZATION_TABLE_RECORDS,
        "columnar_buffer_bytes": len(buffer),
        "n_pickle_bytes": n_pickle_bytes,
        "serialized_bytes_per_row": bytes_per_row,
        "columnar_roundtrip_seconds": columnar_seconds,
        "pickle_roundtrip_seconds": pickle_seconds,
        "roundtrip_speedup": pickle_seconds / columnar_seconds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer records; skip writing the result file")
    parser.add_argument("--records", type=int, default=None)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the result envelope to PATH (even with --quick)",
    )
    args = parser.parse_args(argv)
    records = args.records or (128 if args.quick else 512)

    tracer = Tracer(name="bench_dataflow")
    results = bench_plans(records, tracer)
    registry = MetricsRegistry()
    serialization = bench_serialization(
        repeats=3 if args.quick else 10, registry=registry
    )
    # One metrics-enabled columnar run so the committed envelope
    # carries the engine's own counters (shuffle/spill bytes, the
    # batched-fallback counter) next to the bench numbers.
    run_plan("staged", records, metrics=registry)
    trace = tracer.export()

    print_table(
        f"Columnar vs row layout (alexnet mini, {records} records)",
        ["plan", "row wall s", "col wall s", "wall",
         "row feat-inf s", "col feat-inf s", "feat-inf"],
        [
            (
                r["plan"],
                f"{r['row_wall_seconds']:.4f}",
                f"{r['columnar_wall_seconds']:.4f}",
                f"{r['wall_speedup']:.2f}x",
                f"{r['row_feature_inference_seconds']:.4f}",
                f"{r['columnar_feature_inference_seconds']:.4f}",
                f"{r.get('feature_inference_gain', 0):.2f}x",
            )
            for r in results
        ],
    )
    print(
        f"\nserialization ({serialization['records']} records): "
        f"single buffer {serialization['columnar_buffer_bytes']}B vs "
        f"{serialization['n_pickle_bytes']}B as per-row pickles "
        f"({serialization['serialized_bytes_per_row']:.1f} B/row); "
        f"round-trip {serialization['roundtrip_speedup']:.1f}x faster"
    )

    # The wire buffer must beat N pickles on size — deterministic, so
    # asserted in every mode.
    assert (serialization["columnar_buffer_bytes"]
            < serialization["n_pickle_bytes"]), (
        f"single-buffer encode {serialization['columnar_buffer_bytes']}B "
        f"is not smaller than {serialization['n_pickle_bytes']}B of "
        f"per-row pickles"
    )
    if not args.quick:
        worst = min(
            r["feature_inference_gain"] for r in results
            if "feature_inference_gain" in r
        )
        assert worst >= MIN_FEATURE_INFERENCE_SPEEDUP, (
            f"feature-stage inference only {worst:.2f}x faster columnar "
            f"vs rows; expected >= {MIN_FEATURE_INFERENCE_SPEEDUP}x"
        )

    out_path = args.out or (None if args.quick else RESULT_PATH)
    if out_path:
        write_results(out_path, trace_payload(
            "dataflow", results + [serialization], trace=trace,
            metrics=registry, records=records,
            serialization_records=SERIALIZATION_TABLE_RECORDS,
        ))
        print(f"\nwrote {out_path}")
    return results


if __name__ == "__main__":
    main()
