"""Benchmark: predicted-vs-observed cost-model calibration.

Runs every logical plan of one small end-to-end feature-transfer
workload with tracing and metrics on, then joins the cost model's
predictions against the run via
:func:`repro.explain.calibration.calibrate`:

- per-region memory peaks predicted by the engine-exact wave
  arithmetic of :func:`repro.explain.peaks.predict_workload_peaks`
  against the executor's observed memory waterlines (deterministic —
  the ratios must sit inside ``PEAK_PREDICTION_BAND``);
- per-stage runtime predicted by
  :func:`repro.costmodel.runtime.estimate_runtime` (priced on the
  executable CNN) against the measured span-tree wall seconds;
- the ``op_seconds{op_type}`` per-operator histogram each run records.

The run itself asserts that every plan completes and every memory
ratio sits inside the band. ``BENCH_calibration.json`` is the
committed ``trace/v2`` envelope that CI gates calibration *drift*
against: a fresh envelope fails ``repro report --slo slo/default.yaml
FRESH --baseline BENCH_calibration.json`` if any shared
predicted/observed ratio moved past its two-sided drift rule. The
committed result file is intentionally tracked in git: it is the
calibration record, not a scratch artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_calibration.py
        [--records N] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from harness import print_table, trace_payload, write_results  # noqa: E402

from repro.cnn import build_model  # noqa: E402
from repro.core.config import VistaConfig  # noqa: E402
from repro.data import foods_dataset  # noqa: E402
from repro.explain.calibration import calibrate  # noqa: E402
from repro.memory.model import GB, MemoryBudget  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_calibration.json",
)

NUM_NODES = 2
CORES_PER_NODE = 4
CPU = 2
NUM_PARTITIONS = 8
LAYERS = ("fc7", "fc8")


def build_workload(records):
    """The standard calibration workload: mini AlexNet over a synthetic
    Foods sample under 1 GB-per-region worker budgets — roomy enough
    that all six plans complete, so every row carries ratios."""
    cnn = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=records)
    config = VistaConfig(
        cpu=CPU, num_partitions=NUM_PARTITIONS, mem_storage_bytes=0,
        mem_user_bytes=0, mem_dl_bytes=0, join="shuffle",
        persistence="deserialized",
    )
    budget = MemoryBudget(
        system_bytes=32 * GB, os_reserved_bytes=0, user_bytes=1 * GB,
        core_bytes=1 * GB, storage_bytes=1 * GB, dl_bytes=1 * GB,
        driver_bytes=1 * GB, storage_elastic=True,
    )
    return cnn, dataset, config, budget


def run_calibration(records):
    cnn, dataset, config, budget = build_workload(records)
    return calibrate(
        cnn, dataset, list(LAYERS), config, budget,
        num_nodes=NUM_NODES, cores_per_node=CORES_PER_NODE,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=24)
    parser.add_argument("--out", default=RESULT_PATH,
                        help="result path (default: BENCH_calibration.json)")
    args = parser.parse_args(argv)

    report = run_calibration(args.records)

    print_table(
        f"Cost-model calibration ({report.model} x {LAYERS}, "
        f"{report.num_records} records, {NUM_NODES} nodes)",
        ["plan", "crashed", "mem user", "mem core", "mem dl",
         "mem storage", "mem driver", "rt inference", "rt join",
         "rt train"],
        [
            (
                row.plan,
                row.crash_kind or "-",
                *(
                    (lambda r: "-" if r is None else f"{r:.3f}")(
                        row.memory_ratios.get(region)
                    )
                    for region in ("user", "core", "dl", "storage", "driver")
                ),
                *(
                    (lambda r: "-" if r is None else f"{r:.1f}x")(
                        row.runtime_ratios.get(stage)
                    )
                    for stage in ("inference", "join", "train")
                ),
            )
            for row in report.rows
        ],
    )

    # the calibration contract: every plan completes on this workload
    # and every predicted memory peak lands inside the documented band
    assert not any(row.crashed for row in report.rows), (
        "calibration workload crashed: " +
        ", ".join(r.plan for r in report.rows if r.crashed)
    )
    band = report.in_band()
    assert not band, f"memory ratios out of band: {band}"
    assert all(row.runtime_ratios for row in report.rows), (
        "some plan produced no runtime ratios"
    )

    payload = trace_payload(
        "calibration", report.results(),
        records=args.records, num_nodes=NUM_NODES,
        cores_per_node=CORES_PER_NODE, cpu=CPU,
        num_partitions=NUM_PARTITIONS, layers=list(LAYERS),
        model=report.model,
    )
    payload["report"] = report.to_dict()
    write_results(args.out, payload)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
