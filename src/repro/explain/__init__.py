"""Plan EXPLAIN, what-if analysis, and cost-model calibration.

The observability face of the optimizer and cost model: ``explain``
exposes Algorithm 1's full candidate ledger, ``what_if`` prices pinned
configurations, ``predict_workload_peaks`` predicts an executable
run's per-region memory waterline peaks, and ``calibrate`` joins all
of those predictions against measured spans and waterlines.
"""

from repro.explain.calibration import (
    CalibrationReport,
    CalibrationRow,
    calibrate,
)
from repro.explain.ledger import ExplainResult, explain
from repro.explain.peaks import peak_ratios, predict_workload_peaks
from repro.explain.whatif import (
    PIN_KEYS,
    VERDICT_FEASIBLE,
    WhatIfReport,
    what_if,
)

__all__ = [
    "CalibrationReport",
    "CalibrationRow",
    "ExplainResult",
    "PIN_KEYS",
    "VERDICT_FEASIBLE",
    "WhatIfReport",
    "calibrate",
    "explain",
    "peak_ratios",
    "predict_workload_peaks",
    "what_if",
]
