"""Spans for the traced run, recorded from outside the program.

The traced run wraps public functions of ``repro`` at each layer
boundary (see :func:`boundaries`). Each wrapper records a span — name,
layer, start, end and parent — into an in-memory list; nothing is
written until the run ends. A span's self time is its duration minus
the durations of its direct children, so nested layers (a CNN forward
inside a dataflow wave, a Conv2D inside a bottleneck block) are never
counted twice.

Two limits follow from measuring outside the program: work a forked
worker does is visible only as the parent's ``run_wave`` span, and
time a layer spends waiting is not separable from its busy time.
"""

from __future__ import annotations

import sys
import time


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, layer, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def add(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = self.attrs.get(key, 0) + value

    def to_dict(self):
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "layer": self.layer, "start": self.start, "end": self.end,
            "attrs": self.attrs or {},
        }


class SpanRecorder:
    """Keeps spans in memory and patches the boundary functions while
    installed. A forked worker records into its own copy, which is
    lost when it exits."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._clock = time.perf_counter

    # -- spans -----------------------------------------------------------
    def open(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name} closed out of order (top was {popped.name})"
            )

    # -- patching --------------------------------------------------------
    def _wrapper(self, fn, name, layer, annotate):
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, name, layer, annotate=None):
        """Wrap ``cls.attr`` (plain, class- or static method) as
        defined on ``cls`` itself."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self._wrapper(raw.__func__, name, layer, annotate)
            )
        else:
            wrapped = self._wrapper(raw, name, layer, annotate)
        self._set(cls, attr, wrapped)

    def wrap_function(self, fn, name, layer, annotate=None):
        """Wrap a module-level function under every ``repro`` module
        name bound to it, so callers that imported it by name (``from
        ... import join as physical_join``) see the wrapper too."""
        wrapped = self._wrapper(fn, name, layer, annotate)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self):
        for kind, target, attr, name, layer, annotate in boundaries():
            if kind == "method":
                self.wrap_method(target, attr, name, layer, annotate)
            else:
                self.wrap_function(target, name, layer, annotate)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------
# annotations: counts recorded at the boundary where the work happens
# ---------------------------------------------------------------------
def _cnn_flops(span, args, kwargs, result):
    cnn, batch = args[0], args[1]
    rest = list(args[2:])
    if span.name == "cnn.forward":   # forward_batch(batch, upto=None)
        upto = kwargs.get("upto", rest[0] if rest else None)
        start, upto = 0, upto if upto is not None else cnn.num_layers
    else:                            # partial_forward_batch(batch, start, upto)
        start = kwargs.get("start", rest[0] if rest else 0)
        upto = kwargs.get("upto", rest[1] if len(rest) > 1 else None)
    span.add("flops", cnn.flops_between(start, upto) * len(batch))


def _store_get(span, args, kwargs, result):
    span.add("hits" if result is not None else "misses", 1)


def _store_put(span, args, kwargs, result):
    span.add("bytes", int(result))


def _to_buffer(span, args, kwargs, result):
    span.add("bytes", len(result))


def _from_buffer(span, args, kwargs, result):
    span.add("bytes", len(args[1]))


def _wave_tasks(span, args, kwargs, result):
    span.add("tasks", len(args[3]))   # run_wave(context, worker, wave, ...)


#: The op classes whose ``apply_batch`` gets its own span.
OP_TYPES = (
    "Conv2D", "LocalResponseNorm", "MaxPool2D", "AvgPool2D",
    "GlobalAvgPool", "ReLU", "Dense", "BottleneckBlock", "Flatten",
)


def boundaries():
    """``(kind, target, attr, span name, layer, annotate)`` for every
    wrapped boundary. Layers are the repo's modules."""
    from repro.cnn import layers as cnn_layers
    from repro.cnn import zoo
    from repro.cnn.network import CNN
    from repro.core.api import Vista
    from repro.dataflow import joins
    from repro.dataflow.backend import ProcessPoolBackend, SerialBackend
    from repro.dataflow.columnar import ColumnarBlock
    from repro.dataflow.table import DistributedTable
    from repro.features import pooling
    from repro.features.store import FeatureStore
    from repro.ml.logistic import LogisticRegression
    from repro.observe.ledger import RunLedger
    from repro.recovery.store import CheckpointStore

    found = [
        ("method", Vista, "optimize", "optimizer", "optimizer", None),
        ("function", zoo.build_model, None, "cnn.build", "cnn", None),
        ("method", CNN, "forward_batch", "cnn.forward", "cnn", _cnn_flops),
        ("method", CNN, "partial_forward_batch", "cnn.partial_forward",
         "cnn", _cnn_flops),
        ("function", pooling.pool_feature_tensor_batch, None,
         "features.pool", "features", None),
        ("function", pooling.pool_feature_tensors, None,
         "features.pool", "features", None),
        ("method", FeatureStore, "get", "features.store_get", "features",
         _store_get),
        ("method", FeatureStore, "put", "features.store_put", "features",
         _store_put),
        ("method", DistributedTable, "from_rows", "dataflow.read",
         "dataflow", None),
        ("method", DistributedTable, "map_blocks", "dataflow.map",
         "dataflow", None),
        ("method", DistributedTable, "cache", "dataflow.cache", "dataflow",
         None),
        ("method", DistributedTable, "unpersist", "dataflow.cache",
         "dataflow", None),
        ("function", joins.join, None, "dataflow.join", "dataflow", None),
        ("method", SerialBackend, "run_wave", "dataflow.wave", "dataflow",
         _wave_tasks),
        ("method", ProcessPoolBackend, "run_wave", "dataflow.wave",
         "dataflow", _wave_tasks),
        ("method", ColumnarBlock, "to_buffer", "dataflow.codec", "dataflow",
         _to_buffer),
        ("method", ColumnarBlock, "from_buffer", "dataflow.codec",
         "dataflow", _from_buffer),
        ("method", LogisticRegression, "fit", "ml.fit", "ml", None),
        ("method", CheckpointStore, "put_partition", "recovery.put",
         "recovery", None),
        ("method", CheckpointStore, "commit_stage", "recovery.commit",
         "recovery", None),
        ("method", CheckpointStore, "restore_stage", "recovery.restore",
         "recovery", None),
        ("method", RunLedger, "emit", "observe.emit", "observe", None),
    ]
    for op in OP_TYPES:
        found.append((
            "method", getattr(cnn_layers, op), "apply_batch",
            f"cnn.op.{op}", "cnn", None,
        ))
    return found


# ---------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------
def self_times(spans):
    """``{span id: self seconds}`` — duration minus direct children."""
    child_total = {}
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] = (
                child_total.get(span.parent, 0.0) + span.duration
            )
    return {
        span.id: span.duration - child_total.get(span.id, 0.0)
        for span in spans
    }


def summarize(spans):
    """Per span name: calls, self seconds, and summed attributes."""
    selfs = self_times(spans)
    by_name = {}
    by_layer = {}
    for span in spans:
        entry = by_name.setdefault(
            span.name, {"calls": 0, "self_s": 0.0, "attrs": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[span.id]
        for key, value in (span.attrs or {}).items():
            entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + selfs[span.id]
    return by_name, by_layer
