"""In-memory spans around the calls into each cfrpnet layer.

The program is not edited: a span is recorded by swapping a module-level
name (``cfrpnet.experiment.train_hybrid``, ``cfrpnet.neuralnet.forward``,
...) for a timing wrapper while a rep runs, and restoring it afterwards.
Callers look those names up at call time, so the program's own calls go
through the wrapper too.

A span is (name, start_ns, end_ns, parent index, op id). Spans of one
operation (one roster model, one request) share the op id.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). The trainer boundary alone is patched on
# untraced reps: four spans per roster, which is what train_s.* needs.
TRAINERS = (
    ("experiment", "train_backprop", "neuralnet.train_backprop"),
    ("experiment", "train_hybrid", "optimizers.train_hybrid"),
)
LAYER_CALLS = TRAINERS + (
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "write_experiment_outputs", "experiment.write_experiment_outputs"),
    ("experiment", "save_model", "neuralnet.save_model"),
    ("experiment", "split", "dataset.split"),
    ("experiment", "fit_normalizer", "dataset.fit_normalizer"),
    ("experiment", "report_from_pairs", "metrics.report_from_pairs"),
    ("experiment", "parametric_sweep", "experiment.parametric_sweep"),
    ("metrics", "report_from_pairs", "metrics.report_from_pairs"),
    ("dataset", "parse_dataset", "dataset.parse_dataset"),
    ("neuralnet", "forward", "neuralnet.forward"),
    ("neuralnet", "forward_batch", "neuralnet.forward_batch"),
    ("neuralnet", "load_model", "neuralnet.load_model"),
    ("cli", "load_model", "neuralnet.load_model"),
    ("cli", "main", "cli.main"),
    ("mechanics", "predict_record", "mechanics.predict_record"),
)
OBJECTIVE_FACTORY = ("optimizers", "objective_from_dataset")
OBJECTIVE = "optimizers.objective"
# A trainer call is its own operation, named after the model it trains.
OP_LABELS = {
    "neuralnet.train_backprop": lambda args: "ann",
    "optimizers.train_hybrid": lambda args: args[0],
}


class Tracer:
    """Span recorder; ``install`` patches the names, restoring them on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []
        self.on_call = {}  # span name -> callback(op, args), run before the span starts
        self.on_return = {}  # span name -> callback(op, args, result), run after it ends

    def wrap(self, name, fn):
        label = OP_LABELS.get(name)

        def traced(*args, **kwargs):
            outer = self.op
            if label is not None:
                self.op = f"{outer}.{label(args)}"
            op = self.op
            before = self.on_call.get(name)
            if before is not None:
                before(op, args)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, op)
                self.op = outer
            hook = self.on_return.get(name)
            if hook is not None:
                hook(op, args, result)
            return result
        return traced

    def _objective_factory(self, factory):
        def make(*args, **kwargs):
            return self.wrap(OBJECTIVE, factory(*args, **kwargs))
        return make

    @contextmanager
    def install(self, full: bool):
        saved = []
        try:
            for module_name, attr, span in LAYER_CALLS if full else TRAINERS:
                module = getattr(self.package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            if full:
                module = getattr(self.package, OBJECTIVE_FACTORY[0])
                original = getattr(module, OBJECTIVE_FACTORY[1])
                saved.append((module, OBJECTIVE_FACTORY[1], original))
                setattr(module, OBJECTIVE_FACTORY[1], self._objective_factory(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def operation(self, op: str):
        previous, self.op = self.op, op
        try:
            yield
        finally:
            self.op = previous


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def by_name(spans):
    """name -> list of (duration_ns, self_ns, span index)."""
    selfs = self_times(spans)
    out = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name].append((end - start, selfs[i], i))
    return out
