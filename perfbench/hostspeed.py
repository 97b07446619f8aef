"""Host-speed probe: a fixed piece of work that calls no cfrpnet code.

On a shared host the CPU drifts between speed states for seconds to
minutes: on the reference machine a one-row numpy forward pass ran 1.9x
slower in the slow state, a 531-row batch and a pure-Python loop about
1.35x. A run of under a minute can sit wholly in one state, so raw
timings of the same code spread by more than any useful bound. The
benchmark therefore times this probe around every timed phase and scales
the phase by reference time over probe time: the phase's time on a host
that runs the probe as the reference machine does in its fast state.
The probe has three timed parts, one for each kind of work the program
does: one-row numpy forward passes, batch forward passes and Python
arithmetic. Training mixes all three and is scaled by all three.
Serving (parsing, baselines, single-record requests, sweeps) is numpy
and object calls on small data, which slow about 2x like the one-row
part, and is scaled by it alone. Set-up (imports, parsing) slows about
1.3x, like the Python part, and is scaled by it.
The probe is the benchmark's own code, the same on every commit, so a
change to the program moves a scaled timing by the same factor as the
raw one.
"""
from __future__ import annotations

import time

# Each part's time on the reference machine in its fast state (2-vCPU VM,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = {"one_row": 0.0011, "batch": 0.0029, "python": 0.0019}
# The parts that scale each kind of phase; README.md gives the
# measurements behind the choice.
WHOLE = ("one_row", "batch", "python")  # training
ONE_ROW = ("one_row",)  # serving: parsing, baselines, requests, sweeps
PYTHON = ("python",)  # set-up: imports and parsing
ONE_ROW_CALLS = 400
BATCH_CALLS = 40
PYTHON_STEPS = 30_000


class HostSpeed:
    """Call to time one probe; ``scale`` turns probe times into a factor."""

    def __init__(self):
        # Imported here, not at module level: session.py imports this module
        # before it starts timing set-up, and numpy's import is set-up.
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((7, 50))
        self.v = rng.standard_normal(50)
        self.row = rng.standard_normal((1, 7))
        self.batch = rng.standard_normal((531, 7))
        self.target = rng.standard_normal(531)
        # Preallocated, so the batch part allocates nothing: a 531x50
        # temporary is above malloc's mmap threshold, and its cost then
        # depends on the process's heap, not on the host's speed.
        self.hidden = np.empty((531, 50))
        self.pred = np.empty(531)
        self()  # warm-up: first calls pay for lazy set-up in numpy

    def __call__(self) -> dict:
        """Seconds taken by each part of the probe."""
        np = self.np
        start = time.perf_counter()
        for _ in range(ONE_ROW_CALLS):
            float((np.tanh(self.row @ self.w) @ self.v)[0])
        one_row_end = time.perf_counter()
        for _ in range(BATCH_CALLS):
            np.tanh(np.matmul(self.batch, self.w, out=self.hidden), out=self.hidden)
            np.matmul(self.hidden, self.v, out=self.pred)
            np.subtract(self.pred, self.target, out=self.pred)
            float(np.dot(self.pred, self.pred))
        batch_end = time.perf_counter()
        total = 0.0
        for i in range(PYTHON_STEPS):
            total += float(i) * 1.5
        return {"one_row": one_row_end - start, "batch": batch_end - one_row_end,
                "python": time.perf_counter() - batch_end}

    @staticmethod
    def scale(probes, parts=WHOLE) -> float:
        """Factor for a phase timed between ``probes`` (results of calls),
        from the named parts of the probe."""
        measured = sum(probe[part] for probe in probes for part in parts) / len(probes)
        return sum(REFERENCE_S[part] for part in parts) / measured

    @staticmethod
    def duration(probe) -> float:
        """Seconds the probe itself took, to leave out of a phase it ran in."""
        return sum(probe.values())
