"""How slow the host is right now, from four fixed kernels.

The 2-vCPU VM that defined the benchmark runs the same instructions at
anything from 1 to 2.4 times its best time, changing over seconds and
drifting over minutes.  As the clock said them, ten runs of the same
code spread (interquartile, over the median) by 0.05-0.16 on the read
workloads and 0.13-0.24 on ``ingest_mixed``, and two sets of ten taken
one after the other differed by up to 16 % in their medians (28 % on an
earlier day) - past the 0.20 the bounds may be, whichever statistic of
a run's pieces was reported (see the README).  A bound has to clear
that or it gates the weather.  So every timed piece of a run is flanked
by a few milliseconds of *this file's* code - never the program's - on
the CPU the piece ran on, and a run reports its timings divided by how
slow those kernels ran (``slowness``: 1.0 is the defining host at its
median).  A change to the program cannot move the kernels, so it cannot
hide behind them; a change of host speed moves both and cancels.

The reference times are constants on purpose.  They only fix the unit:
two commits compared on one image are divided by the same kernels and
the constants cancel.  A reference taken from the run itself (the
kernels' fastest or median time in that run) varies from run to run as
much as the host does, and puts the spread back.  What the constants do
not survive is a Python or numpy upgrade, which moves the kernels and
the program differently: results record both versions and
``compare.py`` warns when they differ.

The kernels are small on purpose (about 1-3 ms each) and differ in what
they lean on - the interpreter and allocator, JSON, cube-sized numpy
arrays, memory latency - because the host's slow spells do not slow all
code alike: a loop of integer additions alone followed the server's
time worst of all candidates tried.  Taken one piece at a time the
kernels explain little (correlation 0.3-0.5 with a 0.2 s segment of
requests); over the hundred-odd pieces of a run they explain most of it.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Callable, Sequence

import numpy as np

__all__ = ["Calibrator", "REFERENCE_MS"]

#: Median milliseconds of each kernel on the host that defined the
#: benchmark; only their ratios to a later measurement are used.
REFERENCE_MS = {"objects": 1.94, "json": 2.12, "cubes": 0.90, "memory": 2.69}


class Calibrator:
    """Runs the kernels on given CPUs and reports the host's slowness."""

    def __init__(self, cpus: Sequence[int]) -> None:
        """``cpus``: the CPUs the timed work runs on (each is sampled in
        turn); empty to sample wherever the scheduler puts this thread."""
        self.cpus = list(cpus)
        self._big = np.arange(4 << 20, dtype=np.int64)  # 32 MB: beyond any cache
        self._scattered = np.random.default_rng(1).integers(0, len(self._big), 200_000)
        self._document = {
            "rows": [
                {"group": [f"zone{i}", f"type{i % 12}"], "value": i * 7, "pct": i / 3.0}
                for i in range(150)
            ]
        }
        self._kernels: dict[str, Callable[[], None]] = {
            "objects": self._objects,
            "json": self._json,
            "cubes": self._cubes,
            "memory": self._memory,
        }
        #: Every sample taken so far.
        self.samples: list[float] = []

    def _objects(self) -> None:
        table = {}
        for i in range(6000):
            table[(i, i * 3)] = [i]
        sorted(table, key=lambda key: -key[0])

    def _json(self) -> None:
        for _ in range(6):
            json.loads(json.dumps(self._document))

    def _cubes(self) -> None:
        cells = np.zeros(47_736, dtype=np.int64)
        for k in range(40):
            np.add.at(cells, np.arange(k, 3000 + k), 1)
            cells.reshape(306, 156).sum(axis=1)

    def _memory(self) -> None:
        self._big[self._scattered].sum()

    def _on_this_cpu(self) -> float:
        """Geometric mean over the kernels of time / reference time,
        each kernel's time the faster of two executions."""
        total = 0.0
        for name, kernel in self._kernels.items():
            best = math.inf
            for _ in range(2):
                started = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - started)
            total += math.log(1000.0 * best / REFERENCE_MS[name])
        return math.exp(total / len(self._kernels))

    def sample(self) -> float:
        """The host's slowness now: geometric mean over ``cpus``."""
        if not self.cpus:
            slowness = self._on_this_cpu()
        else:
            mine = os.sched_getaffinity(0)
            total = 0.0
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    total += math.log(self._on_this_cpu())
            finally:
                os.sched_setaffinity(0, mine)
            slowness = math.exp(total / len(self.cpus))
        self.samples.append(slowness)
        return slowness
