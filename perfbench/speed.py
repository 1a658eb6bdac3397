"""How fast the shared box runs while each timed phase runs.

The reference box is a 2-core VM whose speed drifts by up to 2x over
seconds to minutes while other tenants load the host.  A slowdown of
that kind stretches the program and any other code alike, so every
timed phase is bracketed by *calibration points*: each point runs a
fixed loop (benchmark code only, never the program) on both cores at
once, in this process and in a helper process.  A time measured between
points ``a`` and ``b`` is multiplied by
``CALIBRATION_REF_S / median(points a to b)``, which turns it into
reference-box seconds.  Long phases are cut into slices with a point
between each (the serve windows); a pipeline run is bracketed whole;
a group of short repeated phases (set-ups, a pipeline run's warm
admissions) is bracketed as a group.  The serve workload's small builds
take a point before each one, so that one stray point cannot set their
factor: the run's first points often read 1.4x slow, and with the two
ends alone the builds' run-to-run spread reached 0.38 in one ten-seed
set.  A first, discarded point warms the helper up.  Raw times are kept
in every run's details.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List

import numpy as np

#: Median seconds of :func:`calibration_loop` on the quiet reference box.
CALIBRATION_REF_S = 0.2
#: Loop runs per core at each point.
CALIBRATION_RUNS = 2


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Collect now, then keep the cyclic collector off for the block."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def calibration_loop() -> float:
    """A fixed interpreter and numpy loop; returns its seconds.

    Tuple keys in a dict, a keyed sort, a numpy argsort and unique: the
    shapes of the program's hot paths.  The collector is off, so the
    size of the caller's heap does not change the time.
    """
    with gc_paused():
        started = time.perf_counter()
        counts: Dict[Any, int] = {}
        for i in range(60000):
            key = (i * 7919) % 30011, i & 255
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items(), key=lambda item: (item[1], item[0]))
        values = np.arange(100000, dtype=np.int64) * 2654435761 % 1000003
        np.argsort(values, kind="stable")
        np.unique(values)
        return time.perf_counter() - started


def helper_main() -> None:
    """The loop on the other core: a ``point`` line on stdin runs it and
    answers with one JSON line; end of input stops the helper."""
    for line in sys.stdin:
        if line.strip() != "point":
            return
        print(json.dumps([calibration_loop() for _ in range(CALIBRATION_RUNS)]), flush=True)


_HELPER = "from perfbench.speed import helper_main; helper_main()"


class Speed:
    """Calibration points for one run; use as a context manager."""

    def __init__(self) -> None:
        self.points: List[float] = []
        self.samples: List[List[float]] = []
        self._process: Any = None

    def __enter__(self) -> "Speed":
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self._process = subprocess.Popen(
            [sys.executable, "-c", _HELPER], cwd=root,
            env=dict(os.environ, PYTHONPATH=root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._point()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        process = self._process
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def _point(self) -> List[float]:
        self._process.stdin.write("point\n")
        self._process.stdin.flush()
        local = [calibration_loop() for _ in range(CALIBRATION_RUNS)]
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return local + json.loads(line)

    def mark(self) -> int:
        """Take a calibration point now; returns its index."""
        samples = self._point()
        self.samples.append(samples)
        self.points.append(statistics.median(samples))
        return len(self.points) - 1

    def factor(self, a: int, b: int) -> float:
        """Multiply a time measured between points ``a`` and ``b`` by this."""
        return CALIBRATION_REF_S / statistics.median(self.points[a:b + 1])

    def details(self) -> Dict[str, Any]:
        return {
            "calibration_points_s": self.points,
            "calibration_samples_s": self.samples,
        }
