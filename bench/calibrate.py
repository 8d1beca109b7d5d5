"""Machine-speed calibration of the untraced measurements.

On a shared machine the speed one process sees drifts, by as much as 3x
and for tens of seconds at a time, with the load of other tenants.  The
drift slows all CPU-bound Python alike, so an untraced run interleaves short
calibration slices with its work, every ``PERIOD_NS`` or so: a fixed loop
of exact ``Fraction`` arithmetic (the kind this package's hot paths run),
written with the standard library only, so no change to the package can
make it faster or slower.  The slices run in a separate interpreter that
holds nothing else, because the same loop runs half again as slow in a
process with a large heap, and the benchmark's heap is the workload's.
Each stretch of work between two calibrations is divided by the slowdown
measured around it: the median slice time over ``REFERENCE_NS``.  Reported
times are therefore reference-speed times; the raw ones stay in the run
record.

    python3 bench/calibrate.py --serve   # the calibration process itself
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns as clock

REFERENCE_NS = 1_900_000
PERIOD_NS = 100_000_000
LOOP = 600


def slice_ns() -> int:
    """Time one calibration slice (about 2 ms on a 2-core Xeon VM)."""
    t0 = clock()
    total = Fraction(0)
    for k in range(1, LOOP):
        total += Fraction(k, k + 7)
    return clock() - t0


def serve() -> None:
    """Read a slice count per line; answer with the median slice time."""
    for line in sys.stdin:
        times = sorted(slice_ns() for _ in range(int(line)))
        sys.stdout.write(f"{statistics.median(times)}\n")
        sys.stdout.flush()


class Calibrator:
    """Calibrations of ``slices`` slices each, run by a calibration process
    on request; the slowdown of a stretch of work is the mean of the
    ``smooth`` calibrations on each side of it.  Use as a context manager,
    which stops the calibration process."""

    def __init__(self, slices: int = 1, smooth: int = 2):
        self.slices = slices
        self.smooth = smooth
        self.cal_ns: list = []
        self.marks: list = []   # samples recorded before each calibration
        self.starts: list = []
        self.ends: list = []
        self._due = 0
        self._server = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._server.poll() is None:
            self._server.stdin.close()
            self._server.wait()
            self._server.stdout.close()

    def force(self, mark: int) -> None:
        start = clock()
        self._server.stdin.write(f"{self.slices}\n")
        self._server.stdin.flush()
        self.cal_ns.append(float(self._server.stdout.readline()))
        end = clock()
        self.marks.append(mark)
        self.starts.append(start)
        self.ends.append(end)
        self._due = end + PERIOD_NS

    def tick(self, mark: int, now: int) -> None:
        if now >= self._due:
            self.force(mark)

    def slowdowns(self) -> list:
        """The slowdown of each stretch between two calibrations."""
        out = []
        for j in range(len(self.cal_ns) - 1):
            near = self.cal_ns[max(0, j + 1 - self.smooth):j + 1 + self.smooth]
            out.append(sum(near) / len(near) / REFERENCE_NS)
        return out

    def work_ns(self) -> int:
        """Raw time spent between calibrations."""
        return sum(self.starts[j + 1] - self.ends[j]
                   for j in range(len(self.cal_ns) - 1))

    def normalized_work_ns(self) -> float:
        return sum((self.starts[j + 1] - self.ends[j]) / s
                   for j, s in enumerate(self.slowdowns()))

    def normalize(self, samples) -> list:
        """Each sample divided by the slowdown of the stretch it was
        recorded in; sample k lies in the stretch after the last
        calibration forced with a mark of at most k."""
        slow = self.slowdowns()
        out = []
        for k, value in enumerate(samples):
            j = min(bisect.bisect_right(self.marks, k) - 1, len(slow) - 1)
            out.append(value / slow[max(j, 0)])
        return out

    def mean_slowdown(self) -> float:
        slow = self.slowdowns()
        return sum(slow) / len(slow)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
