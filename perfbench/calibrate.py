"""Timings scaled by the speed the machine runs at while they are taken.

On a shared machine the same Python code can run up to twice as slowly for
stretches of seconds to minutes.  A fixed reference kernel, pure Python
like cateff itself, is timed between operations, and every operation time
is divided by the median of the latest kernel times.  Scaled times read as
milliseconds on a machine that runs the kernel in NOMINAL_S; slowdowns of
the whole machine cancel out, changes in cateff do not.
"""
from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 1e-3     # the kernel takes about this long on an idle machine
EVERY_S = 0.025      # time the kernel at most this often
HALF = 2             # kernel times on either side that a scale also uses


def _tree(depth):
    return depth if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _leaves(t):
    return 1 if type(t) is int else _leaves(t[0]) + _leaves(t[1])


def kernel():
    """Dict updates and building and walking a tree of tuples: about a
    millisecond of the kind of work cateff does."""
    counts: dict = {}
    for i in range(6000):
        counts[i % 500] = counts.get(i % 500, 0) + i
    return len(counts) + _leaves(_tree(10))


class Calibrator:
    def __init__(self):
        self.samples: list = []
        self._last = float("-inf")

    def sample(self, force=False) -> int:
        """Time the kernel, unless it was timed less than EVERY_S ago;
        returns the index of the latest kernel time."""
        if force or perf_counter() - self._last >= EVERY_S:
            t0 = perf_counter()
            kernel()
            self._last = perf_counter()
            self.samples.append(self._last - t0)
        return len(self.samples) - 1

    def finish(self):
        """Kernel times after the last operation, for its scale."""
        for _ in range(HALF):
            self.sample(force=True)

    def scale(self, seconds, first, last=None):
        """`seconds` measured between kernel times `first` and `last`, in
        nominal seconds: divided by the median of those kernel times and
        HALF more on either side."""
        last = first if last is None else last
        window = self.samples[max(0, first - HALF):last + HALF + 1]
        return seconds * NOMINAL_S / statistics.median(window)
