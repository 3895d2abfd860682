"""Host speed, sampled between ops, to put op times on one scale.

The 2-core Intel Xeon virtual machine this benchmark was built on
changes speed by up to a factor of 1.9 within minutes: a fixed
pure-Python kernel took a median 0.86 ms in one run and 1.63 ms in
another run ten minutes later.  Wall times of the same code
then differ more between runs than any bound worth keeping.  So the
benchmark times a fixed kernel of its own between ops -- exact row
reduction of small integer and rational matrices, the kind of work
cohomlab does, written here so that no change to cohomlab changes it --
once per 1/PER_S second of op time, and scales each op's time by
REF_S / (median kernel time around the op).  The result is the op's time
on a host where the kernel takes REF_S.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

__all__ = ["REF_S", "SpeedProbe", "kernel_s"]

REF_S = 1e-3  # the kernel time that scaled op times are quoted at
PER_S = 20  # kernel samples per second of op time
WINDOW = 3  # samples on each side of an op that set its scale

_INT_ROWS = [[(7 * i + 13 * j) % 11 - 5 for j in range(12)] for i in range(10)]
_FRAC_ROWS = [[Fraction((5 * i + 3 * j) % 7 - 3, 1 + (i + j) % 4)
               for j in range(7)] for i in range(6)]


def _eliminate(rows, fraction_free):
    rows = [r[:] for r in rows]
    for c in range(len(rows[0])):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        p = rows[piv]
        for i, r in enumerate(rows):
            a = r[c]
            if i == piv or not a:
                continue
            if fraction_free:
                rows[i] = [p[c] * x - a * y for x, y in zip(r, p)]
            else:
                f = a / p[c]
                rows[i] = [x - f * y for x, y in zip(r, p)]
    return rows


def kernel_s():
    """Wall time of one run of the fixed kernel."""
    t0 = perf_counter()
    for _ in range(3):
        _eliminate(_INT_ROWS, True)
    _eliminate(_FRAC_ROWS, False)
    return perf_counter() - t0


class SpeedProbe:
    """Kernel samples taken between ops, and the scale they give each op."""

    def __init__(self):
        self.samples = []

    def catch_up(self, busy_s):
        """Sample until there is one sample per 1/PER_S s of `busy_s`.

        Returns the number of samples taken so far: an op that starts
        now has the samples before that index on its left.
        """
        while len(self.samples) < 1 + busy_s * PER_S:
            self.samples.append(kernel_s())
        return len(self.samples)

    def finish(self):
        """Samples to the right of the last op."""
        for _ in range(WINDOW):
            self.samples.append(kernel_s())

    def scale(self, mark):
        """REF_S over the median of WINDOW samples each side of `mark`."""
        window = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REF_S / statistics.median(window)
