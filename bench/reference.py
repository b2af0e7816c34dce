"""A fixed reference workload that measures how fast the machine runs now.

On a small shared machine the same code runs up to 1.6x slower for a
minute or more at a time, as other tenants come and go: the kernel below
took 56 ms in some minutes and 95 ms in others on the 2-core machine the
baseline was measured on, back to back in one process.  Runs 32 s long
cannot average that out, so the benchmark times this kernel next to every
operation and reports each operation's time rescaled to the machine's
reference speed:

    reported = wall seconds * REFERENCE_S / kernel seconds measured around it

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the reported time in proportion to the wall
time.  It mixes the kinds of work the program does: interpreter loops over
Python objects, numpy on large and on tiny arrays, number formatting and a
file write.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

# The kernel's median time on the 2-core machine of bench/baseline.json.
REFERENCE_S = 0.080

_RNG = np.random.default_rng(20180227)
_VALUES = _RNG.random(200_000)
_ROWS = _RNG.random((3000, 4))


def kernel_seconds(scratch: Path) -> float:
    """Wall time of one pass of the reference kernel; writes one file in ``scratch``."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(20):
        total += float(np.sqrt(_VALUES * _VALUES + 1.0).sum())
    records = [(i, i * 0.5, str(i)) for i in range(60_000)]
    total += sum(r[1] for r in records)
    for row in _ROWS:
        total += float(np.maximum(row, 0.5).sum())
    text = "\n".join(f"{v:.9g}" for v in _VALUES[:40_000])
    (scratch / "reference.txt").write_text(text, encoding="utf-8")
    return time.perf_counter() - start
