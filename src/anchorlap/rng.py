"""Reproducible random streams built on the Philox counter-based generator.

Philox output is a pure function of (key, counter), so handing every
logical stream its own key makes results independent of how work is split
across workers: stream ``(seed, index)`` always produces the same values,
on any platform, in any execution order.
"""

from __future__ import annotations

import numpy as np

from .layout import _integer

__all__ = ["stream"]

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for logical stream ``index`` of ``seed``.

    Distinct ``(seed, index)`` pairs yield statistically independent
    streams; identical pairs yield identical output.  Both values are
    taken modulo 2**64 (they form the 128-bit Philox key).  A value that is
    not an integer (a fraction, a bool, a string) raises ``ValueError``.
    """
    seed, index = _integer(seed, "seed", 0), _integer(index, "stream index", 0)
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
