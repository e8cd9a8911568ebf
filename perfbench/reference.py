"""Fixed reference kernels that time the host, not the program.

Each kernel does the same work on every call and uses nothing from
volswitch, so its fastest call tracks how fast the host runs at the
moment. ``ReferenceClock.burst`` times calls for a short while; the run
calls it before its first pass and after every pass, and scales its
end-to-end times by ``ReferenceClock.scale``.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(12345)
_X = _RNG.standard_normal((200, 1, 2))
_Y = _RNG.standard_normal((1, 200, 2))
# preallocated, so no call asks the allocator for fresh pages: the
# program's own allocation history must not change the kernels' cost
_D = np.empty((200, 200, 2))
_W = np.empty((200, 200))
_ROW = np.empty((200, 1))
_TEXT = "".join(
    f"2020-{1 + i % 12:02d}-{1 + i % 28:02d},{90.0 + i % 21!r},{'CP'[i % 2]},{1.5 + 0.01 * i!r},{100.0 + 0.1 * i!r}\n"
    for i in range(600)
)


def numeric() -> float:
    """Pairwise Gaussian weights, as a bound step computes them."""
    np.subtract(_X, _Y, out=_D)
    np.einsum("ijk,ijk->ij", _D, _D, out=_W)
    np.exp(np.multiply(_W, -0.5, out=_W), out=_W)
    np.divide(_W, np.sum(_W, axis=1, keepdims=True, out=_ROW), out=_W)
    return float(_W.sum())


def parsing() -> int:
    """CSV rows to typed records, as the chain loader does."""
    rows = []
    for date, strike, side, price, spot in csv.reader(io.StringIO(_TEXT)):
        rows.append((dt.date.fromisoformat(date), float(strike), side == "C", float(price), float(spot)))
    return len(rows)


KERNELS = {"numeric": numeric, "parsing": parsing}

# geometric mean of the kernels' fastest calls on a quiet 2-core Xeon VM
# (numeric 0.70 ms, parsing 0.50 ms); a fixed constant, so it cancels out
# when two commits are compared
NOMINAL_S = 0.59e-3


class ReferenceClock:
    """Fastest call of each kernel over every burst so far."""

    def __init__(self):
        self.fastest = dict.fromkeys(KERNELS, float("inf"))

    def burst(self, seconds: float) -> None:
        end = perf_counter() + seconds
        while perf_counter() < end:
            for name, kernel in KERNELS.items():
                start = perf_counter()
                kernel()
                self.fastest[name] = min(self.fastest[name], perf_counter() - start)

    def scale(self) -> float:
        """Nominal over measured host speed: 1 on the quiet reference host, below 1 when it runs slow."""
        return NOMINAL_S / math.prod(self.fastest.values()) ** (1.0 / len(self.fastest))
