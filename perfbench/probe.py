"""Machine-speed probe, so that times taken on a shared machine compare.

On a small shared virtual machine the same Python code switches between a
fast state and one about 1.4-1.8 times slower, often within milliseconds but
also for stretches of seconds to minutes (measured on an otherwise idle
2-vCPU Intel Xeon VM).  Raw wall times then spread between runs far more
than any regression worth catching.

So the benchmark runs a fixed pure-Python probe between trials, at most every
``EVERY_S`` seconds, and multiplies the time of each trial by ``NOMINAL_NS``
over the mean of the probes just before and just after it.  The probe does
the same kinds of work as the decoders, and shares no code with the library,
so no change to the library moves it: Gauss-Jordan elimination of a fixed
12 x 24 matrix over a locally built GF(2^8) table (table lookups, xor, list
rows), then digit-wise sums of packed GF(3^6) elements (divmod loops, as in
odd-characteristic addition).  A reported time is thus the time on a machine
where the probe takes ``NOMINAL_NS``, a fixed reference inside the range the
probe reads on the VM above (about 400 us fast, up to 1 ms slow).
"""

from __future__ import annotations

import time

NOMINAL_NS = 500_000
EVERY_S = 0.02


def _tables():
    exp, log = [0] * 510, [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 256:
            x ^= 0x11D
    exp[255:] = exp[:255]
    return exp, log


_EXP, _LOG = _tables()
_ROWS = tuple(tuple((37 * i + 11 * j + i * j * j) & 255 for j in range(24))
              for i in range(12))


def _rref() -> tuple:
    exp, log = _EXP, _LOG
    rows = [list(r) for r in _ROWS]
    width = len(rows[0])
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        s = 255 - log[row[c]]
        for j in range(c, width):
            if row[j]:
                row[j] = exp[s + log[row[j]]]
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f:
                lf = log[f]
                for j in range(c, width):
                    if row[j]:
                        other[j] ^= exp[lf + log[row[j]]]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows)


_PAIRS = tuple(((7919 * i) % 729, (104729 * i) % 729) for i in range(200))


def _digit_sums() -> int:
    """Digit-wise sums mod 3 of packed GF(3^6) elements."""
    acc = 0
    for a, b in _PAIRS:
        out, place = 0, 1
        while a or b:
            a, ra = divmod(a, 3)
            b, rb = divmod(b, 3)
            out += ((ra + rb) % 3) * place
            place *= 3
        acc ^= out
    return acc


def probe_ns() -> int:
    """One run of the fixed elimination and digit sums, in ns."""
    start = time.perf_counter_ns()
    _rref()
    _digit_sums()
    return time.perf_counter_ns() - start


class Speed:
    """The probe times taken so far, for scale factors over spans of them."""

    def __init__(self):
        self.probes: list[int] = []
        self._last = float("-inf")

    def tick(self, every: float = EVERY_S):
        """Probe again if ``every`` seconds have passed since the last probe."""
        if time.perf_counter() - self._last >= every:
            self.probes.append(probe_ns())
            self._last = time.perf_counter()

    def factor(self, first: int, stop: int) -> float:
        """NOMINAL_NS over the mean of the probes first..stop-1."""
        span = self.probes[first:stop]
        return NOMINAL_NS * len(span) / sum(span)
