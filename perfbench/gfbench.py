"""Field-operation microbenchmark: ns per call on seeded operands.

Each operation is timed as the decoders call it, through a bound method,
so the figure includes the Python call.  The extension field F_{q^n} and
the base field F_q of each case are timed separately, because the linear
algebra over F_q calls the base field's operations.
"""

from __future__ import annotations

import statistics
import time

OPERANDS = 1000
REPEATS = 5


def _time(fn, args) -> float:
    """Median over REPEATS of ns per call of fn(*a) for a in args."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter_ns() - start) / len(args))
    return statistics.median(samples)


def field_op_ns(cases, seed: int, speed) -> dict:
    """(case label, 'ext' | 'base', op) -> ns per call, scaled by the
    probes taken around each field's timings."""
    from symrank.channel import RngStream
    out = {}
    for ci, case in enumerate(cases):
        rng = RngStream(seed).fork(ci)
        for level, fld in (("ext", case.field), ("base", case.field.base)):
            size = fld.order if level == "ext" else fld.q
            xs = [rng.randbelow(size) for _ in range(OPERANDS)]
            ys = [rng.randbelow(size) for _ in range(OPERANDS)]
            units = [1 + rng.randbelow(size - 1) for _ in range(OPERANDS)]
            pairs = list(zip(xs, ys))
            ops = {"add": (fld.add, pairs), "sub": (fld.sub, pairs),
                   "mul": (fld.mul, pairs), "inv": (fld.inv, [(u,) for u in units])}
            if level == "ext":
                n = fld.n
                ops["frobenius"] = (fld.frobenius,
                                    [(x, 1 + j % (n - 1)) for j, x in enumerate(xs)])
                ops["trace"] = (fld.trace, [(x,) for x in xs])
            first = len(speed.probes)
            raw = {}
            for op, (fn, args) in ops.items():
                speed.tick(0)
                raw[op] = _time(fn, args)
            speed.tick(0)
            factor = speed.factor(first, len(speed.probes))
            for op, ns in raw.items():
                out[(case.label, level, op)] = ns * factor
    return out
