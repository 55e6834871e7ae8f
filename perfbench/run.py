"""Decode benchmark for symrank: seeded encode -> corrupt -> decode trials.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sym-high --seed 1 --seconds 10 --trace 0

``--workload all`` runs each workload in its own process, one after the
other, relays their output and ends with one combined result whose metrics
are named ``<workload>/<metric>``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.

One caller, closed loop, no threads: the next trial starts when the
previous one has been judged.  The timed loop repeats whole passes over the
workload's fixed trial list until ``--seconds`` have gone by, so the outcome
digest and the failure fraction are exact for a seed, and every later pass
must reproduce the first pass's outcomes.  Times are scaled by a speed probe
run between trials (see probe.py).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it reports the per-layer metrics instead, from four phases:
an untraced loop (for ``trace.overhead``), a loop with span wrappers (times),
one pass with span and field-operation count wrappers (call counts), and a
field-operation microbenchmark.  Spans are written to
``.perfbench-out/spans-<workload>-<seed>.jsonl`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

from probe import Speed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3      # set-ups per untraced run, at least
SETUP_BUDGET_S = 2.0   # more set-ups, while the ones so far took less
SETUP_MAX = 9
SPAN_DIR = os.path.join(ROOT, ".perfbench-out")


def _import_library():
    """Import symrank from the checkout's own src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "symrank", "__init__.py")):
        sys.exit(f"perfbench: no src/symrank under {ROOT}; "
                 "run from the root of a symrank checkout")
    sys.path.insert(0, SRC)
    import symrank
    if os.path.dirname(os.path.dirname(os.path.abspath(symrank.__file__))) != SRC:
        sys.exit(f"perfbench: imported symrank from {symrank.__file__}, not {SRC}")


class Window:
    """The scaled timings of one measuring loop (see probe.py)."""

    CAPACITY = 1 << 16   # decode samples kept; fixed, so memory does not grow

    def __init__(self):
        self.decode_ns = array("d", bytes(8 * self.CAPACITY))  # ring, scaled
        self.decodes = 0         # timed decodes
        self.raw_ns = 0.0        # their total, raw
        self.scaled_ns = 0.0     # their total, scaled
        self.trial_ns = 0.0      # scaled total of sample + decode + judge
        self.elapsed = 0.0       # raw wall seconds, probes included

    def add_pass(self, decode_ns: list[int], trial_ns: list[int], factors: list[float]):
        for d, t, f in zip(decode_ns, trial_ns, factors):
            self.decode_ns[self.decodes % self.CAPACITY] = d * f
            self.decodes += 1
            self.raw_ns += d
            self.scaled_ns += d * f
            self.trial_ns += t * f

    def samples(self) -> array:
        return self.decode_ns[:min(self.decodes, self.CAPACITY)]

    @property
    def factor(self) -> float:
        """Time-weighted mean speed factor of the decodes."""
        return self.scaled_ns / self.raw_ns

    def trials_per_s(self) -> float:
        return self.decodes * 1e9 / self.trial_ns


class Run:
    """The built cases of one workload and the judged outcomes of its trials."""

    def __init__(self, workload, seed: int):
        from symrank.channel import RngStream
        self.workload = workload
        self.cases = workload.build()
        self.plan = workload.plan()
        self.master = RngStream(seed)
        self.first: dict[int, tuple] = {}   # trial -> outcome record, first pass
        self.wrong = 0
        self.nondeterministic = 0
        self.reset()

    def reset(self):
        self.attempted = 0
        self.failures: Counter = Counter()  # (category, code label) -> trials

    def trial(self, i: int, tracer=None) -> tuple[int, int]:
        """Sample, decode and judge trial i; returns (decode ns, trial ns)."""
        ci, rank = self.plan[i]
        case = self.cases[ci]
        begin = time.perf_counter_ns()
        if tracer is not None:
            tracer.trial = i
            tracer.open("channel.sample")
        sent, received = case.sample(rank, self.master.fork(i))
        if tracer is not None:
            tracer.close()
            tracer.open("decode")
        start = time.perf_counter_ns()
        try:
            out = case.decode(received)
        except Exception as exc:  # a decoder that raises fails the trial
            out = exc
        decode_ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.close()
            tracer.open("judge")
        if isinstance(out, Exception):
            category, record = "exception", ("exception", type(out).__name__)
        else:
            category, record = case.judge(sent, received, out)
        if tracer is not None:
            tracer.close()
        trial_ns = time.perf_counter_ns() - begin
        self.attempted += 1
        if category is not None:
            self.failures[(category, case.label)] += 1
            if category == "wrong":
                self.wrong += 1
        record = (i, case.label, rank) + record
        if self.first.setdefault(i, record) != record:
            self.nondeterministic += 1
        return decode_ns, trial_ns

    def loop(self, seconds: float, speed, tracer=None) -> Window:
        """Whole passes until ``seconds`` have elapsed; each trial is scaled
        by the probes just before and just after it (see probe.py)."""
        window = Window()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not window.decodes:
            speed.tick(0)
            decode_ns, trial_ns, probe_at = [], [], []
            for i in range(len(self.plan)):
                speed.tick()
                probe_at.append(len(speed.probes) - 1)
                d, t = self.trial(i, tracer)
                decode_ns.append(d)
                trial_ns.append(t)
            speed.tick(0)
            window.add_pass(decode_ns, trial_ns, [speed.factor(k, k + 2) for k in probe_at])
        window.elapsed = time.perf_counter() - start
        return window

    def warm_up(self):
        """One trial per code, to fill lazy caches before timing."""
        seen = set()
        for i, (ci, _) in enumerate(self.plan):
            if ci not in seen:
                seen.add(ci)
                self.trial(i)
        self.reset()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.nondeterministic

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.first):
            h.update(repr(self.first[i]).encode() + b"\n")
        return h.hexdigest()

    def field_labels(self) -> dict:
        """id(field) -> code label for every field the workload built."""
        out = {}
        for case in self.cases:
            out[id(case.field)] = case.label
            out[id(case.field.base)] = case.label
        return out


def _pct(values, q: int) -> float:
    """q-th percentile (q in 1..99) by the exclusive method."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def set_up(workload, seed: int, speed, repeats: int = 1, budget_s: float = 0.0):
    """Build every field, setup and decoder, then warm up: ``repeats`` times,
    and more (up to SETUP_MAX) while they have taken under ``budget_s``.
    Returns the last Run, the median set-up time scaled by the probes taken
    around the set-ups, and that factor."""
    times = []
    first = len(speed.probes)
    spent = 0.0
    while len(times) < repeats or (spent < budget_s and len(times) < SETUP_MAX):
        run = None
        speed.tick(0)
        start = time.perf_counter()
        run = Run(workload, seed)
        run.warm_up()
        times.append(time.perf_counter() - start)
        spent += times[-1]
        speed.tick(0)
    factor = speed.factor(first, len(speed.probes))
    return run, statistics.median(times) * factor, factor


def end_to_end(workload, args):
    speed = Speed()
    run, setup_s, setup_factor = set_up(workload, args.seed, speed,
                                        SETUP_REPEATS, SETUP_BUDGET_S)
    window = run.loop(args.seconds, speed)
    us = [x / 1000 for x in window.samples()]
    print(f"decode samples: {window.decodes} in {window.elapsed:.2f} s "
          f"over {len(run.plan)} distinct trials")
    print(f"fail_frac: {run.failed}/{run.attempted} = {run.failed / run.attempted:.6f}")
    print(f"speed factor: {window.factor:.4f} (timed loop), {setup_factor:.4f} (set-up), "
          f"from {len(speed.probes)} probes")
    metrics = {
        "decode_p50_us": (statistics.median(us), "us"),
        "decode_p90_us": (_pct(us, 90), "us"),
        "trials_per_s": (window.trials_per_s(), "1/s"),
        "success_frac": (1 - run.failed / run.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return run, metrics, True


def per_layer(workload, args):
    import spans
    from gfbench import field_op_ns

    speed = Speed()
    setup_tracer = spans.Tracer()
    with setup_tracer.instrument():
        run, _, setup_factor = set_up(workload, args.seed, speed)
    # 1: untraced loop, the base of trace.overhead and gf.share
    plain = run.loop(args.seconds / 3, speed)
    # 2: span wrappers only, for times
    timing = spans.Tracer()
    with timing.instrument():
        traced = run.loop(args.seconds / 3, speed, timing)
    # 3: one pass with field-operation counters too, for call counts
    counting = spans.Tracer(run.field_labels())
    with counting.instrument(count_gf=True):
        counted = run.loop(0, speed, counting).decodes
    # 4: field-operation microbenchmark
    op_ns = field_op_ns(run.cases, args.seed, speed)

    def self_us(root, name):
        """Scaled self time of a span name per traced decode, in us."""
        return timing.self_ns[(root, name)] * traced.factor / traced.decodes / 1000

    def calls(name):
        return counting.calls[("decode", name)] / counted

    def value(key):
        return counting.values[("decode", key)]

    def setup_seconds(name):
        return setup_tracer.total_ns[("setup", name)] * setup_factor / 1e9

    metrics = {}
    gf_ns = 0.0
    for op in spans.GF_OPS:
        n_calls = 0
        weighted = 0.0
        for (root, label, level, o), c in counting.gf_calls.items():
            if root == "decode" and o == op:
                n_calls += c
                weighted += c * op_ns[(label, level, op)]
        gf_ns += weighted
        metrics[f"gf.{op}.calls"] = (n_calls / counted, "per_decode")
        if not n_calls:  # not on the decode path: plain mean over the fields
            weighted = statistics.mean(v for (_, level, o), v in op_ns.items()
                                       if o == op and level == "ext")
            n_calls = 1
        metrics[f"gf.{op}.ns"] = (weighted / n_calls, "ns")
    metrics["gf.make_field_s"] = (setup_seconds("gf.make_field"), "s")
    metrics["gf.share"] = (gf_ns / counted / statistics.mean(plain.samples()),
                           "ratio")
    for name in ("kernel", "solve", "rank"):
        metrics[f"linalg.{name}.calls"] = (calls(f"linalg.{name}"), "per_decode")
        metrics[f"linalg.{name}.us"] = (self_us("decode", f"linalg.{name}"), "us")
    for name in ("compose", "left_divide", "adjoint", "qpoly_rank"):
        metrics[f"qpoly.{name}.calls"] = (calls(f"qpoly.{name}"), "per_decode")
    for name in ("compose", "left_divide", "adjoint", "qpoly_rank", "matrix_of"):
        metrics[f"qpoly.{name}.us"] = (self_us("decode", f"qpoly.{name}"), "us")
    metrics["qpoly.matrix_to_qpoly.us"] = (
        self_us("channel.sample", "qpoly.matrix_to_qpoly"), "us")
    metrics["bilinear.setup_s"] = (setup_seconds("bilinear.setup"), "s")
    metrics["bilinear.coords.calls"] = (calls("bilinear.coords"), "per_decode")
    wb_calls = counting.calls[("decode", "gabidulin.wb_decode")]
    tried = counting.calls[("decode", "gabidulin.localiser")]
    candidates = value("wb.candidates")
    metrics["gabidulin.wb_decode.us"] = (
        self_us("decode", "gabidulin.wb_decode"), "us")
    metrics["gabidulin.walked"] = (value("wb.walked") / counted, "per_decode")
    metrics["gabidulin.yield"] = (candidates / tried if tried else 0.0, "ratio")
    metrics["gabidulin.truncated_frac"] = (value("wb.truncated") / counted, "ratio")
    metrics["symdec.decode.us"] = (self_us("decode", "symdec.decode"), "us")
    metrics["symdec.init_s"] = (setup_seconds("symdec.init"), "s")
    sym_decodes = value("sym.decodes")
    metrics["symdec.ambiguous_frac"] = (
        value("sym.ambiguous") / sym_decodes if sym_decodes else 0.0, "ratio")
    metrics["symdec.survivor_yield"] = (
        value("sym.survivors") / candidates if sym_decodes and candidates else 0.0,
        "ratio")
    metrics["channel.sample.us"] = (
        timing.total_ns[("channel.sample", "channel.sample")] * traced.factor
        / traced.decodes / 1000, "us")
    metrics["trace.overhead"] = (
        statistics.median(traced.samples())
        / statistics.median(plain.samples()), "ratio")

    # fidelity: the spans must see what the reports say happened
    problems = []
    if wb_calls != counted * workload.case.wb_per_decode:
        problems.append(f"{wb_calls} wb_decode spans for {counted} decodes")
    if counting.calls[("decode", "qpoly.compose")] < value("wb.walked"):
        problems.append("fewer compose calls than walked localisers")
    for msg in problems:
        print(f"trace check failed: {msg}")
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
    timing.dump(path)
    print(f"spans: {len(timing.spans)} written to {os.path.relpath(path, ROOT)}")
    return run, metrics, not problems


def run_workload(args) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    run, metrics, trace_ok = (per_layer if args.trace else end_to_end)(workload, args)
    failures = {}
    for (category, label), count in sorted(run.failures.items()):
        failures.setdefault(category, {})[label] = count
    print("failures " + json.dumps(failures, sort_keys=True))
    print(f"wrong answers: {run.wrong}, nondeterministic outcomes: "
          f"{run.nondeterministic}")
    print(f"digest {run.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": run.correct and trace_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_child(workload: str, seed: int, seconds: float, trace: int,
              timeout: float = 900) -> tuple[str, dict]:
    """Run one workload in its own process; returns (stdout, result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> dict:
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out, result = run_child(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
