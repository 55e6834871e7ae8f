"""The decode benchmark's contract with the library: every name that
``perfbench/spans.py`` wraps still exists, one trial per code of every
workload still samples, decodes and judges as the benchmark expects, one
pass of each workload reproduces its pinned outcome digest, and a traced
pass of each workload passes the benchmark's trace checks.  Reads
``perfbench/`` from the checkout and changes nothing there."""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from symrank import gf  # noqa: E402
from symrank.channel import RngStream  # noqa: E402


def test_spans_resolve():
    for owner, attr, _ in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    for op in spans.GF_OPS:
        assert callable(getattr(gf.ExtField, op, None)), op


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_trial_per_code(name):
    work = workloads.WORKLOADS[name]
    cases = work.build()
    master = RngStream(1)
    first = {}
    for i, (ci, rank) in enumerate(work.plan()):
        first.setdefault(ci, (i, rank))
    assert sorted(first) == list(range(len(cases)))
    for ci, (i, rank) in sorted(first.items()):
        case = cases[ci]
        sent, received = case.sample(rank, master.fork(i))
        category, _ = case.judge(sent, received, case.decode(received))
        assert category is None, case.label


# sha256 outcome digests of one pass, as ``perfbench/run.py`` prints them: a
# refactor of the decoders leaves every one unchanged
PINNED_DIGESTS = {
    ("standard", 1): "c13f465e825f8a901e027dbca24c15a7fbff5b6cae856f7e3036bbc4231bd6b8",
    ("sym-low", 1): "f422f6be701923ef8cd5c8419a415899766c3a4b8d8b0e27713bf0eab174038c",
    ("sym-low", 2): "44d2463b84f26403532599ec503183a87d97e9c9ed1063c3c9d117ae6a0850ca",
    ("sym-low", 3): "efdbe47348be566ac244d82e95e591abb2c9a26999b3cff355867abaf6dc5c90",
    ("sym-high", 1): "2181cae33622102b4149bf210784ad9352f46a93f309b7583ae1920f16f7fcef",
    ("sym-high-boundary", 1):
        "256d8f9d15f55a779d10d9fa959739af2c299e17a408038f4615829aef111da0",
    ("sym-high-boundary", 2):
        "5527043ef2b280ce828d3fb13e9006ad299dddc05ce64a9095adedf292574bcb",
    ("sym-high-boundary", 3):
        "4ec0bb4d6d4cb54c790cc963e79f7c7ef3f1e4db46b5fce8b03d1404855a265f",
    ("sym-high-boundary", 4):
        "d2ce53fbebe1d314885535e55e115ba23381305e02c5296f3a5c4b539306f787",
    ("sym-high-boundary", 5):
        "713a6bf080b1586e5eaa1933759ce3fa1b0415b00b00ceca340a8916152c9982",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED_DIGESTS))
def test_workload_pass_digest_pinned(name, seed):
    bench = run.Run(workloads.WORKLOADS[name], seed)
    for i in range(len(bench.plan)):
        bench.trial(i)
    assert not bench.failures
    assert bench.digest() == PINNED_DIGESTS[(name, seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_boundary_trace_checks_pass(name):
    # the benchmark's own fidelity checks on one traced pass of each
    # workload, the boundary one included; a child process, so that the
    # tracer's patching of the library cannot reach the other tests
    root = os.path.dirname(PERFBENCH)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         name, "--seconds", "0", "--trace", "1"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    assert not [line for line in lines if line.startswith("trace check failed")]
    assert json.loads(lines[-1])["correct"] is True
