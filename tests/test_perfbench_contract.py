"""The decode benchmark's contract with the library: every name that
``perfbench/spans.py`` wraps still exists, and one trial per code of every
workload still samples, decodes and judges as the benchmark expects.  Reads
``perfbench/`` from the checkout and changes nothing there."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

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
