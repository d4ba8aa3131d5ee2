"""The benchmark's calls into magiclab, run at tiny sizes in-process.

Each workload of perfbench/workloads.py runs one untraced round and one
traced round. Its correctness checks must all pass and the tracer must
produce every per-layer metric, so a library change that breaks a name or
a result the benchmark relies on fails here. Nothing under perfbench/ is
written.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_untraced_and_traced(name, tmp_path):
    check = workloads.Checks()
    workload = workloads.WORKLOADS[name](3, True, str(tmp_path), check)
    workloads.run_round(workload, 0)
    tracer = Tracer()
    workloads.run_round(workload, 1, tracer)
    assert check.attempted >= 1 and check.failed == 0
    assert set(tracer.metrics(1, 0.0)) == {metric for metric, _, _ in PER_LAYER}
