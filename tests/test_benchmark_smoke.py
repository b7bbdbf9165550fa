"""Every op of the benchmark's tiny batches runs and passes its check.

The benchmark drives the package through its public calls (for example
``synthesize_control(..., gramian=g)``), so a change of those calls
shows here, in the tier-1 suite, rather than first in a benchmark run.
"""

import pytest


@pytest.mark.parametrize("workload", ["dyadic", "oneshot", "certify"])
def test_tiny_batch_ops_pass_their_checks(workloads, workload):
    ops = workloads.build_ops(workload, 1, "tiny")
    assert ops
    for op in ops:
        assert op.check(op.run()) is None, op.name
