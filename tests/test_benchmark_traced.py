"""The benchmark's traced runs work on the package as it is.

``perfbench/spans.py`` rebinds the layer functions and reads their
results (``len(out)`` of ``simulate_forward``, ``out.nodes`` and
``out.dim`` of a Gramian), so a change of those returns shows here,
in the tier-1 suite, rather than first in a traced benchmark run.
"""

import pytest

from nullctrl import hum

# a layer every op of the workload enters
ENTERED = {"dyadic": "hum.simulate_forward.calls",
           "oneshot": "hum.assemble_gramian.calls",
           "certify": "kalman.kalman_certificate.calls"}


@pytest.mark.parametrize("workload", ["dyadic", "oneshot", "certify"])
def test_traced_tiny_batch_gives_layer_metrics(workloads, spans, workload):
    ops = workloads.build_ops(workload, 1, "tiny")
    tracer = spans.Tracer()
    simulate_forward = hum.simulate_forward
    with tracer.installed():
        assert hum.simulate_forward is not simulate_forward
        for i, op in enumerate(ops):
            tracer.op = i
            try:
                out = op.run()
            finally:
                tracer.op = None
            assert op.check(out) is None, op.name
    assert hum.simulate_forward is simulate_forward
    metrics = spans.layer_metrics(spans.totals(tracer.spans))
    assert set(metrics) == set(spans.layer_metrics({}))
    assert metrics[ENTERED[workload]][0] >= len(ops)
    sim_calls = metrics["hum.simulate_forward.calls"][0]
    assert metrics["hum.simulate_forward.substeps"][0] == sim_calls
