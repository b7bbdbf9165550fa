"""``tools/op_digest.py``, the bit-identity check for benchmark ops.

A change claims to move no output bit when this tool prints the same
digests before and after it, so the tool must encode every kind of
output the ops return, be deterministic, and see a one-bit change.
"""

import dataclasses
import importlib.util
import os
import struct
import sys
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digest.py"


@pytest.fixture(scope="module")
def op_digest():
    # the tool pins BLAS threads and puts perfbench on the import path;
    # keep both out of the rest of the session
    path = list(sys.path)
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("op_digest_tool", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    sys.path[:] = path
    sys.modules.pop("run", None)
    return module


def _flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def _digest(tool, out) -> str:
    h = tool.hashlib.sha256()
    tool.encode(out, h)
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["dyadic", "oneshot", "certify"])
def test_digest_encodes_tiny_ops_deterministically(op_digest, workloads,
                                                   workload):
    for op in workloads.build_ops(workload, 1, "tiny"):
        first = op_digest.run_op(op)[0].hexdigest()      # no TypeError
        assert op_digest.run_op(op)[0].hexdigest() == first, op.name


def test_digest_sees_one_flipped_float_bit(op_digest, workloads):
    op = workloads.build_ops("certify", 1, "tiny")[0]
    verdict, invisible, report = op.run()
    flipped = dataclasses.replace(report,
                                  max_ratio=_flip_last_bit(report.max_ratio))
    assert flipped.max_ratio != report.max_ratio
    assert (_digest(op_digest, (verdict, invisible, flipped))
            != _digest(op_digest, (verdict, invisible, report)))
    values = op_digest.np.array([report.max_ratio, report.bound])
    bumped = values.copy()
    bumped[1] = _flip_last_bit(bumped[1])
    assert _digest(op_digest, bumped) != _digest(op_digest, values)


def test_digest_encodes_lazily_sampled_control_outputs(op_digest, workloads):
    gram, ctl = workloads.build_ops("oneshot", 1, "tiny")[0].run()
    unread = dataclasses.replace(ctl)     # samples not computed yet
    assert "coefficients" not in vars(unread)
    first = _digest(op_digest, unread)
    assert "coefficients" in vars(unread)  # sampled by the encoder
    assert _digest(op_digest, ctl) == first
    flipped = dataclasses.replace(ctl)
    beta = flipped.coefficients.copy()
    beta.flat[-1] = _flip_last_bit(beta.flat[-1])
    vars(flipped)["coefficients"] = beta
    assert _digest(op_digest, flipped) != first
    shifted = dataclasses.replace(ctl)
    vars(shifted)["nodes"] = shifted.nodes + 0.5
    assert _digest(op_digest, shifted) != first
