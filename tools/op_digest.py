"""Digest the outputs of every benchmark op, to show a change moves no bit.

Usage, from the root of a checkout:

    python3 tools/op_digest.py --seeds 1-8

For each workload every op of the benchmark batch
of each seed runs once, and one SHA-256 over all their outputs is
printed.  An output is encoded field by field: dataclasses by class and
field name, floats as ``float.hex``, arrays as dtype, shape and raw
bytes; an op that raises contributes its exception type and message.
Two checkouts print the same digest only if every op returns the same
bits or fails the same way.

The ops, their inputs and the nullctrl import (this checkout's ``src``)
come from ``perfbench``; BLAS is pinned to one thread as there.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-8"`` or ``"1,2,7"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def encode(value, h) -> None:
    """Feed an unambiguous encoding of ``value`` into the hash ``h``."""
    def token(tag: str, payload: bytes = b"") -> None:
        h.update(f"{tag}:{len(payload)}:".encode())
        h.update(payload)

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        token("dataclass", f"{type(value).__qualname__}/{len(fields)}".encode())
        for field in fields:
            token("field", field.name.encode())
            encode(getattr(value, field.name), h)
    elif isinstance(value, np.ndarray):
        token("array", f"{value.dtype.str}{value.shape}".encode())
        token("bytes", np.ascontiguousarray(value).tobytes())
    elif value is None or isinstance(value, (bool, np.bool_, str)):
        token(type(value).__name__, repr(value).encode())
    elif isinstance(value, (int, np.integer)):
        token("int", str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        token("float", float(value).hex().encode())
    elif isinstance(value, (tuple, list)):
        token("seq", str(len(value)).encode())
        for item in value:
            encode(item, h)
    else:
        raise TypeError(f"no encoding for {type(value).__name__}")


def op_digest(op) -> "hashlib._Hash":
    h = hashlib.sha256()
    try:
        out = op.run()
    except Exception as exc:  # a raised error is an outcome to compare
        encode(("raised", type(exc).__name__, str(exc)), h)
    else:
        encode(("returned", out), h)
    return h


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help='seeds such as "1-8" or "1,2,7"')
    args = p.parse_args(argv)

    bench.import_nullctrl()
    import workloads

    for name in bench.WORKLOADS:
        total, count = hashlib.sha256(), 0
        for seed in args.seeds:
            for op in workloads.build_ops(name, seed):
                total.update(op_digest(op).hexdigest().encode())
                count += 1
        seeds = ",".join(map(str, args.seeds))
        print(f"{name} seeds {seeds} ({count} ops): {total.hexdigest()[:16]}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
