"""Digest the outputs of every benchmark op, to show a change moves no bit.

Usage, from the root of a checkout:

    python3 tools/op_digest.py --seeds 1-8

For each workload every op of the benchmark batch
of each seed runs once, and one SHA-256 over all their outputs is
printed.  An output is encoded field by field: dataclasses by class and
field name, floats as ``float.hex``, arrays as dtype, shape and raw
bytes; an op that raises contributes its exception type and message.
Two checkouts print the same digest only if every op returns the same
bits or fails the same way.  A control's sampled ``nodes`` and
``coefficients`` are encoded by name whether they are dataclass fields
or computed on first read (see ``SAMPLED``).

Next to each digest the tool prints, per seed, how many of the batch's
ops failed (raised, or returned an output their check rejects) out of
those attempted: the failed share ``perfbench/run.py`` reports for one
batch.

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


# per class: outputs sampled on a grid, encoded by name after the other
# fields whether they are fields or lazy attributes, and the fields they
# are sampled from, left out; a checkout that stores the samples and one
# that computes them on first read then hash alike
SAMPLED = {"ControlTrajectory": (("nodes", "coefficients"), ("grid",))}


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
        cls = type(value).__qualname__
        sampled, sources = SAMPLED.get(cls, ((), ()))
        names = [f.name for f in dataclasses.fields(value)
                 if f.name not in sampled + sources] + list(sampled)
        token("dataclass", f"{cls}/{len(names)}".encode())
        for name in names:
            token("field", name.encode())
            encode(getattr(value, name), h)
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


def run_op(op) -> tuple["hashlib._Hash", bool]:
    """The digest of one run of ``op`` and whether the op failed."""
    h = hashlib.sha256()
    try:
        out = op.run()
    except Exception as exc:  # a raised error is an outcome to compare
        encode(("raised", type(exc).__name__, str(exc)), h)
        return h, True
    encode(("returned", out), h)
    return h, op.check(out) is not None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help='seeds such as "1-8" or "1,2,7"')
    args = p.parse_args(argv)

    bench.import_nullctrl()
    import workloads

    for name in bench.WORKLOADS:
        total, count, failed = hashlib.sha256(), 0, []
        for seed in args.seeds:
            ops = workloads.build_ops(name, seed)
            misses = 0
            for op in ops:
                h, miss = run_op(op)
                total.update(h.hexdigest().encode())
                misses += miss
            count += len(ops)
            failed.append(f"{seed}: {misses}/{len(ops)}")
        seeds = ",".join(map(str, args.seeds))
        print(f"{name} seeds {seeds} ({count} ops): {total.hexdigest()[:16]}; "
              f"failed/attempted by seed: {', '.join(failed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
