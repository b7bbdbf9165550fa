"""Self-test of the benchmark on tiny workloads, so that it cannot rot.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def report(workload, trace, seed=1):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["correct"], bool)
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    return out, proc.stdout


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert tuple(w["name"] for w in SPEC["workloads"]) == tuple(workloads.BUILDERS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert list(spans.layer_metrics({})) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_inputs_depend_only_on_the_seed(workload):
    def fingerprint(seed):
        return workloads.digest(workloads.build_ops(workload, seed, "tiny"))
    assert fingerprint(3) == fingerprint(3) != fingerprint(4)


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    out, text = report(workload, trace=0)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert "same inputs: True" in text
    assert out["correct"] and out["failed"] == 0, text


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_traced_counts_repeat_exactly(workload):
    first, text = report(workload, trace=1)
    second, _ = report(workload, trace=1)
    assert "per-layer counts identical" in text and "tracing overhead" in text
    counts = [{k: run["metrics"][k]["value"] for k in spans.COUNT_METRICS}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert all(float(v).is_integer() for v in counts[0].values())


def test_tracer_rebinds_imported_names_and_restores_them():
    import scipy.linalg
    from nullctrl import hum, lebeau_robbiano
    orig, orig_expm = hum.synthesize_control, hum.expm
    with spans.Tracer().installed():
        assert lebeau_robbiano.synthesize_control is hum.synthesize_control
        assert hum.synthesize_control.__wrapped__ is orig
        assert hum.expm is scipy.linalg.expm is not orig_expm
    assert hum.synthesize_control is orig and lebeau_robbiano.synthesize_control is orig
    assert hum.expm is scipy.linalg.expm is orig_expm


def test_self_time_subtracts_children():
    totals = spans.totals([["outer", 0, None, 0.0, 1.0, None, None],
                           ["inner", 0, 0, 0.2, 0.5, "ObservabilityError", 4],
                           ["inner", 0, 0, 0.6, 0.7, None, 2]])
    assert totals["outer"]["self_s"] == pytest.approx(0.6)
    assert totals["inner"]["calls"] == 2 and totals["inner"]["work"]["n"] == 6
    assert totals["inner"]["errors"] == {"ObservabilityError": 1}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("certify", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
