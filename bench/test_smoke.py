"""Smoke test of the benchmark itself on the tiny `smoke` workload.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SIGNALS = 8       # signals per pass of the smoke workload
SMOKE_KNOWN_BAD = 1     # of which one is lax-wendroff, paper, kron at 20^2


def _result(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec[kind]}


def _check(result, kind):
    declared = _declared(kind)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert metric["unit"] == declared[name]["unit"], name
    # the known-bad request fails in every pass, and is the only failure
    assert result["correct"] is True
    passes, rest = divmod(result["attempted"], SMOKE_SIGNALS)
    assert passes >= 1 and rest == 0
    assert result["failed"] == SMOKE_KNOWN_BAD * passes


def test_end_to_end_run_emits_every_metric_and_counts_the_known_bad_request():
    _check(_result(0), "end_to_end")


def test_traced_run_emits_every_per_layer_metric():
    _check(_result(1), "per_layer")
