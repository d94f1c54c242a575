"""Smoke test of the benchmark itself, run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Every workload runs at its smallest size (one round) in both modes and must
print every metric of BENCHMARK.json with its unit; a bracket that returns 0,
patched in for one run, must be counted as failed ops.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for name, unit in want.items():
        assert printed.get(name) == unit, name


def test_zero_bracket_is_caught(monkeypatch):
    import winfty.weyl

    original = winfty.weyl.bracket

    def zero_bracket(x, y):
        return x.weyl.zero()

    for name, mod in list(sys.modules.items()):
        if name.startswith("winfty") and mod.__dict__.get("bracket") is original:
            monkeypatch.setattr(mod, "bracket", zero_bracket)
    result = run.measure("bracket-rational", seed=0, seconds=0.01, trace=False)
    assert result["failed"] > 0
    assert result["provenance"]["failed_ratio"] > 0
    assert not result["correct"]


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert run.verdict(base, [v * 1.05 for v in base], "lower", 0.1) == "no worse"
    assert run.verdict(base, [v * 1.3 for v in base], "lower", 0.1) == "worse"
    assert run.verdict(base, [v * 1.3 for v in base], "higher", 0.1) == "better"
    assert run.verdict(base, [50.0, 150.0, 100.0, 60.0, 140.0], "lower", 0.1) == "unresolved"
