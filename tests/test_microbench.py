"""Smoke test of scripts/microbench.py: one repeat of every case."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "microbench.py"


def test_microbench_times_every_case_once():
    out = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    ops = ["add", "mul", "pow", "exact_div", "substitute", "shift"]
    assert [(ring, op) for ring, op, _us in rows] == [
        (ring, op) for ring in ("weightlab", "alpha") for op in ops]
    assert all(float(us) > 0 for _ring, _op, us in rows)
