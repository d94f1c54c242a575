"""Smoke test of scripts/microbench.py: one repeat of every case, scalar and layer."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "microbench.py"


def test_microbench_times_every_case_once():
    out = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    ops = ["add", "mul", "pow", "exact_div", "substitute", "shift"]
    layers = [("weyl-n1", "mul"), ("weyl-n1", "bracket"), ("weyl-n1", "bracket-block"),
              ("weyl-n2", "mul"), ("weyl-n2", "bracket"), ("weyl-n2", "bracket-block"),
              ("hat", "cocycle"), ("module", "act"),
              ("closure", "box"), ("closure", "members"), ("text", "format"),
              ("text", "parse"), ("text", "parse-param"), ("weyl-n2", "construct"),
              ("rank2", "construct")]
    assert [(ring, op) for ring, op, _us in rows] == [
        (ring, op) for ring in ("weightlab", "alpha") for op in ops] + layers
    assert all(float(us) > 0 for _ring, _op, us in rows)
