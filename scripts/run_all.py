#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage:
    python3 scripts/run_all.py [--seed S] [--out DIR]
"""

import argparse
import pathlib
import sys
import time

# import winfty from this checkout's src/, installed or not
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from winfty.suites import SUITE_NAMES, SuiteOptions, run_suite  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("reports"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    opts = SuiteOptions(seed=args.seed)
    all_passed = True
    for name in SUITE_NAMES[:-1]:
        t0 = time.time()
        doc = run_suite(name, opts)
        (args.out / f"{name}.json").write_text(doc.to_json())
        status = "PASS" if doc.passed else "FAIL"
        print(f"{name:20s} {status}  {len(doc.checks):3d} checks  "
              f"{time.time() - t0:6.1f}s")
        all_passed = all_passed and doc.passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
