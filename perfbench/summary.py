"""Run every workload once, untraced, and print its end-to-end metrics.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Prints one line per workload and metric, with its unit, plus ``failed_frac``
(failed passes over attempted passes), and exits 1 if any pass failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    all_correct = True
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        all_correct &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:13s} {m['value']:12.4f} {m['unit']}")
        print(f"{name:12s} {'failed_frac':13s} {result['failed'] / result['attempted']:12.4f} ratio"
              f"  ({result['failed']} of {result['attempted']} passes)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
