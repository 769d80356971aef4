"""Record the output sha256 of each workload on each input variant.

    python3 perfbench/record_references.py [--workload NAME ...]

Writes ``references.json`` next to this file, replacing the entries of the
named workloads (default: all).  Every benchmark pass is gated on these
hashes, so re-record only for a deliberate output change and say so in
CHANGES.md.  A variant is recorded only if its pass clears every other check
of the gate (exit codes, ring axioms, closed-form dimensions).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads


def record(name: str, workdir: Path) -> list[str]:
    digests = []
    for variant in range(workloads.INPUT_VARIANTS):
        case = workloads.WORKLOADS[name](variant, workdir)
        start = perf_counter()
        reason, digest = case.inspect(case.run())
        if reason is not None:
            sys.exit(f"{name} variant {variant}: {reason}")
        print(f"{name} {variant} {digest} {perf_counter() - start:.2f} s", file=sys.stderr, flush=True)
        digests.append(digest)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.SRC.parent) as tmp:
        for name in args.workload or sorted(workloads.WORKLOADS):
            refs[name] = record(name, Path(tmp))
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
