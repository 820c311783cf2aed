#!/usr/bin/env python3
"""Write reference.json: the digest of every pool instance's compress output.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are the reference (any
commit whose result files are byte-identical to it gives the same file).
A run compares each operation's output with these digests, so regenerate
the file only when the workload parameters change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import BENCH_DIR, SRC, import_program
from workloads import WORKLOADS, digest, hidden_instances


def main() -> int:
    sys.path.insert(0, str(SRC))
    lib = import_program()
    params, digests = {}, {}
    for workload in WORKLOADS.values():
        params[workload.name] = workload.describe()
        digests[workload.name] = {
            f"{n},{d}": [
                digest(lib["compress"].compress(hidden.public))
                for hidden in hidden_instances(lib, workload, n, d)
            ]
            for n, d, _ in workload.shapes
        }
        print(f"{workload.name}: {workload.pool} instances x {len(workload.shapes)} shapes")
    doc = {"params": params, "digests": digests}
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
