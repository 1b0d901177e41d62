"""Record benchmark/reference.json from the source tree it runs against.

Run it on the commit whose outputs define "correct" (the seed commit of the
benchmark), from the repository root:

    python3 benchmark/record_reference.py

Every section is recomputed from scratch, in workload order (the cli section
reads the certify section just made).  The certify pool takes a few minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import substochastic  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ref = {}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for name, workload in WORKLOADS.items():
        ref[name] = workload(substochastic, ref, 0, ROOT, out_dir).reference()
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
