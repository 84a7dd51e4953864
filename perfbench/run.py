"""Benchmark entry point; README.md describes the workloads and metrics.

    python3 perfbench/run.py --workload reml_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there.  The last line of standard output is the result, with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (environment, input fingerprints, samples, failures).
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reml_cold", "reml_fit", "field_selinv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seldet" / "__init__.py").is_file():
        print(f"run.py: the seldet sources are missing from {SRC}",
              file=sys.stderr)
        return 2
    # The BLAS thread caps must be set before numpy is first imported.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import harness

    result, record = harness.main(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
