"""Records reference.json from the current code.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For every input in a workload's pool it runs the operation once and
stores its fingerprint and, unless the workload knows them in closed
form, the values the output checks compare with.  It refuses to record
an operation whose other checks fail.  Workloads not named keep their
entries.
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import seldet as sd  # noqa: E402

import checks  # noqa: E402
from tracer import Hooks  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record(workload, hooks: Hooks) -> dict:
    entries = {}
    for i, inp in enumerate(workload.pool()):
        with hooks.install(timed=False) as seen:
            result = workload.op(inp.data)
        out = workload.outputs(inp, result, seen.captured)
        errors = (checks.counters(out) + checks.trace_identity(out)
                  + checks.solve_columns(out, np.random.default_rng(i)))
        if errors:
            raise RuntimeError(f"{workload.name} {inp.key}: {errors}")
        entry = {"fingerprint": fingerprint(out)}
        if inp.expected is None:
            entry["values"] = out.values
        entries[inp.key] = entry
        print(f"{workload.name} {inp.key}", file=sys.stderr)
    return entries


def main(names) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    hooks = Hooks(sd)
    for name in names or WORKLOADS:
        refs[name] = record(WORKLOADS[name](), hooks)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
