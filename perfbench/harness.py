"""Runs one workload in a closed loop for a fixed time and reports metrics.

One client, one process: the next operation starts when the previous one
and its output checks are done.  Set-up is repeated ``SETUP_REPS`` times
and its median reported.  The first operation warms the run up: it is
checked but left out of the median.  Before every operation, outside its
timed window, the probe of ``speed.py`` is timed, and both end-to-end times
are scaled to its reference speed.  Untraced runs report the end-to-end
metrics.
Traced runs alternate untraced and traced operations and report the
per-layer medians of the traced ones and the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import seldet as sd

import checks
import speed
from tracer import Hooks
from workloads import WORKLOADS, fingerprint

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac"}

# Functions whose inclusive seconds per operation are reported, and those
# whose call counts are.
TIMED = ("ordering.amd_order", "symbolic.symbolic_factor",
         "numeric.ldlt_factorize", "selinv.selected_inverse", "numeric.solve",
         "reml.assemble_mme", "reml.logdet_gradient",
         "sparse_core.permute_symmetric", "sparse_core.from_coo_arrays",
         "sparse_core.read_matrix_market")
COUNTED = ("ordering.amd_order", "symbolic.symbolic_factor", "numeric.solve",
           "reml.trace_product", "sparse_core.permute_symmetric")
KERNELS = ("numeric.ldlt_factorize", "selinv.selected_inverse")

PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.flops": "flop" for name in KERNELS},
    **{f"{name}.mflops": "Mflop/s" for name in KERNELS},
    "reml.reml_report.self_s": "s",
    "symbolic.nnz_L": "count",
    "symbolic.fill": "ratio",
    "trace.covered_frac": "frac",
    "trace.overhead_frac": "frac",
}


def load_references() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import seldet; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(Path(sd.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120, check=True)
    return float(done.stdout)


def set_up(workload, seed: int):
    """One set-up: a fresh-process import, the run's first input, and a
    warm-up operation on a tiny input of the same workload."""
    t_import = import_seconds()
    t0 = time.perf_counter()
    feed = workload.inputs(seed)
    first = next(feed)
    tiny = type(workload)(tiny=True)
    tiny.op(next(tiny.inputs(seed)).data)
    return t_import + time.perf_counter() - t0, feed, first


def layer_metrics(seen, op_s: float, fp: dict) -> dict[str, float]:
    m = {f"{name}.s": seen.get(name).s for name in TIMED}
    m.update({f"{name}.calls": seen.get(name).calls for name in COUNTED})
    for name in KERNELS:
        st = seen.get(name)
        m[f"{name}.flops"] = st.flops
        m[f"{name}.mflops"] = st.flops / st.s / 1e6 if st.s else 0.0
    m["reml.reml_report.self_s"] = seen.get("reml.reml_report").self_s
    m["symbolic.nnz_L"] = fp["nnz_L"]
    m["symbolic.fill"] = fp["nnz_L"] / fp["nnz_C"]
    m["trace.covered_frac"] = sum(st.self_s for st in seen.stats.values()) / op_s
    return m


def run_one(workload, inp, hooks: Hooks, traced: bool, entry: dict,
            rng: np.random.Generator) -> dict:
    """Time one operation, then check its outputs outside the timed window."""
    gc.collect()  # so that no operation pays for the garbage of the last
    with hooks.install(timed=traced) as seen:
        t0 = time.perf_counter()
        try:
            result = workload.op(inp.data)
            error = None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
    rec = {"key": inp.key, "op_s": op_s, "traced": traced}
    if error is None:
        try:
            out = workload.outputs(inp, result, seen.captured)
            expected = inp.expected if inp.expected is not None else entry.get("values")
            errors = checks.check(out, expected, rng)
            fp = fingerprint(out)
            rec["fingerprint"] = fp
            rec["fingerprint_matches_reference"] = entry.get("fingerprint") == fp
            if traced:
                rec["layers"] = layer_metrics(seen, op_s, fp)
        except Exception as exc:  # a check that cannot run fails the operation
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        errors = [error]
    rec["errors"] = errors
    return rec


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def run(workload, seed: int, seconds: float, trace: bool,
        refs: dict) -> tuple[dict, dict]:
    """Return (result, record): the result line and the run's record."""
    setups = [set_up(workload, seed) for _ in range(SETUP_REPS)]
    _, feed, inp = setups[-1]
    hooks = Hooks(sd)
    entries = refs.get(workload.name, {})
    ops: list[dict] = []
    probes: list[float] = []
    start = time.perf_counter()
    while len(ops) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        if ops:
            inp = next(feed)
        traced = trace and len(ops) % 2 == 1
        probes.append(speed.probe())
        ops.append(run_one(workload, inp, hooks, traced, entries.get(inp.key, {}),
                           np.random.default_rng([seed, len(ops)])))

    probes.append(speed.probe())
    scale = speed.REFERENCE_S / statistics.median(probes)
    failed = sum(bool(o["errors"]) for o in ops)
    passed = [o for o in ops if not o["errors"]] or ops
    warm = [o for o in ops[1:] if not o["errors"]] or passed
    if trace:
        traced = [o for o in passed if o["traced"]]
        with_layers = [o["layers"] for o in traced if "layers" in o]
        metrics = {name: _median(l[name] for l in with_layers)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        untraced_s = _median(o["op_s"] for o in passed if not o["traced"])
        traced_s = _median(o["op_s"] for o in traced)
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0
                                          if untraced_s and traced_s else 0.0)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "op_s": _median(o["op_s"] for o in warm) * scale,
            "setup_s": statistics.median(s for s, _, _ in setups) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / len(ops),
        }
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    inputs = {}
    for o in ops:
        if "fingerprint" in o:
            inputs[o["key"]] = {**o["fingerprint"], "matches_reference":
                                o["fingerprint_matches_reference"]}
    record = {
        "workload": workload.name,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        },
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "operations": len(ops),
        "median_over": {"op_s": len(warm), "setup_s": len(setups),
                        "probe_s": len(probes),
                        "layers": sum(o["traced"] for o in passed)},
        "speed_scale": scale,
        "op_s_samples": [o["op_s"] for o in ops],
        "setup_s_samples": [s for s, _, _ in setups],
        "probe_s_samples": probes,
        "inputs": inputs,
        "failures": [{"key": o["key"], "errors": o["errors"]}
                     for o in ops if o["errors"]],
    }
    return result, record


def main(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    return run(WORKLOADS[name](), seed, seconds, trace, load_references())
