"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import seldet as sd  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from record_reference import record  # noqa: E402
from tracer import Hooks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_refs():
    hooks = Hooks(sd)
    return {name: record(workloads.WORKLOADS[name](tiny=True), hooks)
            for name in NAMES}


def run_tiny(name, refs, trace=False, seed=5):
    return harness.run(workloads.WORKLOADS[name](tiny=True), seed, 0.0,
                       trace, refs)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, tiny_refs):
    result, record_ = run_tiny(name, tiny_refs, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert record_["environment"]["thread_caps"] is not None
    assert all(fp["matches_reference"] for fp in record_["inputs"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_counters_equal_the_forecasts(name, tiny_refs):
    result, record_ = run_tiny(name, tiny_refs, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    fp = record_["inputs"][list(record_["inputs"])[-1]]  # op 1 is traced
    assert m["numeric.ldlt_factorize.flops"] == fp["ldlt_forecast"]
    assert m["selinv.selected_inverse.flops"] == fp["selinv_forecast"]
    assert m["ordering.amd_order.calls"] == 1
    assert m["symbolic.nnz_L"] == fp["nnz_L"]
    assert 0.9 < m["trace.covered_frac"] <= 1.0


def test_end_to_end_times_are_scaled_by_the_probe(tiny_refs):
    result, record_ = run_tiny("field_selinv", tiny_refs)
    probes = record_["probe_s_samples"]
    assert len(probes) == record_["operations"] + 1
    scale = speed.REFERENCE_S / statistics.median(probes)
    assert record_["speed_scale"] == scale
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["op_s"] == statistics.median(record_["op_s_samples"]) * scale
    assert m["setup_s"] == statistics.median(record_["setup_s_samples"]) * scale


def test_hooks_put_every_attribute_back(tiny_refs):
    before = {id(getattr(mod, attr))
              for _, where in Hooks(sd).sites.values() for mod, attr in where}
    run_tiny("reml_fit", tiny_refs, trace=True)
    after = {id(getattr(mod, attr))
             for _, where in Hooks(sd).sites.values() for mod, attr in where}
    assert before == after


def corrupted(refs, name):
    out = json.loads(json.dumps(refs))
    for entry in out[name].values():
        entry["values"]["loglik"] *= 1.0 + 1e-6
    return out


@pytest.mark.parametrize("name", ["reml_cold", "reml_fit"])
def test_a_corrupted_reference_fails_the_operation(name, tiny_refs):
    result, record_ = run_tiny(name, corrupted(tiny_refs, name))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert "loglik" in record_["failures"][0]["errors"][0]


def test_a_wrong_closed_form_fails_the_field_operation(tiny_refs, monkeypatch):
    exact = workloads.field_log_det
    monkeypatch.setattr(workloads, "field_log_det",
                        lambda *a: exact(*a) * (1.0 + 1e-6))
    result, _ = run_tiny("field_selinv", tiny_refs)
    assert result["failed"] == result["attempted"] == 1


def test_a_missing_reference_fails_the_operation(tiny_refs):
    result, record_ = run_tiny("reml_cold", {})
    assert result["failed"] == 1
    assert record_["failures"][0]["errors"] == ["no reference values for this input"]


def off_by_one(fn):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, flops=out.flops + 1)
    return wrapped


@pytest.mark.parametrize("module, attr", [
    (sd.reml, "selected_inverse"), (sd.reml, "ldlt_factorize"),
    (sd, "selected_inverse"), (sd, "ldlt_factorize")])
@pytest.mark.parametrize("name", NAMES)
def test_a_counter_off_by_one_fails_the_operation(name, module, attr,
                                                  tiny_refs, monkeypatch):
    monkeypatch.setattr(module, attr, off_by_one(getattr(module, attr)))
    result, record_ = run_tiny(name, tiny_refs)
    uses = (module is sd.reml) == name.startswith("reml")
    assert result["failed"] == (1 if uses else 0)
    if uses:
        assert "flops" in record_["failures"][0]["errors"][0]


@pytest.mark.parametrize("name", NAMES)
def test_the_same_seed_gives_the_same_inputs(name):
    def first(seed, k=3):
        feed = workloads.WORKLOADS[name](tiny=True).inputs(seed)
        return [next(feed) for _ in range(k)]
    a, b = first(11), first(11)
    assert [x.key for x in a] == [x.key for x in b]
    assert all(repr(x.data) == repr(y.data) for x, y in zip(a, b))


def test_the_reference_covers_every_full_size_input():
    refs = harness.load_references()
    for name in NAMES:
        w = workloads.WORKLOADS[name]()
        keys = [inp.key for inp in w.pool()]
        assert set(keys) == set(refs[name])
        assert all("fingerprint" in refs[name][k] for k in keys)


def test_the_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "reml_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
