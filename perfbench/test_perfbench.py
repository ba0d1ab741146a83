"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

Run from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT, reference=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--size", "tiny", *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, [json.loads(line) for line in lines]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    assert lines[-2]["fail_frac"] == {"value": 0.0, "unit": "ratio"}


def _reference_with(path, size, workload, item, field, value):
    reference = json.loads((HERE / "reference.json").read_text(encoding="ascii"))
    reference[size][workload][item][field] = value
    path.write_text(json.dumps(reference), encoding="ascii")
    return path


def test_wrong_reference_hash_counts_in_fail_frac_and_exits_nonzero(tmp_path):
    wrong = _reference_with(tmp_path / "reference.json", "tiny", "chabauty-probes",
                            "suite:chabauty-net", "sha256", "0" * 64)
    proc, lines = bench("--workload", "chabauty-probes", "--seed", "3", "--trace", "0",
                        reference=wrong)
    assert proc.returncode == 1
    result = lines[-1]
    assert result["correct"] is False and result["failed"] >= 1
    assert lines[-2]["fail_frac"]["value"] == result["failed"] / result["attempted"] > 0
    assert "suite:chabauty-net" in proc.stderr


def test_traced_run_checks_outputs_too(tmp_path):
    wrong = _reference_with(tmp_path / "reference.json", "tiny", "rows",
                            "row:net-probe", "stabilizes_at", 2)
    proc, lines = bench("--workload", "kernel-laws", "--seed", "3", "--trace", "1",
                        reference=wrong)
    assert proc.returncode == 1 and lines[-1]["failed"] == 1


def test_seeded_reference_is_checked_only_at_the_default_seed(tmp_path):
    wrong = _reference_with(tmp_path / "reference.json", "tiny", "region-dynamics",
                            "suite:neumann", "sha256", "0" * 64)
    args = ("--workload", "region-dynamics", "--trace", "0")
    proc, lines = bench(*args, "--seed", "3", reference=wrong)
    assert proc.returncode == 0 and lines[-1]["failed"] == 0
    proc, lines = bench(*args, "--seed", "0", reference=wrong)
    assert proc.returncode == 1 and lines[-1]["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/germlab" in proc.stderr


def _module(name, source, **names):
    import types

    module = types.ModuleType(name)
    module.__dict__.update(names)
    exec(source, module.__dict__)
    for attr, obj in vars(module).items():
        if callable(obj) and attr not in names:
            obj.__module__ = name
    return module


def test_tracer_counts_self_time_spans_and_restores(tmp_path):
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, read_spans

    lower = _module("lower", (
        "class K:\n"
        "    def __mul__(self, other):\n"
        "        return leaf(2)\n"
        "    def _private(self):\n"
        "        return leaf(1)\n"
        "def leaf(n):\n"
        "    return n\n"))
    upper = _module("upper", "def outer():\n    return K() * K() + leaf(1)\n",
                    K=lower.K, leaf=lower.leaf)
    originals = (lower.K.__dict__["__mul__"], lower.leaf, upper.outer)
    seen = []
    tracer = Tracer()
    tracer.instrument([lower, upper], {"lower.leaf": lambda args, result, exc: seen.append(result)},
                      [lower, upper])
    assert upper.leaf is lower.leaf is not originals[1]
    assert upper.outer() == 3
    lower.K()._private()
    tracer.restore()
    assert (lower.K.__dict__["__mul__"], lower.leaf, upper.outer) == originals
    assert upper.leaf is originals[1]

    stats = tracer.aggregate()
    assert {name: row["n"] for name, row in stats.items()} == {
        "lower.leaf": 3, "upper.outer": 1, "lower.K.__mul__": 1}
    assert seen == [2, 1, 1]

    # only calls that enter a layer from outside it are kept as spans
    path = tmp_path / "toy.spans"
    tracer.write(path)
    spans = read_spans(path)
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("upper.outer", -1), ("lower.K.__mul__", 0), ("lower.leaf", 0), ("lower.leaf", -1)]
    duration = [end - start for _, start, end, _ in spans]
    want = (duration[0] - duration[1] - duration[2]) / 1e9
    assert abs(stats["upper.outer"]["self_s"] - want) < 1e-12
