"""Tests of the benchmark itself.

Run from the root of a checkout:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import goi_setup  # noqa: E402
import proofs  # noqa: E402
import workloads  # noqa: E402
from tracer import CONSTRUCTORS, Tracer, goi_namespaces  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GENERATED = [w for w in workloads.WORKLOADS.values() if w is not workloads.VerifySuite]


def run_bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py")] + args
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd, check=False)


def tiny_result(workload: str, trace: int) -> dict:
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_inputs(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(same_inputs(x, y) for x, y in zip(a, b))
    return a == b


def round_inputs(cls, seed: int, tmp_path: Path):
    items = cls(seed, "full", tmp_path).round(0)
    return [it.name for it in items], [it.inputs for it in items]


@pytest.mark.parametrize("cls", GENERATED, ids=lambda c: c.name)
def test_generators_are_deterministic_per_seed(cls, tmp_path):
    names1, inputs1 = round_inputs(cls, 5, tmp_path)
    names2, inputs2 = round_inputs(cls, 5, tmp_path)
    assert names1 == names2
    assert all(same_inputs(a, b) for a, b in zip(inputs1, inputs2))
    _, inputs3 = round_inputs(cls, 6, tmp_path)
    assert not all(same_inputs(a, b) for a, b in zip(inputs1, inputs3))


def test_expected_links_of_an_axiom():
    assert proofs.expected_links(proofs.ax("X").sequent) == {("L", 0, "R", 0, 1 + 0j), ("R", 0, "L", 0, 1 + 0j)}


def test_cut_chain_concludes_like_an_axiom():
    import random

    for n in (1, 2, 7):
        assert proofs.cut_chain(n, "X", random.Random(n)).sequent == proofs.ax("X").sequent


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    res = tiny_result(name, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    res = tiny_result(name, 1)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["failed"] == 0 and res["correct"] is True


def test_compared_rate_is_scaled_to_the_reference_host():
    import harness

    results = [workloads.ItemResult("a", 0.5, True), workloads.ItemResult("b", 1.5, True)]
    slow_host = [2 * harness.REFERENCE_S, 2 * harness.REFERENCE_S, 9.0]
    compared, printed = harness.end_to_end(results, [0.2], slow_host)
    assert printed["items_per_s"][0] == 1.0
    assert compared["items_per_ref_s"][0] == 2.0


def _bindings() -> dict:
    out = {}
    for mod in goi_namespaces():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    for modname, clsname, method, _ in CONSTRUCTORS:
        cls = getattr(sys.modules[modname], clsname)
        out[(f"{modname}.{clsname}", method)] = cls.__dict__[method]
    return out


def test_traced_run_restores_every_binding(tmp_path):
    g, _ = goi_setup.set_up()
    mll = workloads.MllCutChains(1, "tiny", tmp_path, g)
    dense = workloads.DenseCarriers(1, "tiny", tmp_path, g)
    before = _bindings()
    linalg = sys.modules["goi.linalg"]
    execution = sys.modules["goi.execution"]
    original_norm = linalg.operator_norm

    tracer = Tracer()
    tracer.install()
    try:
        # every binding a caller resolves is wrapped, not only the defining one
        assert linalg.operator_norm is not original_norm
        assert execution.operator_norm is linalg.operator_norm
        results = mll.run_round(0, tracer) + dense.run_round(0, tracer)
    finally:
        tracer.uninstall()

    assert all(r.ok for r in results)
    assert len(tracer) > 0
    metrics = tracer.metrics()
    assert metrics["groupoid.compose.calls"][0] > 0 and metrics["linalg.operator_norm.calls"][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(["--workload", "mll-cut-chains", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
