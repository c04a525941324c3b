"""Smoke test of the benchmark: every workload at its tiny size, traced.

Checks that no operation fails, that each layer's counters are nonzero on
the workload meant to stress it, that layers a workload must not reach read
zero, that the self-time shares follow the prediction table in README.md,
that the output keeps the contract of BENCHMARK.json, and that the pace
timer scales CPU time by the reference chunk.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pace import REFERENCE_S, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# layer -> (workload meant to stress it, counters that must be nonzero there)
STRESSED = {
    "cyclo": ("substrate", ("cyclo.mul.calls", "cyclo.addsub.calls",
                            "cyclo.inverse.calls", "cyclo.embed.calls")),
    "linalg": ("substrate", ("linalg.matmul.calls", "linalg.inverse.calls",
                             "linalg.rref.calls", "linalg.subspace.calls")),
    "liealg": ("substrate", ("liealg.bracket.calls",)),
    "autgrp": ("symmetry", ("autgrp.compose.calls", "autgrp.inverse.calls",
                            "autgrp.construct.calls")),
    "gradings": ("substrate", ("gradings.verify.calls", "gradings.label.calls")),
    "normalizers": ("symmetry", ("normalizers.normalizes.calls", "normalizers.states")),
    "contractions": ("contract", ("contractions.swept_assignments",
                                  "contractions.materialized_masks",
                                  "contractions.solve_s", "contractions.orbits_full_s.g2",
                                  "contractions.sweep_oracle_s.g2")),
}
UNREACHED = {"symmetry": ("contractions.",), "substrate": ("contractions.", "normalizers.")}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in ("symmetry", "contract", "substrate"):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--tiny")
        out[workload] = _result(proc)
    return out


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_no_operation_fails(traced):
    for workload, result in traced.items():
        assert result["correct"] is True, workload
        assert result["failed"] == 0 and result["attempted"] > 0, workload


def test_traced_run_reports_every_per_layer_metric(traced):
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for result in traced.values():
        assert set(result["metrics"]) == names


def test_stressed_layers_count_work(traced):
    for layer, (workload, counters) in STRESSED.items():
        values = _values(traced[workload])
        for counter in counters:
            assert values[counter] > 0, (workload, counter)
        assert values[f"{layer}.self_s"] > 0, (workload, layer)


def test_unreached_layers_read_zero(traced):
    for workload, prefixes in UNREACHED.items():
        for name, value in _values(traced[workload]).items():
            if name.startswith(prefixes):
                assert value == 0, (workload, name)


def test_self_time_shares_follow_predictions(traced):
    def shares(workload):
        values = _values(traced[workload])
        own = {layer: values[f"{layer}.self_s"] for layer in STRESSED}
        total = sum(own.values())
        return {layer: t / total for layer, t in own.items()}

    symmetry = shares("symmetry")
    assert symmetry["cyclo"] + symmetry["linalg"] + symmetry["autgrp"] + \
        symmetry["normalizers"] > 0.9
    contract = shares("contract")
    assert max(contract, key=contract.get) == "contractions"


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_run("--workload", "substrate", "--seed", "5", "--seconds", "1",
                          "--tiny"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


def test_pace_scales_own_cpu_time_by_the_reference_chunk():
    pace = Pace()
    pace.start()
    try:
        since = pace.mark()
        while pace.chunks < 5:
            sum(range(1000))
        at_reference, own, ratio = pace.phase(since)
    finally:
        pace.stop()
    assert own > 0 and ratio == pytest.approx(pace.cpu / pace.chunks / REFERENCE_S)
    assert at_reference == pytest.approx(own / ratio)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "symmetry", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
