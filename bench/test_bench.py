"""Smoke test of the benchmark at reduced radii.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in CONFIG[kind]}


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def patched_attributes():
    """Attributes of endlab modules and classes that still hold a span wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "endlab" and not mod_name.startswith("endlab."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                found += [f"{mod_name}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, "bench_span")]
    return found


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result, _, _ = run.measure(workload, seed=1, seconds=0, trace=False, scale="small")
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 0
    assert emitted(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_endlab_and_counts_repeat(workload):
    first, _, _ = run.measure(workload, seed=1, seconds=0, trace=True, scale="small")
    assert patched_attributes() == []
    second, _, _ = run.measure(workload, seed=2, seconds=0, trace=True, scale="small")
    for result in (first, second):
        assert result["failed"] == 0 and result["correct"]
        assert emitted(result) == declared("per_layer")
        m = {name: v["value"] for name, v in result["metrics"].items()}
        layer_self = sum(m[f"{layer}.s"] for layer in spans.LAYERS)
        assert layer_self + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}  # noqa: E731
    assert counts(first) == counts(second)


def test_seed_relabels_the_inputs():
    assert workloads.relabel_f2(1)[0] != workloads.relabel_f2(2)[0]
    assert workloads.relabel_gog(1)[0] != workloads.relabel_gog(2)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
