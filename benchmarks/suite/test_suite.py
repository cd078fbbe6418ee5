"""Self-test of the figure-regeneration benchmark.

    PYTHONPATH=src python -m pytest -q benchmarks/suite
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
sys.path.insert(0, str(SUITE_DIR))
sys.path.insert(0, str(ROOT / "benchmarks"))

import calib  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((SUITE_DIR / "reference.json").read_text())


def test_point_lists_mirror_the_drivers():
    import bench_fig3_rtt as fig3
    import bench_fig4_bandwidth as fig4
    import bench_fig5_splitc as fig5
    import bench_fig6_kernel_latency as fig6
    import bench_fig7_udp_bandwidth as fig7
    import bench_fig8_tcp_bandwidth as fig8
    import bench_fig9_ip_latency as fig9
    from repro.splitc.apps import FIGURE5_SUITE

    assert workloads.FIG3_RAW_SIZES == fig3.RAW_SIZES
    assert workloads.FIG3_UAM_SIZES == fig3.UAM_SIZES
    assert workloads.FIG3_XFER_SIZES == fig3.XFER_SIZES
    assert workloads.FIG4_RAW_SIZES == fig4.RAW_SIZES
    assert workloads.FIG4_UAM_SIZES == fig4.UAM_SIZES
    assert workloads.FIG4_GET_SIZES == fig4.GET_SIZES
    assert workloads.FIG5_NPROCS == fig5.NPROCS
    assert workloads.FIG6_SIZES == fig6.SIZES
    assert workloads.FIG7_SIZES == fig7.SIZES
    assert workloads.FIG8_WRITE_SIZES == fig8.WRITE_SIZES
    assert list(workloads.FIG8_CURVES) == [(k, w) for k, w, _ in fig8.CURVES]
    assert workloads.FIG9_SIZES == fig9.SIZES
    counts = {w: len(workloads.points(w)) for w in workloads.WORKLOADS}
    assert counts == {
        "rtt_small": 1 + 20 + 27 + 20,
        "cell_bulk": 18,
        "ip_bulk": 32,
        "splitc_model": 3 * len(FIGURE5_SUITE),
    }


def test_every_point_has_one_reference_value():
    keys = [p.key for w in workloads.WORKLOADS for p in workloads.points(w)]
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(REFERENCE)


def test_every_source_file_maps_to_one_layer():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        assert layers.layer_of_file(str(path)) in layers.LAYERS, path
    assert layers.layer_of_file("<repro.sim.engine:calendar-core>") == "sim.engine"
    src = ROOT / "src" / "repro"
    expected = {
        "sim/engine.py": "sim.engine",
        "sim/shard/sharded.py": "sim.engine",
        "sim/batch.py": "sim.batch",
        "sim/resources.py": "sim.resources",
        "atm/link.py": "atm",
        "core/ni/base.py": "ni",
        "core/endpoint.py": "core",
        "splitc/apps/matmul.py": "splitc",
        "bench/micro.py": "bench",
        "obs/spans.py": "other",
        "__init__.py": "other",
    }
    for rel, layer in expected.items():
        assert layers.layer_of_file(str(src / rel)) == layer, rel
    assert layers.layer_of_file(str(SUITE_DIR / "child.py")) == "harness"
    assert layers.layer_of_file("~") is None
    assert layers.layer_of_file("/usr/lib/python3/heapq.py") is None


def test_suite_stays_off_switches_and_removable_code():
    banned_modules = ("repro.sim.batch", "repro.sim.shard", "bench_perf", "perf_gate")
    banned_calls = {"use_core", "use_batching"}
    for path in SUITE_DIR.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{a.name}" for a in node.names
                ]
            else:
                names = []
            for name in names:
                assert not name.startswith(banned_modules), (path.name, name)
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned_calls, (path.name, node.attr)
            if isinstance(node, ast.Name):
                assert node.id not in banned_calls, (path.name, node.id)


def test_canonical_is_bit_exact():
    from repro.bench.micro import RttResult

    value = RttResult(size=8, mean_us=0.1 + 0.2, min_us=1.0, samples=[2.5])
    assert workloads.canonical(value) == {
        "size": 8,
        "mean_us": (0.1 + 0.2).hex(),
        "min_us": (1.0).hex(),
        "samples": [(2.5).hex()],
    }
    assert workloads.canonical(0.3) != workloads.canonical(0.1 + 0.2)


def test_a_perturbed_result_counts_as_failed():
    point = next(p for p in workloads.points("rtt_small") if p.key.startswith("fig3"))
    checker = child.Checker(REFERENCE)
    checker.run(point)
    assert (checker.attempted, checker.failed) == (1, 0)
    perturbed = dict(REFERENCE)
    perturbed[point.key] = {**REFERENCE[point.key], "mean_us": (1.0).hex()}
    checker = child.Checker(perturbed)
    checker.run(point)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_sampler_scales_each_span_by_the_samples_near_it():
    k = calib.K_REF_S
    sampler = calib.Sampler()
    sampler.stamps = [0.0, 0.05, 1.0, 1.05]
    sampler.samples = [k, k, 2 * k, 2 * k]
    assert sampler.scale_at(0.0, 0.01) == pytest.approx(1.0)
    assert sampler.scale_at(1.0, 1.02) == pytest.approx(0.5)
    # nothing within WINDOW_S: the harmonic mean of all samples
    assert sampler.scale_at(0.5, 0.55) == pytest.approx(0.75)
    assert sampler.scale() == pytest.approx(0.75)


def _run(*args: str, out: Path = None) -> dict:
    cmd = [sys.executable, str(SUITE_DIR / "run.py"), "--workload", "rtt_small",
           "--seconds", "0.1", *args]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_pass_smoke_run(trace, section, tmp_path):
    out = tmp_path / "report.json"
    line = _run("--trace", trace, out=out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 68
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == _declared(section)
    if trace == "1":
        metrics = {name: m["value"] for name, m in line["metrics"].items()}
        shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=1e-6)
        assert metrics["sim.simulators"] > 0 and metrics["sim.events"] > 0
        diag = json.loads(out.read_text())["workloads"]["rtt_small"]["diagnostics"]
        assert diag["profiled_s"] == pytest.approx(diag["traced_raw_s"], rel=0.03)
