"""Acceptance tests for ``python -m repro.obs``."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_RACE", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(cwd or REPO_ROOT),
        check=False,
    )


def test_report_fig3(tmp_path):
    out = tmp_path / "att.json"
    result = run_cli("report", "fig3", "--n", "2", "--json", str(out))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "budget check: within" in result.stdout
    doc = json.loads(out.read_text())
    layers = doc["attribution"]["layers_us"]
    assert set(layers) == {"host", "ni_tx", "ni_rx", "wire", "switch"}
    # the printed table and the JSON agree on the dominant layer
    assert max(layers, key=layers.get) == "ni_rx"
    assert doc["budget"]["ok"] is True
    assert doc["roundtrips"] == 2
    assert doc["engine_profile"]["entries_scheduled"] > 0


def test_export_writes_trace(tmp_path):
    out = tmp_path / "trace.json"
    result = run_cli("export", "fig3", "--n", "2", "-o", str(out))
    assert result.returncode == 0, result.stdout + result.stderr
    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_diff_self_is_zero(tmp_path):
    out = tmp_path / "att.json"
    run_cli("report", "fig3", "--n", "2", "--json", str(out))
    result = run_cli(
        "diff", str(out), str(out), "--fail-over", "0.001"
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "+0.000" in result.stdout


def test_unknown_scenario_is_usage_error():
    result = run_cli("report", "fig99")
    assert result.returncode == 2  # argparse choices rejection


def test_fig3_report_has_percentiles_section():
    from repro.obs import report

    doc, _ = report.run_fig3(n=4)
    pct = doc["percentiles"]
    rtt = pct["rtt_us"]
    assert rtt["p50"] <= rtt["p99"] <= rtt["p999"]
    assert set(pct["layers_us"]) == set(doc["attribution"]["layers_us"])
    assert doc["tracer_records_dropped"] == 0
    # the metrics registry rode along: exact-percentile RTT histogram
    assert "rtt_us" in doc["metrics"]["histograms"]


def test_report_warns_on_tracer_records_dropped():
    from repro.obs import report as report_mod

    doc, _ = report_mod.run_fig3(n=4)
    assert "WARNING" not in report_mod.format_report(doc)
    doc["tracer_records_dropped"] = 7
    out = report_mod.format_report(doc)
    assert "WARNING" in out and "7" in out
