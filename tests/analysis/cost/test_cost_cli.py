"""Acceptance tests for ``python -m repro.analysis --cost``."""

import json
from pathlib import Path

from tests.analysis.flow.test_flow_cli import run_cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD = FIXTURES / "cost_bad.py"
CLEAN = FIXTURES / "cost_clean.py"


class TestCostCli:
    def test_src_tree_is_clean_post_fixes(self):
        result = run_cli("--cost", "src", "--baseline", "COST_baseline.json")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "hot-path functions by weighted score" in result.stdout

    def test_fixture_fails_with_findings_and_ranking(self):
        result = run_cli("--cost", str(BAD))
        assert result.returncode == 1
        assert "cost-alloc" in result.stdout
        assert "cost-str-format" in result.stdout
        assert "hot-path functions by weighted score" in result.stdout
        assert "finding(s)" in result.stderr

    def test_static_only_fallback_flag(self):
        result = run_cli("--cost", "--cost-profile", "none", str(BAD))
        assert result.returncode == 1
        assert "static-only" in result.stdout

    def test_json_format(self):
        result = run_cli("--cost", "--format", "json", str(BAD))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["count"] == len(payload["findings"]) > 0
        assert "functions" in payload and "modules" in payload
        finding = payload["findings"][0]
        assert {"path", "line", "col", "rule", "message", "function", "witness"} \
            <= set(finding)

    def test_json_ranks_clean_fixture_without_findings(self):
        result = run_cli("--cost", "--format", "json", str(CLEAN))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["count"] == 0
        names = [c["function"] for c in payload["functions"]]
        assert any(n.endswith(".on_deliver") for n in names)

    def test_check_selection(self):
        result = run_cli("--cost", "--cost-checks", "try-loop", str(CLEAN))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_unknown_check_is_usage_error(self):
        result = run_cli("--cost", "--cost-checks", "bogus", str(BAD))
        assert result.returncode == 2
        assert "unknown cost check" in result.stderr

    def test_cost_top_limits_ranking(self):
        result = run_cli("--cost", "--cost-top", "2", str(BAD))
        ranked = [
            line for line in result.stdout.splitlines()
            if "x factor" in line or "score" in line and "depth" in line
        ]
        assert len(ranked) <= 3  # header line + 2 entries


class TestCostBaseline:
    def test_baseline_roundtrip(self, tmp_path):
        baseline = tmp_path / "cost_baseline.json"
        wrote = run_cli(
            "--cost", "--baseline", str(baseline), "--write-baseline", str(BAD)
        )
        assert wrote.returncode == 0, wrote.stdout + wrote.stderr
        assert baseline.exists()
        replay = run_cli("--cost", "--baseline", str(baseline), str(BAD))
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "suppressed" in replay.stderr

    def test_baseline_is_count_aware(self, tmp_path):
        baseline = tmp_path / "empty_baseline.json"
        wrote = run_cli(
            "--cost", "--baseline", str(baseline), "--write-baseline", str(CLEAN)
        )
        assert wrote.returncode == 0
        replay = run_cli("--cost", "--baseline", str(baseline), str(BAD))
        assert replay.returncode == 1

    def test_committed_baseline_is_empty(self):
        committed = json.loads(Path("COST_baseline.json").read_text())
        assert committed["entries"] == []


class TestDisableComments:
    def test_line_disable_suppresses(self, tmp_path):
        src = BAD.read_text().replace(
            "self.pending.append(Packet(cell))  # cost-alloc, loop depth 1",
            "self.pending.append(Packet(cell))  # simcost: disable=cost-alloc",
        )
        patched = tmp_path / "cost_bad_disabled.py"
        patched.write_text(src)
        result = run_cli("--cost", str(patched))
        assert "on_alloc_loop" not in result.stdout.split("hot-path functions")[0]

    def test_file_disable_suppresses_everything(self, tmp_path):
        src = "# simcost: disable-file\n" + BAD.read_text()
        patched = tmp_path / "cost_bad_all_disabled.py"
        patched.write_text(src)
        result = run_cli(
            "--cost",
            "--cost-checks",
            "alloc,alloc-loop,str-format,attr-dict,global-loop,kwargs-call,try-loop,gen-resume",
            str(patched),
        )
        assert result.returncode == 0, result.stdout + result.stderr
