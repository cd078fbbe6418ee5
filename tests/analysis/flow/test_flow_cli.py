"""Acceptance tests for the simflow ``typestate`` check as run by the
one ``python -m repro.analysis`` pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD = FIXTURES / "typestate_bad.py"
FLOW_CHECKS = "typestate"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=False,
    )


class TestFlowCli:
    def test_json_format(self):
        result = run_cli("--select", FLOW_CHECKS, "--format", "json", str(BAD))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["count"] == len(payload["violations"]) > 0
        assert payload["checks"] == ["typestate"]
        for violation in payload["violations"]:
            assert violation["rule"].startswith("flow-")
            assert {"path", "line", "col", "rule", "message", "function", "witness"} \
                <= set(violation)
            assert violation["function"] and violation["witness"]

    def test_unknown_check_is_usage_error(self):
        result = run_cli("--select", "typestate,bogus", "src")
        assert result.returncode == 2
        assert "bogus" in result.stderr
        assert "typestate" in result.stderr
