"""CLI tests for the names and output fields the removed simflow
``typestate`` check used to add to ``python -m repro.analysis``.

The check is gone: ``typestate`` is no longer a known check, and JSON
violations carry only the simlint fields (no ``function``/``witness``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src"
FIXTURE = REPO_ROOT / "tests" / "analysis" / "fixtures" / "bad_example.py"


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
        result = run_cli("--select", "wall-clock", "--format", "json", str(FIXTURE))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["count"] == len(payload["violations"]) > 0
        assert payload["checks"] == ["wall-clock"]
        for violation in payload["violations"]:
            assert violation["rule"] == "wall-clock"
            assert set(violation) == {"path", "line", "col", "rule", "message"}

    def test_unknown_check_is_usage_error(self):
        result = run_cli("--select", "wall-clock,bogus", "src")
        assert result.returncode == 2
        assert "bogus" in result.stderr
        known = result.stderr.split("known:", 1)[1]
        assert "wall-clock" in known
        assert "typestate" not in known
