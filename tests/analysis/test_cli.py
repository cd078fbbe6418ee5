"""Acceptance tests for ``python -m repro.analysis`` (the simlint CLI)."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "bad_example.py"
#: unguarded-obs-call only fires in data-path module paths, so its
#: violation lives in a fixture under a repro/core/ directory.
FIXTURE_HOT = (
    Path(__file__).resolve().parent
    / "fixtures" / "repro" / "core" / "bad_obs_calls.py"
)

ALL_RULES = {
    "wall-clock",
    "unseeded-random",
    "or-default",
    "yield-event",
    "callback-arity",
    "unordered-iter",
    "slots-hot-path",
    "silent-except",
    "mutable-default",
    "schedule-shared-state",
    "direct-tracer-append",
    "direct-heapq",
    "unguarded-obs-call",
}


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


def test_src_tree_is_clean():
    result = run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr


def test_fixture_reports_every_rule_once():
    result = run_cli(str(FIXTURE), str(FIXTURE_HOT))
    assert result.returncode == 1
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    assert len(lines) == len(ALL_RULES)
    seen = set()
    for line in lines:
        # file:line:col: rule: message
        path, lineno, col, rule, _message = line.split(":", 4)
        assert path.endswith(("bad_example.py", "bad_obs_calls.py"))
        assert int(lineno) > 0 and int(col) > 0
        seen.add(rule.strip())
    assert seen == ALL_RULES


def test_json_output():
    result = run_cli("--format", "json", str(FIXTURE), str(FIXTURE_HOT))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == len(ALL_RULES)
    assert {v["rule"] for v in payload["violations"]} == ALL_RULES
    assert all(v["line"] > 0 for v in payload["violations"])


def test_select_single_rule():
    result = run_cli("--select", "wall-clock", str(FIXTURE))
    assert result.returncode == 1
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    assert len(lines) == 1
    assert "wall-clock" in lines[0]


def test_select_unknown_rule_is_usage_error():
    result = run_cli("--select", "no-such-rule", str(FIXTURE))
    assert result.returncode == 2


def test_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in ALL_RULES:
        assert rule in result.stdout
