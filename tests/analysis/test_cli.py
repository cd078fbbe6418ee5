"""Acceptance tests for ``python -m repro.analysis``: one pass running
every simlint rule."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "bad_example.py"
#: data-path-print only fires in data-path module paths, so its
#: violation lives in a fixture under repro/core/.
FIXTURE_HOT = HERE / "fixtures" / "repro" / "core" / "bad_data_path.py"
#: every seeded fixture: one site per rule.
SEEDED = (str(FIXTURE), str(FIXTURE_HOT))

ALL_RULES = {
    "wall-clock",
    "unseeded-random",
    "or-default",
    "unordered-iter",
    "slots-hot-path",
    "silent-except",
    "mutable-default",
    "schedule-shared-state",
    "data-path-print",
    "direct-heapq",
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


def reported_rules(stdout):
    """Rule names of the reported lines."""
    rules = []
    for line in stdout.splitlines():
        # file:line:col: rule: message
        path, lineno, col, rule, _message = line.split(":", 4)
        assert int(lineno) > 0 and int(col) > 0, line
        rules.append(rule.strip())
    return rules


def test_src_tree_is_clean():
    result = run_cli("src", "benchmarks", "examples")
    assert result.returncode == 0, result.stdout + result.stderr


def test_fixture_reports_every_rule_once():
    result = run_cli(*SEEDED)
    assert result.returncode == 1
    rules = reported_rules(result.stdout)
    assert sorted(rules) == sorted(ALL_RULES)


def test_seeded_fixtures_report_every_check():
    result = run_cli(*SEEDED)
    assert result.returncode == 1
    rules = reported_rules(result.stdout)
    assert set(rules) == ALL_RULES
    assert f"simlint: {len(rules)} violation(s)" in result.stderr


def test_json_output():
    result = run_cli("--format", "json", *SEEDED)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == len(payload["violations"])
    assert payload["checks"] == sorted(ALL_RULES)
    assert {v["rule"] for v in payload["violations"]} == ALL_RULES
    for violation in payload["violations"]:
        assert violation["line"] > 0
        assert set(violation) == {"path", "line", "col", "rule", "message"}


def test_select_single_rule():
    result = run_cli("--select", "wall-clock", str(FIXTURE))
    assert result.returncode == 1
    assert reported_rules(result.stdout) == ["wall-clock"]
    result = run_cli("--select", "wall-clock", "--format", "json", str(FIXTURE))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["checks"] == ["wall-clock"]
    assert {v["rule"] for v in payload["violations"]} == {"wall-clock"}


def test_select_unknown_rule_is_usage_error():
    result = run_cli("--select", "wall-clock,no-such-rule", str(FIXTURE))
    assert result.returncode == 2
    assert "no-such-rule" in result.stderr
    assert "wall-clock" in result.stderr  # the known rules are listed


def test_select_typestate_is_usage_error():
    """The typestate check was removed; selecting it is an unknown
    check like any other."""
    result = run_cli("--select", "typestate", "src")
    assert result.returncode == 2
    assert "typestate" in result.stderr
    known = result.stderr.split("known:", 1)[1]
    assert "wall-clock" in known
    assert "typestate" not in known


def test_select_determinism_is_usage_error():
    """The interprocedural determinism check was removed; selecting it
    is an unknown check like any other."""
    result = run_cli("--select", "determinism", str(FIXTURE))
    assert result.returncode == 2
    assert "determinism" in result.stderr


def test_race_check_without_scenarios_is_usage_error():
    result = run_cli("--race-check", ",")
    assert result.returncode == 2
    assert "no scenario" in result.stderr


def test_race_check_negative_orders_is_usage_error():
    result = run_cli("--race-check", "fig3", "--race-orders", "-3")
    assert result.returncode == 2
    assert "--race-orders" in result.stderr


def test_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    listed = {line.split()[0] for line in result.stdout.splitlines()}
    assert listed == ALL_RULES
