"""Determinism inference: the purity lattice and its two findings."""

from pathlib import Path

import pytest

from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.purity import (
    NONDET,
    SEEDED,
    SIM_PURE,
    check_program,
    classify,
)
from repro.analysis.linter import iter_python_files, lint_file
from repro.analysis.rules import get_rules

from tests.analysis.flow.conftest import fixture_program, make_program

REPO_ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def fixture_prog():
    return fixture_program("determinism_bad.py")


class TestClassification:
    def test_direct_evidence_is_nondet(self, fixture_prog):
        result = classify(fixture_prog)
        assert result.level(qual(fixture_prog, "helper_wall_clock")) == NONDET
        assert result.level(qual(fixture_prog, "helper_unseeded")) == NONDET
        assert result.level(qual(fixture_prog, "iterates_set")) == NONDET

    def test_seeded_is_not_nondet(self, fixture_prog):
        result = classify(fixture_prog)
        assert result.level(qual(fixture_prog, "seeded_draw")) == SEEDED

    def test_nondet_propagates_to_callers(self, fixture_prog):
        result = classify(fixture_prog)
        assert result.level(qual(fixture_prog, "tick")) == NONDET
        assert result.level(qual(fixture_prog, "boot")) == NONDET

    def test_pure_function_stays_pure(self):
        program = make_program(
            mod="""
            def pure(x):
                return x + 1
            """
        )
        assert classify(program).level("repro.mod.pure") == SIM_PURE


class TestFindings:
    def test_direct_sites_are_evidence_not_findings(self, fixture_prog):
        """The syntactic rules report direct sites; the pass only uses
        them as evidence, attributed to their enclosing function."""
        result = classify(fixture_prog)
        functions = {
            qualname.rsplit(".", 1)[-1]
            for qualname, sites in result.evidence.items()
            if any(rule != "seeded-rng" for *_, rule in sites)
        }
        assert functions == {
            "helper_wall_clock",
            "helper_unseeded",
            "iterates_set",
        }
        rules = {f.rule for f in check_program(fixture_prog)}
        assert rules == {"flow-nondet-call"}

    def test_seeded_draws_are_not_findings(self, fixture_prog):
        findings = check_program(fixture_prog)
        assert not [
            f for f in findings if f.function.endswith("seeded_draw")
        ]

    def test_interprocedural_case_the_syntactic_rules_miss(self, fixture_prog):
        findings = check_program(fixture_prog)
        calls = [f for f in findings if f.rule == "flow-nondet-call"]
        assert {f.function.rsplit(".", 1)[-1] for f in calls} == {"tick"}
        callees = {f.message for f in calls}
        assert any("helper_wall_clock()" in m for m in callees)
        assert any("helper_unseeded()" in m for m in callees)
        # the witness chain bottoms out at concrete evidence
        for finding in calls:
            assert any("[wall-clock]" in s or "[unseeded-random]" in s
                       for s in finding.witness)
        # ... and the syntactic rules see nothing on those lines
        syntactic = lint_file(
            str(Path(__file__).parent / "fixtures" / "determinism_bad.py"),
            get_rules(["wall-clock", "unseeded-random", "unordered-iter"]),
        )
        flagged_lines = {v.line for v in syntactic}
        assert not flagged_lines & {f.line for f in calls}

    def test_disable_comment_keeps_lattice_clean(self):
        program = make_program(
            mod="""
            import time

            def stamp():
                return time.time()  # simlint: disable=wall-clock
            """
        )
        assert classify(program).level("repro.mod.stamp") == SIM_PURE
        assert check_program(program) == []


def test_parity_with_syntactic_rules_on_real_tree():
    """Acceptance: the lattice is seeded from exactly the sites the
    wall-clock / unseeded-random / unordered-iter rules flag, and no
    ``(path, line)`` is reported both by a syntactic rule and by the
    determinism pass.  The fixtures keep the check non-vacuous: the
    shipped tree disables or has no such sites."""
    roots = [str(REPO_ROOT / d) for d in ("src", "benchmarks", "examples")]
    roots.append(str(Path(__file__).parent / "fixtures"))
    program = Program.from_paths(roots)
    classification = classify(program)
    evidence = {
        (fn.ctx.path, line)
        for qualname, sites in classification.evidence.items()
        for fn in [program.functions[qualname]]
        for line, _col, _reason, rule in sites
        if rule != "seeded-rng"
    }
    rules = get_rules(["wall-clock", "unseeded-random", "unordered-iter"])
    syntactic = {
        (v.path, v.line)
        for path in iter_python_files(roots)
        for v in lint_file(path, rules)
    }
    flow = {(f.path, f.line) for f in check_program(program)}
    assert syntactic and flow
    assert evidence <= syntactic
    assert not syntactic & flow


def qual(program, bare):
    hits = [q for q in program.functions if q.rsplit(".", 1)[-1] == bare]
    assert len(hits) == 1, hits
    return hits[0]
