"""Typestate checking: one finding per fixture violation, with the
right rule and a usable witness path; no findings on clean idioms or
on the real tree."""

import pytest

from repro.analysis.flow import analyze_program
from repro.analysis.flow.typestate import check_program

from tests.analysis.flow.conftest import FIXTURES, fixture_program, make_program


@pytest.fixture(scope="module")
def bad_findings():
    return check_program(fixture_program("typestate_bad.py"))


def findings_in(findings, function):
    return [f for f in findings if f.function.endswith(function)]


class TestFixtureViolations:
    def test_one_finding_per_function(self, bad_findings):
        by_function = {}
        for finding in bad_findings:
            by_function.setdefault(finding.function.rsplit(".", 1)[-1], []).append(
                finding
            )
        assert {
            name: len(found) for name, found in by_function.items()
        } == {
            "leaks_on_exit": 1,
            "leaks_on_error": 1,
            "drops_result": 1,
            "frees_twice": 1,
            "writes_after_free": 1,
            "reads_after_repost": 1,
            "uses_after_destroy": 1,
        }

    def test_exit_leak(self, bad_findings):
        (finding,) = findings_in(bad_findings, "leaks_on_exit")
        assert finding.rule == "flow-segment-leak"
        assert "reaches the function exit without free()" in finding.message
        # reported at the creation site, with the creation as witness
        assert "offset = session.alloc(n)" in open(
            FIXTURES / "typestate_bad.py"
        ).read().splitlines()[finding.line - 1]
        assert any("created by alloc()" in step for step in finding.witness)

    def test_error_path_leak_names_the_raiser(self, bad_findings):
        (finding,) = findings_in(bad_findings, "leaks_on_error")
        assert finding.rule == "flow-segment-leak"
        assert "an exception can unwind leaks_on_error()" in finding.message
        assert any(
            "session.write_segment(offset, data)" in step and "may raise" in step
            for step in finding.witness
        )

    def test_dropped_result(self, bad_findings):
        (finding,) = findings_in(bad_findings, "drops_result")
        assert finding.rule == "flow-segment-leak"
        assert "result of alloc() discarded" in finding.message

    def test_double_free(self, bad_findings):
        (finding,) = findings_in(bad_findings, "frees_twice")
        assert finding.rule == "flow-use-after-free"
        assert "double free" in finding.message
        # witness walks the first free before flagging the second
        assert any("allocated -> freed" in step for step in finding.witness)

    def test_write_after_free(self, bad_findings):
        (finding,) = findings_in(bad_findings, "writes_after_free")
        assert finding.rule == "flow-use-after-free"
        assert "write to a freed segment buffer" in finding.message

    def test_descriptor_reuse(self, bad_findings):
        (finding,) = findings_in(bad_findings, "reads_after_repost")
        assert finding.rule == "flow-descriptor-reuse"
        assert "repost_free" in finding.message

    def test_endpoint_use_after_destroy(self, bad_findings):
        (finding,) = findings_in(bad_findings, "uses_after_destroy")
        assert finding.rule == "flow-endpoint-use"
        assert "destroyed endpoint" in finding.message


class TestCleanIdioms:
    def test_clean_fixture_has_no_findings(self):
        findings = check_program(fixture_program("typestate_clean.py"))
        assert findings == []


class TestInterprocedural:
    def test_helper_free_summary_catches_double_free(self):
        program = make_program(
            mod="""
            def release(session, offset, n):
                session.free(offset, n)

            def caller(session, n):
                offset = session.alloc(n)
                release(session, offset, n)
                session.free(offset, n)
            """
        )
        findings = check_program(program)
        assert [f.rule for f in findings] == ["flow-use-after-free"]
        (finding,) = findings
        assert any("release->free" in step for step in finding.witness)

    def test_helper_free_summary_clears_the_leak(self):
        program = make_program(
            mod="""
            def release(session, offset, n):
                session.free(offset, n)

            def caller(session, n):
                offset = session.alloc(n)
                release(session, offset, n)
            """
        )
        assert check_program(program) == []


class TestDisables:
    def test_simflow_disable_comment_suppresses(self):
        """The one ``# simlint: disable`` grammar also silences the flow
        checks' findings."""
        program = make_program(
            mod="""
            def leaky(session, n):
                offset = session.alloc(n)  # simlint: disable=flow-segment-leak
                return None
            """
        )
        assert analyze_program(program, ["typestate"]) == []
