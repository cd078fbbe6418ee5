"""ShadowScheduler unit tests: detection, happens-before, tie orders."""

import pytest

from repro import obs
from repro.analysis import race
from repro.sim import Simulator, Store
from repro.sim import engine


def _two_writer_sim():
    """Two same-instant callbacks each writing one shared Store, with no
    schedule edge between them -- the canonical simulation race."""
    sim = Simulator()
    store = Store(sim, name="shared")

    def writer(value):
        store.try_put(value)

    sim.schedule_callback(5.0, writer, "a")
    sim.schedule_callback(5.0, writer, "b")
    sim.run()
    return store


class TestDetection:
    def test_unordered_same_time_writers_flagged(self):
        with race.detected() as tracker:
            _two_writer_sim()
        report = tracker.report()
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.when == 5.0
        assert finding.state == "store:shared"
        assert finding.a_mode == "w" and finding.b_mode == "w"
        # both schedule sites point into this test file
        assert any("test_race.py" in path for path, _, _ in finding.a_site)
        assert any("test_race.py" in path for path, _, _ in finding.b_site)
        assert "insertion-sequence accident" in finding.format()

    def test_schedule_edge_orders_same_time_chain(self):
        """A scheduling B at zero delay creates a happens-before edge:
        not a race even though both write at the same instant."""
        with race.detected() as tracker:
            sim = Simulator()
            store = Store(sim, name="chained")

            def second():
                store.try_put("b")

            def first():
                store.try_put("a")
                sim.schedule_callback(0.0, second)

            sim.schedule_callback(5.0, first)
            sim.run()
        assert tracker.report().findings == []

    def test_distinct_timestamps_never_race(self):
        with race.detected() as tracker:
            sim = Simulator()
            store = Store(sim, name="timed")
            sim.schedule_callback(1.0, store.try_put, "a")
            sim.schedule_callback(2.0, store.try_put, "b")
            sim.run()
        assert tracker.report().findings == []

    def test_concurrent_reads_not_flagged(self):
        with race.detected() as tracker:
            sim = Simulator()
            store = Store(sim, name="readers")

            def reader():
                store.try_get()  # empty store: a read

            sim.schedule_callback(3.0, reader)
            sim.schedule_callback(3.0, reader)
            sim.run()
        assert tracker.report().findings == []

    def test_duplicate_pairs_deduplicate_with_count(self):
        with race.detected() as tracker:
            sim = Simulator()
            store = Store(sim, name="hot")
            for t in (1.0, 2.0, 3.0):
                sim.schedule_callback(t, store.try_put, "x")
                sim.schedule_callback(t, store.try_put, "y")
            sim.run()
        findings = tracker.report().findings
        assert len(findings) == 1
        assert findings[0].count == 3

    def test_construction_accesses_ignored(self):
        """Accesses outside the event loop (setup/teardown) cannot race."""
        with race.detected() as tracker:
            sim = Simulator()
            store = Store(sim, name="setup")
            store.try_put("built")  # no executing entry
            sim.run()
        report = tracker.report()
        assert report.findings == []
        assert report.accesses == 0


class TestTieOrders:
    def test_fifo_matches_unmonitored_order(self):
        def run(tie, seed=None):
            order = []
            with race.detected(tie=tie, seed=seed):
                sim = Simulator()
                for name in ("a", "b", "c"):
                    sim.schedule_callback(1.0, order.append, name)
                sim.run()
            return order

        assert run("fifo") == ["a", "b", "c"]
        assert run("lifo") == ["c", "b", "a"]
        shuffled = run("random", seed=7)
        assert sorted(shuffled) == ["a", "b", "c"]
        assert run("random", seed=7) == shuffled  # seeded = reproducible

    def test_unknown_tie_rejected(self):
        with pytest.raises(ValueError):
            race.RaceTracker(tie="sorted")

    def test_trace_records_when_and_label(self):
        with race.detected() as tracker:
            sim = Simulator()
            sim.schedule_callback(2.0, lambda: None)
            sim.run()
        assert len(tracker.trace) == 1
        when, label = tracker.trace[0]
        assert when == 2.0
        assert label.startswith("cb:")


class TestInstallation:
    def test_off_by_default_zero_state(self):
        sim = Simulator()
        assert sim._mon is None
        assert engine._monitor is None
        assert engine.access_hook is None

    def test_context_manager_restores_previous_hooks(self):
        with race.detected() as tracker:
            assert engine._monitor is tracker
            assert engine.access_hook == tracker.on_access
            assert Simulator()._mon is tracker
        assert engine._monitor is None
        assert engine.access_hook is None

    @pytest.mark.parametrize(
        "outer, inner",
        [(race.detected, obs.collecting), (obs.collecting, race.detected)],
        ids=["obs_inside_race", "race_inside_obs"],
    )
    def test_nested_monitor_refused(self, outer, inner):
        """One engine slot: arming a second monitor inside the first
        raises instead of silently blinding the outer one."""
        with outer():
            with pytest.raises(RuntimeError, match="already armed"):
                with inner():
                    pass

    def test_refused_nesting_keeps_outer_tracker_armed(self):
        with race.detected() as tracker:
            with pytest.raises(RuntimeError):
                with obs.collecting():
                    pass
            assert engine._monitor is tracker
            assert engine.access_hook == tracker.on_access
            assert obs.active is None
            _two_writer_sim()
        report = tracker.report()
        assert report.entries == 2
        assert len(report.findings) == 1
        assert engine._monitor is None
        assert engine.access_hook is None

    def test_report_summary_mentions_totals(self):
        with race.detected() as tracker:
            _two_writer_sim()
        report = tracker.report()
        assert "1 potential race(s)" in report.summary()
        assert report.entries == 2
        text = report.format()
        assert "store:shared" in text and "scheduled at" in text
