"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Resource, Simulator, SimulationError, Store


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)

        def proc():
            store.try_put("x")
            item = yield store.get()
            return item

        p = sim.process(proc())
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def getter():
            item = yield store.get()
            return (sim.now, item)

        def putter():
            yield sim.timeout(30.0)
            store.try_put("late")

        p = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert p.value == (30.0, "late")

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []
        for i in range(5):
            store.try_put(i)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_try_put_drops_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put("a")
        assert store.try_put("b")
        assert not store.try_put("c")
        assert len(store) == 2

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_try_put_hands_to_waiting_getter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)

        def getter():
            item = yield store.get()
            return item

        p = sim.process(getter())
        sim.run()  # getter is now blocked
        assert store.try_put("direct")
        sim.run()
        assert p.value == "direct"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Store(Simulator(), capacity=0)

    def test_is_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert not store.is_full
        store.try_put(1)
        assert store.is_full


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        spans = []

        def worker(tag):
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(10.0)
            res.release(req)
            spans.append((tag, start, sim.now))

        for tag in "ab":
            sim.process(worker(tag))
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []

        def worker():
            req = res.request()
            yield req
            yield sim.timeout(10.0)
            res.release(req)
            ends.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert ends == [10.0, 10.0, 20.0]

    def test_use_helper(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(5.0)
            return sim.now

        p1 = sim.process(worker())
        p2 = sim.process(worker())
        sim.run()
        assert (p1.value, p2.value) == (5.0, 10.0)

    def test_release_idle_raises(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_negative_duration_leaves_resource_free(self):
        sim = Simulator()
        res = Resource(sim)

        def bad():
            yield from res.use(-1.0)

        sim.process(bad())
        with pytest.raises(ValueError):
            sim.run()
        assert (res.in_use, res.queued) == (0, 0)

    def test_release_ungranted_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        held = res.request()
        waiting = res.request()
        with pytest.raises(SimulationError):
            res.release(waiting)
        assert (res.in_use, res.queued) == (1, 1)
        res.release(held)
        sim.run()
        assert waiting.processed
        res.release(waiting)
        assert (res.in_use, res.queued) == (0, 0)

    def test_queued_count(self):
        sim = Simulator()
        res = Resource(sim)

        def holder():
            yield from res.use(100.0)

        def waiter():
            yield from res.use(1.0)

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=50.0)
        assert res.in_use == 1
        assert res.queued == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)


def reference_use(res, duration, priority=0):
    """``Resource.use`` as it was before the contended hand-off: a free
    resource is taken at once; a contended one is a request event, a
    wake-up at grant time, then a timeout for the hold."""
    if res.in_use < res.capacity and not res.queued:
        res._in_use += 1
        try:
            yield res.sim.timeout(duration)
        finally:
            res._release_held()
    else:
        request = res.request(priority)
        yield request
        try:
            yield res.sim.timeout(duration)
        finally:
            res.release(request)


def _contention_log(use, seed, capacity, holders=None):
    """Workers with tied arrival times and durations, some using
    ``use(...)`` and some ``request(priority=-1)``, plus observers that
    log the resource state at every instant a hold can start or end.
    Same-instant entries log in (when, seq) order, so equal logs mean
    equal grant order and equal tie order.

    With ``holders`` set to ``"hold"``, about half of the priority-0
    ``use`` workers call ``Resource.hold`` instead; with ``"use"`` the
    same workers are written as ``use`` generators."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    log = []

    def done(tag):
        # The state shows that the hold is released before fn runs.
        log.append((sim.now, tag, "done", res.in_use, res.queued))

    def holder(tag, arrive, duration):
        yield sim.timeout(arrive)
        log.append((sim.now, tag, "arrive"))
        if holders == "hold":
            res.hold(duration, done, tag)
        else:
            yield from res.use(duration)
            done(tag)

    def user(tag, arrive, duration, priority):
        yield sim.timeout(arrive)
        log.append((sim.now, tag, "arrive"))
        yield from use(res, duration, priority)
        log.append((sim.now, tag, "done"))

    def requester(tag, arrive, duration):
        yield sim.timeout(arrive)
        req = res.request(priority=-1)
        yield req
        log.append((sim.now, tag, "granted"))
        yield sim.timeout(duration)
        res.release(req)
        log.append((sim.now, tag, "done"))

    def observer(tag, at):
        yield sim.timeout(at)
        log.append((sim.now, tag, res.in_use, res.queued))

    for i in range(12):
        arrive = rng.choice([0.0, 0.0, 1.0, 2.0, 4.0])
        duration = rng.choice([0.0, 1.0, 2.0, 2.0, 3.0])
        if rng.random() < 0.25:
            sim.process(requester(f"r{i}", arrive, duration))
        else:
            priority = rng.choice([0, 0, 1])
            if holders is not None and priority == 0 and rng.random() < 0.5:
                sim.process(holder(f"h{i}", arrive, duration))
            else:
                sim.process(user(f"u{i}", arrive, duration, priority))
        sim.process(observer(f"o{i}", float(rng.randrange(12))))
    sim.run()
    return log, sim.now, sim.events_processed


class TestContendedUse:
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_request_release_path(self, seed, capacity):
        def use(res, duration, priority):
            return res.use(duration, priority)

        assert _contention_log(use, seed, capacity) == _contention_log(
            reference_use, seed, capacity
        )

    def test_mixed_queue_serves_priority_first(self):
        sim = Simulator()
        res = Resource(sim)
        order = []

        def holder():
            yield from res.use(5.0)

        def user(tag):
            yield from res.use(1.0)
            order.append((sim.now, tag))

        def urgent():
            req = res.request(priority=-1)
            yield req
            order.append((sim.now, "urgent"))
            res.release(req)

        sim.process(holder())
        sim.process(user("u1"))
        sim.process(urgent())
        sim.process(user("u2"))
        sim.run()
        assert order == [(5.0, "urgent"), (6.0, "u1"), (7.0, "u2")]

    def test_negative_contended_duration_rejected(self):
        sim = Simulator()
        res = Resource(sim)

        def holder():
            yield from res.use(1.0)

        def bad():
            yield from res.use(-1.0)

        sim.process(holder())
        sim.process(bad())
        with pytest.raises(ValueError):
            sim.run()


class TestHold:
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_use_generators(self, seed, capacity):
        """``hold`` callers take the (when, seq) slots of ``use``
        generators: same log and same number of entries, in a queue
        mixing them with ``use`` and ``request(priority=-1)`` waiters."""

        def use(res, duration, priority):
            return res.use(duration, priority)

        got = _contention_log(use, seed, capacity, holders="hold")
        assert any(entry[1][0] == "h" for entry in got[0])
        assert got == _contention_log(use, seed, capacity, holders="use")

    def test_free_resource_schedules_one_entry(self):
        sim = Simulator()
        res = Resource(sim)
        done = []
        res.hold(3.0, done.append, "x")
        assert (res.in_use, res.queued) == (1, 0)
        sim.run()
        assert done == ["x"]
        assert sim.now == 3.0
        assert sim.events_processed == 1
        assert (res.in_use, res.queued) == (0, 0)

    def test_negative_duration_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(ValueError):
            res.hold(-1.0, lambda: None)
        assert (res.in_use, res.queued) == (0, 0)
        res.hold(1.0, lambda: None)
        with pytest.raises(ValueError):
            res.hold(-1.0, lambda: None)
        assert (res.in_use, res.queued) == (1, 0)

    def test_hold_until_ends_on_the_given_instant(self):
        """``hold`` for ``end - now`` can miss ``end`` by an ulp."""
        sim = Simulator()
        res = Resource(sim)
        sim.run(until=2.279202706331992)
        end = 6.797895239530507
        assert sim.now + (end - sim.now) != end
        done = []
        res.hold_until(end, done.append, "x")
        assert (res.in_use, res.queued) == (1, 0)
        sim.run()
        assert done == ["x"]
        assert sim.now == end
        assert (res.in_use, res.queued) == (0, 0)

    def test_hold_until_needs_a_free_resource(self):
        sim = Simulator()
        res = Resource(sim)
        res.hold(1.0, lambda: None)
        with pytest.raises(SimulationError):
            res.hold_until(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            res.hold_until(0.5, lambda: None)
        assert (res.in_use, res.queued) == (0, 0)
