"""Deliberately broken module: exactly one violation of every simlint rule
that applies outside data-path modules.

Never imported -- this file exists to be *linted* by the acceptance
tests (``tests/analysis/test_cli.py``), which expect simlint to exit
non-zero here with one ``file:line:rule`` report per rule.  The
data-path-only rule fires in ``repro/core/bad_data_path.py``.
"""

import heapq  # one direct-heapq violation
import random
import time

from repro.sim import Event, Simulator


class FastEvent(Event):  # one slots-hot-path violation
    pass


class Widget:
    __slots__ = ()


def bad_wall_clock():
    return time.time()  # one wall-clock violation


def bad_unseeded():
    return random.random()  # one unseeded-random violation


def bad_or_default(config):
    return config or Widget()  # one or-default violation


def bad_set_iter():
    live = {"alice", "bob", "carol"}
    names = []
    for name in live:  # one unordered-iter violation
        names.append(name)
    return names


def bad_swallow(ring):
    try:
        return ring.pop()
    except Exception:  # one silent-except violation
        pass


def bad_mutable_default(sample, buf=[]):  # one mutable-default violation
    buf.append(sample)
    return buf


SHARED_TABLE = {}


def mutate_shared(key):
    SHARED_TABLE[key] = 1


def bad_zero_delay(sim: Simulator):
    # one schedule-shared-state violation
    sim.schedule_callback(0.0, mutate_shared, "k")
