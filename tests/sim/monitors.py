"""A no-op FIFO monitor for running the monitored heap scheduler.

``Simulator()`` builds a ``_MonitoredSimulator`` while a monitor is
installed.  :class:`FifoMonitor` keeps the engine's own sequence
numbers as tie-break keys and observes nothing, so a monitored run must
fire every entry in exactly the calendar core's order.
"""

from repro.sim import engine


class FifoMonitor:
    def on_schedule(self, seq, when, target):
        return seq

    def on_execute(self, item):
        pass


def fifo_monitored():
    """Simulators built inside the block use the monitored heap."""
    return engine.monitored(FifoMonitor())
