"""A clean hot-path callback -- simcost test fixture.

``Ring.on_deliver`` is a scheduled callback whose body is straight-line
code over slotted attributes with no allocation: simcost ranks it but
reports no finding.
"""


class Ring:
    __slots__ = ("sim", "head", "count", "_sink")

    def __init__(self, sim, sink):
        self.sim = sim
        self.head = 0
        self.count = 0
        self._sink = sink

    def start(self):
        self.sim.schedule_callback(0.0, self.on_deliver, 0)

    def on_deliver(self, cell):
        self.head = self.head + 1
        self.count += 1
        sink = self._sink
        sink(cell)
