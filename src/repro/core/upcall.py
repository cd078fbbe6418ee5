"""Upcall dispatch: the event-driven receive model of §3.1.

U-Net does not specify the nature of the upcall; this implementation
offers the UNIX-signal flavour the paper measured (which "adds
approximately another 30 us on each end", §4.2.3).  Two conditions are
supported, exactly as in the paper: *receive queue non-empty* and
*receive queue almost full*.  Upcalls respect the endpoint's
disable/enable critical sections, and a single upcall sees every
pending message (handlers should drain the queue).
"""

from __future__ import annotations

import enum
from typing import Callable, Generator

from repro.core.endpoint import Endpoint
from repro.host import Workstation


class UpcallCondition(enum.Enum):
    RECV_NONEMPTY = "recv_nonempty"
    RECV_ALMOST_FULL = "recv_almost_full"


class UpcallRegistration:
    """A live upcall subscription; cancel() to deregister."""

    def __init__(
        self,
        host: Workstation,
        endpoint: Endpoint,
        condition: UpcallCondition,
        handler: Callable[[Endpoint], Generator],
        signal_cost: bool = True,
    ):
        self.host = host
        self.endpoint = endpoint
        self.condition = condition
        self.handler = handler
        self.signal_cost = signal_cost
        self.cancelled = False
        self.invocations = 0
        host.sim.process(
            self._loop(), name=f"upcall.{endpoint.name}.{condition.value}"
        )

    def cancel(self) -> None:
        """Deregister: a handler that has not started never runs; one
        already running finishes."""
        self.cancelled = True

    def _wait_condition(self):
        if self.condition is UpcallCondition.RECV_NONEMPTY:
            return self.endpoint.recv_queue.wait_nonempty()
        return self.endpoint.recv_queue.wait_almost_full()

    def _loop(self):
        while not self.cancelled:
            yield self._wait_condition()
            if self.cancelled:
                return
            # Critical sections: hold the upcall until re-enabled.
            while not self.endpoint.upcalls_enabled:
                yield self.endpoint.wait_upcalls_enabled()
                if self.cancelled:
                    return
            if self.endpoint.recv_queue.is_empty:
                continue  # a poller consumed the messages first
            if self.signal_cost:
                # UNIX signal delivery before the handler runs.
                yield from self.host.signal_delivery()
                if self.cancelled:
                    return
            self.invocations += 1
            yield from self.handler(self.endpoint)
            # Re-arm: loop back and wait for the next batch.


def register_upcall(
    host: Workstation,
    endpoint: Endpoint,
    handler: Callable[[Endpoint], Generator],
    condition: UpcallCondition = UpcallCondition.RECV_NONEMPTY,
    caller: str = "",
    signal_cost: bool = True,
) -> UpcallRegistration:
    """Register ``handler`` to run when ``condition`` holds.

    ``handler(endpoint)`` must be a generator (it may yield sim events,
    e.g. CPU costs for processing each message) and should consume all
    pending messages via ``endpoint.recv_drain``.
    """
    endpoint.check_owner(caller or endpoint.owner)
    return UpcallRegistration(host, endpoint, condition, handler, signal_cost)
