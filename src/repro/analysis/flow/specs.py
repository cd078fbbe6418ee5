"""Declarative typestate protocol specs for the U-Net API.

Each :class:`ProtocolSpec` names the operations that create a tracked
token (the *resource handle*: a segment offset, a receive descriptor,
an endpoint), the state machine its operations walk,
and which states constitute a leak if they survive to a function
exit.  The checker (:mod:`.typestate`) is generic over these specs —
adding a protocol is adding data, not code.

Op matching is by method name on tracked tokens only, so unrelated
classes that happen to share a method name are never flagged: a token
must first be produced by one of the spec's ``creators``.

The specs encode §3.1/§3.4 of the paper:

* **segment-buffer** — a buffer inside a communication segment:
  ``alloc`` → write/read → ``free`` exactly once on every path,
  including exception edges (the PR-2 sanitizers' double-free /
  use-after-free / leak checks, statically).
* **recv-descriptor** — a consumed receive descriptor's buffers may
  be reposted to the free queue once, and never read after reposting
  (the NI may have overwritten them: recycle-before-consume).
* **endpoint** — create → use → destroy; no operation after destroy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

#: token position in an op call
ARG0 = "arg0"
RECEIVER = "receiver"


@dataclass(frozen=True)
class OpRule:
    """One operation of a protocol: allowed transitions + violations."""

    #: state -> successor state (operation is legal in these states)
    ok: Mapping[str, str]
    #: state -> (finding rule, message) when called in that state
    bad: Mapping[str, Tuple[str, str]]
    token_role: str = ARG0


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    #: human noun for messages ("segment buffer", "receive descriptor")
    noun: str
    #: method names whose *result* is a new token
    creators: frozenset
    initial: str
    ops: Mapping[str, OpRule]
    #: states that must not reach a function exit (else: leak)
    leak_states: frozenset = frozenset()
    leak_rule: str = ""
    #: flag `x.alloc(n)` as a bare statement (result dropped = instant leak)
    flag_dropped_result: bool = False
    #: optional predicate vetting a candidate creator call
    creator_guard: Optional[Callable[[ast.Call], bool]] = None

    def creates(self, call: ast.Call, method: str) -> bool:
        if method not in self.creators:
            return False
        if self.creator_guard is not None and not self.creator_guard(call):
            return False
        return True


def _alloc_guard(call: ast.Call) -> bool:
    """CommSegment.alloc takes a length; the Split-C runtime's
    ``sc.alloc("name", shape)`` takes a name string — exclude it."""
    if not call.args:
        return False
    first = call.args[0]
    return not (isinstance(first, ast.Constant) and isinstance(first.value, str))


SEGMENT_BUFFER = ProtocolSpec(
    name="segment-buffer",
    noun="segment buffer",
    creators=frozenset({"alloc"}),
    creator_guard=_alloc_guard,
    initial="allocated",
    ops={
        "free": OpRule(
            ok={"allocated": "freed"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "double free of a segment buffer: this offset was "
                    "already freed on a path reaching here",
                ),
            },
        ),
        "write": OpRule(
            ok={"allocated": "allocated"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "write to a freed segment buffer: the allocator may "
                    "have handed this range to another message",
                ),
            },
        ),
        "read": OpRule(
            ok={"allocated": "allocated"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "read of a freed segment buffer: the allocator may "
                    "have handed this range to another message",
                ),
            },
        ),
        "write_segment": OpRule(
            ok={"allocated": "allocated"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "write to a freed segment buffer: the allocator may "
                    "have handed this range to another message",
                ),
            },
        ),
        "read_segment": OpRule(
            ok={"allocated": "allocated"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "read of a freed segment buffer: the allocator may "
                    "have handed this range to another message",
                ),
            },
        ),
        "peek_segment": OpRule(
            ok={"allocated": "allocated"},
            bad={
                "freed": (
                    "flow-use-after-free",
                    "read of a freed segment buffer: the allocator may "
                    "have handed this range to another message",
                ),
            },
        ),
    },
    leak_states=frozenset({"allocated"}),
    leak_rule="flow-segment-leak",
    flag_dropped_result=True,
)


RECV_DESCRIPTOR = ProtocolSpec(
    name="recv-descriptor",
    noun="receive descriptor",
    creators=frozenset({"recv", "recv_poll"}),
    initial="received",
    ops={
        "peek_payload": OpRule(
            ok={"received": "received"},
            bad={
                "recycled": (
                    "flow-descriptor-reuse",
                    "payload read after repost_free: the buffers were "
                    "recycled onto the free queue and the NI may already "
                    "have overwritten them (consume before reposting)",
                ),
            },
        ),
        "recv_payload": OpRule(
            ok={"received": "received"},
            bad={
                "recycled": (
                    "flow-descriptor-reuse",
                    "payload read after repost_free: the buffers were "
                    "recycled onto the free queue and the NI may already "
                    "have overwritten them (consume before reposting)",
                ),
            },
        ),
        "repost_free": OpRule(
            ok={"received": "recycled"},
            bad={
                "recycled": (
                    "flow-descriptor-reuse",
                    "double repost_free of one receive descriptor: its "
                    "buffers would sit twice on the free queue and get "
                    "handed to two messages at once",
                ),
            },
        ),
    },
)


ENDPOINT = ProtocolSpec(
    name="endpoint",
    noun="endpoint",
    creators=frozenset({"create_endpoint"}),
    initial="created",
    ops=dict(
        [
            (
                "destroy_endpoint",
                OpRule(
                    ok={"created": "destroyed"},
                    bad={
                        "destroyed": (
                            "flow-endpoint-use",
                            "double destroy of an endpoint",
                        ),
                    },
                ),
            ),
        ]
        + [
            (
                op,
                OpRule(
                    ok={"created": "created"},
                    bad={
                        "destroyed": (
                            "flow-endpoint-use",
                            f"{op}() on a destroyed endpoint: every "
                            "application-facing operation raises once the "
                            "kernel agent has torn the endpoint down",
                        ),
                    },
                    token_role=RECEIVER,
                ),
            )
            for op in (
                "post_send",
                "post_free",
                "recv_poll",
                "recv_drain",
                "wait_recv",
                "deliver",
            )
        ]
    ),
)


ALL_SPECS: Tuple[ProtocolSpec, ...] = (
    SEGMENT_BUFFER,
    RECV_DESCRIPTOR,
    ENDPOINT,
)

#: method name -> [(spec, op rule)] across all specs
OPS_BY_METHOD: Dict[str, list] = {}
for _spec in ALL_SPECS:
    for _method, _rule in _spec.ops.items():
        OPS_BY_METHOD.setdefault(_method, []).append((_spec, _rule))

#: every creator method name
CREATOR_METHODS = frozenset().union(*(s.creators for s in ALL_SPECS))
