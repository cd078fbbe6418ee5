"""Schedule-order race detection: the ShadowScheduler engine hook.

Every result in this repository is produced by ordering software
overheads on one shared simulated-time axis, and the engine resolves
same-timestamp events purely by insertion sequence (a monotonic
sequence number breaks heap ties).  Any outcome that silently depends
on that FIFO tie order is a latent reproduction bug: the "race" is not
between OS threads but between *heap entries scheduled for the same
instant* whose relative order the model never pinned down.

This module provides the dynamic half of the detector:

* :class:`RaceTracker` -- the ShadowScheduler.  Installed through
  :func:`repro.sim.engine.monitored`, it tags every heap
  entry with a globally unique id, the schedule site (the model source
  line that scheduled it), and the entry that scheduled it (the
  *schedule edge*).  State objects (communication segments, descriptor
  rings, resources, links, buffer pools) report reads/writes through
  ``engine.access_hook`` so each access is attributed to the executing
  entry.
* A happens-before relation built from two edge kinds: **time edges**
  (t1 < t2 orders everything) and **schedule edges** (A scheduled B, so
  A executed before B even at the same timestamp, transitively).  Two
  same-timestamp entries that both touch one state object, at least one
  writing, with *no* schedule path between them, are flagged as a
  **simulation race** -- their relative order is an accident of
  insertion sequence.
* Tie-break perturbation: the tracker also owns the heap tie key, so a
  run can be replayed under ``lifo`` or seeded-``random`` same-timestamp
  order instead of ``fifo``.  :mod:`repro.analysis.perturb` uses this to
  classify flagged races as CONFIRMED (results diverge) or BENIGN (the
  events commute).

Zero overhead when off: unmonitored simulators carry ``_mon = None``
and state objects see ``engine.access_hook is None``; nothing else is
paid.  Arm with the :func:`detected` context manager, the one way in;
it refuses to nest inside another engine monitor (``obs.collecting()``).

Memory stays bounded by analyzing each timestamp group eagerly: when
the clock advances, the group's conflicting access pairs are turned
into findings and the per-entry metadata is dropped.  Only the pending
(scheduled, not yet executed) entries and the execution trace survive.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim import engine

#: Recognised same-timestamp tie-break orders.
TIE_ORDERS = ("fifo", "lifo", "random")

#: Findings kept per run (dedup happens first; this is a hard cap).
MAX_FINDINGS = 200
#: Pairwise comparisons per (timestamp, state) group; beyond this the
#: group is truncated (and the truncation is counted, never silent).
MAX_PAIRS_PER_STATE = 400


def _site_of(depth: int = 2, frames: int = 2) -> Tuple[Tuple[str, int, str], ...]:
    """The first ``frames`` non-engine stack frames above ``depth``."""
    try:
        frame = sys._getframe(depth)
    except ValueError:  # pragma: no cover - shallow stack
        return ()
    found: List[Tuple[str, int, str]] = []
    while frame is not None and len(found) < frames:
        code = frame.f_code
        if not code.co_filename.endswith("engine.py"):
            found.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(found)


def format_site(site: Tuple[Tuple[str, int, str], ...]) -> str:
    if not site:
        return "<setup>"
    return " <- ".join(f"{path}:{line} in {func}" for path, line, func in site)


def _label_of(target: Any) -> str:
    """Human-stable label for a heap entry's payload (callback or event)."""
    qualname = getattr(target, "__qualname__", None)
    if qualname is not None:  # a bare scheduled callback
        return f"cb:{qualname}"
    name = getattr(target, "name", "")
    kind = type(target).__name__
    return f"ev:{kind}:{name}" if name else f"ev:{kind}"


@dataclass(frozen=True)
class RaceFinding:
    """One unordered same-timestamp conflicting pair (deduplicated by
    state label and the two schedule sites; ``count`` is how many times
    the same pair shape occurred)."""

    when: float
    state: str
    a_label: str
    a_site: Tuple[Tuple[str, int, str], ...]
    a_mode: str
    b_label: str
    b_site: Tuple[Tuple[str, int, str], ...]
    b_mode: str
    count: int = 1

    def key(self) -> tuple:
        return (self.state, self.a_label, self.a_site, self.b_label, self.b_site)

    def format(self) -> str:
        return (
            f"simulation race on {self.state!r} at t={self.when:.3f}us "
            f"(x{self.count}):\n"
            f"  [{self.a_mode}] {self.a_label}\n"
            f"      scheduled at {format_site(self.a_site)}\n"
            f"  [{self.b_mode}] {self.b_label}\n"
            f"      scheduled at {format_site(self.b_site)}\n"
            f"  no schedule edge orders these same-timestamp events; their "
            f"relative order is an insertion-sequence accident"
        )


@dataclass
class RaceReport:
    """Aggregated result of one monitored run."""

    tie: str
    seed: Optional[int]
    entries: int
    accesses: int
    findings: List[RaceFinding]
    truncated_pairs: int

    def summary(self) -> str:
        status = (
            f"{len(self.findings)} potential race(s)"
            if self.findings
            else "no races"
        )
        extra = (
            f"; {self.truncated_pairs} pair comparison(s) truncated"
            if self.truncated_pairs
            else ""
        )
        return (
            f"race-detect [{self.tie}]: {status} over {self.entries} heap "
            f"entries, {self.accesses} state accesses{extra}"
        )

    def format(self) -> str:
        lines = [self.summary()]
        for finding in self.findings:
            lines.append("")
            lines.append(finding.format())
        return "\n".join(lines)


class RaceTracker:
    """The ShadowScheduler: schedule-edge recorder, access attributor,
    happens-before race checker, and same-timestamp tie perturber.

    One tracker is shared by every :class:`~repro.sim.engine.Simulator`
    created while it is installed; ids are globally unique so multiple
    sequential simulations in one scenario coexist.
    """

    def __init__(self, tie: str = "fifo", seed: Optional[int] = None):
        if tie not in TIE_ORDERS:
            raise ValueError(f"unknown tie-break order {tie!r} (known: {TIE_ORDERS})")
        self.tie = tie
        self.seed = seed
        self._rng = random.Random(0 if seed is None else seed)
        self._next_id = 0
        #: eid -> (when, parent_eid, label, site) for entries scheduled
        #: but not yet executed (bounded by the heap size).
        self._pending: Dict[int, Tuple[float, Optional[int], str, tuple]] = {}
        #: currently executing entry id (None outside the event loop).
        self._current: Optional[int] = None
        #: timestamp of the group being accumulated.
        self._group_when: Optional[float] = None
        #: eid -> (parent, label, site) for entries executed at
        #: ``_group_when`` (flushed when the clock moves).
        self._group_meta: Dict[int, Tuple[Optional[int], str, tuple]] = {}
        #: (state label, state id) -> {eid: "r"|"w"} for the live group.
        self._group_access: Dict[Tuple[str, int], Dict[int, str]] = {}
        #: full execution trace: (when, label) per executed entry.
        self.trace: List[Tuple[float, str]] = []
        self._findings: Dict[tuple, RaceFinding] = {}
        self.entries_seen = 0
        self.accesses_seen = 0
        self.truncated_pairs = 0

    # -- engine monitor interface ---------------------------------------
    def on_schedule(self, seq: int, when: float, target: Any) -> Any:
        """Register a new heap entry; returns its (possibly perturbed)
        tie-break key.  ``seq`` is the simulator-local sequence number,
        unused: the tracker's global id keeps multiple simulators'
        entries distinct while preserving per-simulator FIFO order."""
        self._next_id += 1
        eid = self._next_id
        self.entries_seen += 1
        self._pending[eid] = (when, self._current, _label_of(target), _site_of(2))
        if self.tie == "fifo":
            return eid
        if self.tie == "lifo":
            return -eid
        return (self._rng.random(), eid)

    def on_execute(self, item: tuple) -> None:
        """A heap entry was popped: attribute subsequent accesses to it."""
        key = item[1]
        if self.tie == "fifo":
            eid = key
        elif self.tie == "lifo":
            eid = -key
        else:
            eid = key[1]
        when = item[0]
        if when != self._group_when:
            self._flush_group()
            self._group_when = when
        meta = self._pending.pop(eid, None)
        if meta is None:  # scheduled before the tracker was installed
            meta = (when, None, "ev:<pre-existing>", ())
        _, parent, label, site = meta
        self._group_meta[eid] = (parent, label, site)
        self._current = eid
        self.trace.append((when, label))

    def on_access(self, state_id: int, state: str, mode: str) -> None:
        """A state object was read (``mode='r'``) or written (``'w'``).

        Accesses outside the event loop (model construction, teardown)
        have no executing entry and cannot race: ignored."""
        eid = self._current
        if eid is None or eid not in self._group_meta:
            return
        self.accesses_seen += 1
        modes = self._group_access.setdefault((state, state_id), {})
        if modes.get(eid) != "w":  # a write is sticky
            modes[eid] = mode

    # -- happens-before analysis ----------------------------------------
    def _ordered(self, a: int, b: int) -> bool:
        """Is there a schedule path between ``a`` and ``b`` (either way)
        within the current same-timestamp group?  Parent chains stop at
        the first entry outside the group: an earlier-timestamp ancestor
        orders an entry against *everything* earlier, never against a
        same-timestamp peer."""
        meta = self._group_meta
        for root, other in ((b, a), (a, b)):
            parent = meta[root][0]
            while parent is not None and parent in meta:
                if parent == other:
                    return True
                parent = meta[parent][0]
        return False

    def _flush_group(self) -> None:
        """Analyze the finished timestamp group for conflicting,
        unordered pairs and drop its metadata."""
        when = self._group_when
        for (state, _sid), modes in self._group_access.items():
            if len(modes) < 2 or "w" not in modes.values():
                continue
            eids = sorted(modes)
            pairs = 0
            for i, a in enumerate(eids):
                for b in eids[i + 1 :]:
                    if modes[a] != "w" and modes[b] != "w":
                        continue
                    pairs += 1
                    if pairs > MAX_PAIRS_PER_STATE:
                        self.truncated_pairs += 1
                        break
                    if not self._ordered(a, b):
                        self._record(when, state, a, b, modes)
                if pairs > MAX_PAIRS_PER_STATE:
                    break
        self._group_access.clear()
        self._group_meta.clear()

    def _record(self, when: float, state: str, a: int, b: int,
                modes: Dict[int, str]) -> None:
        _, a_label, a_site = self._group_meta[a]
        _, b_label, b_site = self._group_meta[b]
        finding = RaceFinding(
            when=when, state=state,
            a_label=a_label, a_site=a_site, a_mode=modes[a],
            b_label=b_label, b_site=b_site, b_mode=modes[b],
        )
        key = finding.key()
        existing = self._findings.get(key)
        if existing is not None:
            self._findings[key] = RaceFinding(
                when=existing.when, state=state,
                a_label=a_label, a_site=a_site, a_mode=modes[a],
                b_label=b_label, b_site=b_site, b_mode=modes[b],
                count=existing.count + 1,
            )
        elif len(self._findings) < MAX_FINDINGS:
            self._findings[key] = finding

    # -- results --------------------------------------------------------
    def report(self) -> RaceReport:
        """Finalize (flushes the live group) and aggregate findings."""
        self._flush_group()
        self._group_when = None
        self._current = None
        findings = sorted(self._findings.values(), key=lambda f: (f.when, f.state))
        return RaceReport(
            tie=self.tie, seed=self.seed,
            entries=self.entries_seen, accesses=self.accesses_seen,
            findings=findings, truncated_pairs=self.truncated_pairs,
        )


@contextmanager
def detected(tie: str = "fifo", seed: Optional[int] = None) -> Iterator[RaceTracker]:
    """Arm the ShadowScheduler for the block.

    >>> with race.detected() as tracker:     # doctest: +SKIP
    ...     run_scenario()
    >>> tracker.report().findings            # doctest: +SKIP

    ``tie``/``seed`` select the same-timestamp order, so the same
    context manager drives both detection and perturbation replays.
    Raises ``RuntimeError`` if another engine monitor is armed.
    """
    tracker = RaceTracker(tie=tie, seed=seed)
    with engine.monitored(tracker, tracker.on_access):
        yield tracker
