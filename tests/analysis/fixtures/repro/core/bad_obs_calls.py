"""Deliberately broken *data-path* module: one unguarded-obs-call and one
data-path-print.

Both rules only apply inside the hot ``repro.core``/``repro.atm``/...
module prefixes, so this fixture lives under a ``repro/core/`` path
(the path, not the import system, decides: it is never imported).  The
acceptance tests lint it alongside ``bad_example.py`` so every
registered rule still reports exactly once.
"""

from repro import obs


def bad_unguarded_count(ring):
    # one unguarded-obs-call violation: crashes when obs is off
    obs.active.count("ring.rejected")


def bad_print(cell):
    print("got cell", cell)  # one data-path-print violation
