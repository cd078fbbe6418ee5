"""Deliberately broken *data-path* module: one data-path-print.

The rule only applies inside the hot ``repro.core``/``repro.atm``/...
module prefixes, so this fixture lives under a ``repro/core/`` path
(the path, not the import system, decides: it is never imported).  The
acceptance tests lint it alongside ``bad_example.py`` so every
registered rule still reports exactly once.
"""


def bad_print(cell):
    print("got cell", cell)  # one data-path-print violation
