"""repro: a full reproduction of the U-Net user-level network interface
(von Eicken, Basu, Buch, Vogels -- SOSP 1995) on a discrete-event
simulation substrate.

Subpackages:

* :mod:`repro.sim` -- discrete-event engine (microsecond virtual time).
* :mod:`repro.atm` -- cell-level ATM network with AAL5 and a switch.
* :mod:`repro.host` -- workstation CPU/memory/kernel cost models.
* :mod:`repro.core` -- the U-Net architecture itself (endpoints,
  communication segments, message queues, mux, kernel agent, NIs).
* :mod:`repro.am` -- U-Net Active Messages (GAM 1.1-style).
* :mod:`repro.ip` -- TCP/UDP/IP over U-Net plus the in-kernel baseline.
* :mod:`repro.splitc` -- Split-C runtime and the seven paper benchmarks.
* :mod:`repro.bench` -- table/figure harness shared by benchmarks/.
"""

__version__ = "1.0.0"
