"""The vendor's original SBA-200 firmware -- the baseline of §4.2.1.

Fore's firmware off-loads ATM adaptation-layer processing onto the i960
behind a kernel-firmware interface patterned after BSD mbufs / System V
streams bufs.  The i960 traverses those linked data structures on the
*host* via DMA, which makes its per-cell costs exceed the wire time:
the measured result was a ~160 us round trip and ~13 MB/s with 4 KB
packets -- worse than the far simpler SBA-100.

The model reuses the SBA-200 machinery (same board) with the cost
profile of the vendor firmware and without U-Net's single-cell fast
paths.
"""

from __future__ import annotations

from typing import Optional

from repro.atm.network import NetworkPort
from repro.core.ni.costs import ForeCosts, Sba200Costs
from repro.core.ni.sba200 import Sba200UNet
from repro.host import Workstation


class ForeFirmwareNI(Sba200UNet):
    """SBA-200 running Fore's stock firmware (measured via the §4.2.1
    test program that maps the kernel-firmware interface into user
    space)."""

    #: Spans from the inherited firmware loops carry this identity so a
    #: timeline distinguishes vendor firmware from re-programmed U-Net.
    obs_firmware = "fore-vendor"

    __slots__ = ("fore_costs",)

    def __init__(
        self,
        host: Workstation,
        port: NetworkPort,
        costs: Optional[ForeCosts] = None,
    ):
        fore = costs if costs is not None else ForeCosts()
        translated = Sba200Costs(
            host_post_send_us=fore.host_send_us,
            host_recv_us=fore.host_recv_us,
            host_post_free_us=1.5,
            i960_tx_poll_us=0.0,
            # No single-cell optimization: single takes the full path.
            i960_tx_single_us=fore.i960_tx_packet_us + fore.i960_tx_per_cell_us,
            i960_tx_packet_us=fore.i960_tx_packet_us,
            i960_tx_per_cell_us=fore.i960_tx_per_cell_us,
            i960_rx_per_cell_us=fore.i960_rx_per_cell_us,
            i960_rx_single_us=fore.i960_rx_packet_us,
            i960_rx_packet_us=fore.i960_rx_packet_us,
            input_fifo_cells=fore.input_fifo_cells,
            tx_queue_cells=fore.tx_queue_cells,
        )
        super().__init__(
            host,
            port,
            costs=translated,
            single_cell_optimization=False,
        )
        self.fore_costs = fore
