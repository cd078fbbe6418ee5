"""Table 1: cost breakup for a single-cell round trip on the SBA-100.

Paper: 21 us trap-level one-way + 7 us AAL5 send + 5 us AAL5 receive =
33 us one-way (66 us round trip); 6.8 MB/s at 1 KB packets.
"""

from repro.bench import Table, sba100_cost_breakup


def sweep():
    """Programmatic entry point: the Table 1 numbers without pytest."""
    return sba100_cost_breakup()


def test_table1_sba100_cost_breakup(once):
    r = once(sba100_cost_breakup)
    table = Table(
        "Table 1: single-cell cost breakup on the SBA-100 (AAL5)",
        ["Operation", "Paper (us)", "Measured (us)"],
    )
    table.add_row(
        "1-way send and rcv across switch (trap level)", 21,
        f"{r['trap_level_one_way_us']:.1f}",
    )
    table.add_row("Send overhead (AAL5)", 7, f"{r['send_overhead_aal5_us']:.1f}")
    table.add_row("Receive overhead (AAL5)", 5, f"{r['recv_overhead_aal5_us']:.1f}")
    table.add_row("Total (one-way)", 33, f"{r['total_one_way_us']:.1f}")
    table.add_note(
        f"CRC share of send/recv AAL5 overhead: "
        f"{r['send_crc_fraction']:.0%} / {r['recv_crc_fraction']:.0%} "
        "(paper: 33% / 40%)"
    )
    table.add_note(
        f"measured end-to-end RTT {r['measured_rtt_us']:.1f} us (paper: 66); "
        f"1 KB bandwidth {r['measured_bw_1k_bytes_per_s'] / 1e6:.2f} MB/s "
        "(paper: 6.8)"
    )
    print()
    print(table)
    assert abs(r["total_one_way_us"] - 33.0) / 33.0 < 0.05
