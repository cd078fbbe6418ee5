"""Bit-identity pins for Split-C message delivery.

Every value here was captured from the process-based delivery path that
the callback chain in ``ModelTransport`` replaced.  A change that moves
a delivery, a reply or a CPU hold by one ``(when, seq)`` slot shows up
as a different ``float.hex`` or entry count, long before the Figure 5
suite would catch it.  The radix sort pins were captured from the apps'
per-key numpy-scalar loops, before their bookkeeping moved to lists and
vectorised placement.
"""

import pytest

from repro.sim import Simulator
from repro.splitc import ATM_CLUSTER, CM5, MEIKO_CS2, ModelTransport
from repro.splitc.apps import connected_components, radix_sort, sample_sort
from repro.splitc.harness import run_on_machine, run_on_unet_cluster


def _tie_exchange():
    """Ranks 1 and 2 both message rank 0 at the same instant while
    rank 0 computes; its first compute hold ends at that instant too.
    Every handler replies until the fourth hop (the third is bulk)."""
    sim = Simulator()
    tp = ModelTransport(sim, CM5, 3)
    log = []

    def handler_for(rank):
        def handler(src, data):
            log.append((rank, src, data.hex(), sim.now.hex()))
            hop = data[0]
            if hop >= 3:
                return None
            return bytes([hop + 1]) + data[1:] * 2, hop == 1

        return handler

    for rank in range(3):
        tp.attach(rank, handler_for(rank))

    def sender(rank):
        yield from tp.send(rank, 0, bytes([0, rank]))

    def busy():
        # o + L = 6 us on the CM-5: this hold ends as the arrivals land
        yield from tp.compute(0, 6.0)
        yield from tp.compute(0, 4.0)

    sim.process(busy())
    sim.process(sender(1))
    sim.process(sender(2))
    sim.run()
    return log, sim.events_processed


def test_same_instant_arrivals_at_a_busy_receiver():
    log, events = _tie_exchange()
    assert log == [
        (0, 1, "0001", "0x1.a000000000000p+3"),
        (0, 2, "0002", "0x1.3000000000000p+4"),
        (1, 0, "010101", "0x1.6000000000000p+4"),
        (2, 0, "010202", "0x1.c000000000000p+4"),
        (0, 1, "0201010101", "0x1.f800000000000p+4"),
        (0, 2, "0202020202", "0x1.2c00000000000p+5"),
        (1, 0, "030101010101010101", "0x1.4400000000000p+5"),
        (2, 0, "030202020202020202", "0x1.7400000000000p+5"),
    ]
    assert events == 46


def _hex(result):
    assert result.verified
    return (result.total_us.hex(), result.compute_us.hex(), result.comm_us.hex())


MODEL_PINS = [
    (sample_sort, {"n_per_proc": 512}, CM5,
     ("0x1.15de0d44630c3p+12", "0x1.edb6e2d3829d2p+10", "0x1.3768a91f04c9cp+11")),
    (sample_sort, {"n_per_proc": 512}, ATM_CLUSTER,
     ("0x1.bfee9b00ccafbp+12", "0x1.4f2313710c700p+11", "0x1.1bff11484677bp+12")),
    (sample_sort, {"n_per_proc": 512}, MEIKO_CS2,
     ("0x1.5795e2ed974a1p+13", "0x1.2da0b7a0b2f28p+12", "0x1.85250e3a7ba1ap+12")),
    (connected_components, {"n_per_proc": 256}, CM5,
     ("0x1.e4b1eb851eb11p+12", "0x1.75447ae14799cp+10", "0x1.0311999999955p+11")),
    (connected_components, {"n_per_proc": 256}, ATM_CLUSTER,
     ("0x1.bb13333333334p+13", "0x1.5388cccccd0b8p+9", "0x1.2ba74cccccc51p+12")),
    (connected_components, {"n_per_proc": 256}, MEIKO_CS2,
     ("0x1.69573333332ebp+14", "0x1.aa766666662dep+9", "0x1.6d43fffffff50p+12")),
    (radix_sort, {"n_per_proc": 512}, CM5,
     ("0x1.94c0ccccccc9cp+13", "0x1.00791eb851e42p+12", "0x1.15263d70a3d7bp+13")),
    (radix_sort, {"n_per_proc": 512}, ATM_CLUSTER,
     ("0x1.70fd57c57c53ap+14", "0x1.58d1999999804p+12", "0x1.1bb1715f15f3ap+14")),
    (radix_sort, {"n_per_proc": 512}, MEIKO_CS2,
     ("0x1.34e1d20d20d0bp+15", "0x1.70cd111111079p+13", "0x1.b2439b91b91dap+14")),
    (radix_sort, {"n_per_proc": 512, "bulk": True}, CM5,
     ("0x1.0c3fae147ae15p+12", "0x1.0a3d70a3d70a7p+9", "0x1.d878000000000p+11")),
    (radix_sort, {"n_per_proc": 512, "bulk": True}, ATM_CLUSTER,
     ("0x1.0552f8af8af8ap+12", "0x1.4cccccccccccep+7", "0x1.fd1d249249248p+11")),
    (radix_sort, {"n_per_proc": 512, "bulk": True}, MEIKO_CS2,
     ("0x1.56bdc8dc8dc8ep+11", "0x1.bbbbbbbbbbbb6p+7", "0x1.42360d20d20d2p+11")),
]


@pytest.mark.parametrize(
    "app, params, machine, expected", MODEL_PINS,
    ids=[
        f"{a.__name__}{'-bulk' if p.get('bulk') else ''}-{m.name}"
        for a, p, m, _ in MODEL_PINS
    ],
)
def test_model_runs_are_bit_identical(app, params, machine, expected):
    assert _hex(run_on_machine(machine, app, nprocs=4, **params)) == expected


def test_unet_cluster_run_is_bit_identical():
    result = run_on_unet_cluster(sample_sort, nprocs=4, n_per_proc=256)
    assert _hex(result) == (
        "0x1.c7524a3567ccep+12", "0x1.476de163ec110p+7", "0x1.bfccbde8744f2p+12",
    )
