"""Figure 5: the seven Split-C benchmarks on CM-5, U-Net ATM cluster,
and Meiko CS-2 (8 processors), normalized to the CM-5, with the
computation/communication breakdown.

Paper shape: matmul and the bulk sorts favor the ATM cluster and Meiko;
the small-message sorts and connected components favor the CM-5's low
per-message overhead; overall the ATM cluster is roughly equivalent to
the Meiko CS-2.
"""

from repro.bench import Table, parallel_map
from repro.splitc.apps import FIGURE5_SUITE
from repro.splitc.harness import run_on_machine
from repro.splitc.machines import ATM_CLUSTER, CM5, MEIKO_CS2

NPROCS = 8
MACHINES = (CM5, ATM_CLUSTER, MEIKO_CS2)
_APPS = {label: (app, params) for label, app, params in FIGURE5_SUITE}
_MACHINES = {machine.name: machine for machine in MACHINES}


def _point(item):
    label, machine_name = item
    app, params = _APPS[label]
    return run_on_machine(
        _MACHINES[machine_name], app, nprocs=NPROCS, label=label, **params
    )


def run_suite():
    items = [(label, m.name) for label, _, _ in FIGURE5_SUITE for m in MACHINES]
    results = dict(zip(items, parallel_map(_point, items)))
    rows = []
    for label, _, _ in FIGURE5_SUITE:
        per_machine = {}
        for machine in MACHINES:
            result = results[(label, machine.name)]
            assert result.verified, f"{label} wrong on {machine.name}"
            per_machine[machine.name] = result
        rows.append((label, per_machine))
    return rows


def test_fig5_splitc_benchmarks(once):
    rows = once(run_suite)
    table = Table(
        "Figure 5: Split-C benchmarks, execution time normalized to the CM-5",
        ["Benchmark", "CM-5", "U-Net ATM", "Meiko CS-2", "ATM comm%"],
    )
    ratios = {}
    for label, per_machine in rows:
        cm5 = per_machine["CM-5"].total_us
        atm = per_machine["U-Net ATM"]
        meiko = per_machine["Meiko CS-2"]
        ratios[label] = (atm.total_us / cm5, meiko.total_us / cm5)
        table.add_row(
            label, "1.00", f"{atm.total_us / cm5:.2f}",
            f"{meiko.total_us / cm5:.2f}", f"{atm.comm_fraction:.0%}",
        )
    table.add_note("all results verified against serial ground truth")
    print()
    print(table)

    # the paper's qualitative claims
    assert ratios["matmul"][0] < 0.7, "ATM must win matmul (CPU+bandwidth)"
    assert ratios["sample sort (small msg)"][0] > 1.0, "CM-5 wins small messages"
    assert ratios["sample sort (bulk)"][0] < 0.8, "ATM wins bulk"
    assert ratios["radix sort (small msg)"][0] > 1.0
    assert ratios["radix sort (bulk)"][0] < 1.0
    assert ratios["connected components"][0] > 1.0
