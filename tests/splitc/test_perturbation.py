"""Split-C end-to-end under same-timestamp tie-break perturbation.

The paper's Figure 5 apps run over the full U-Net stack; their results
must not depend on the engine's FIFO accident for same-timestamp heap
entries.  This drives sample_sort through every perturbation order the
harness supports (fifo baseline, lifo, two seeded-random shuffles, a
different PYTHONHASHSEED) and asserts bit-identical results.
"""

from repro.analysis import perturb


def test_sample_sort_identical_under_all_tie_orders():
    verdict = perturb.race_check("sample_sort", random_orders=2)
    assert not verdict.diverged, verdict.format()
    assert verdict.confirmed == []
    baseline = verdict.baseline
    # fifo baseline + lifo + random:1 + random:2 + a PYTHONHASHSEED child
    assert [run.order for run in verdict.runs][:3] == ["lifo", "random:1", "random:2"]
    assert verdict.runs[3].tie == "hashseed"
    for run in verdict.runs:
        assert run.metrics == baseline.metrics, (
            f"order {run.order} changed the app result"
        )
    # the app itself must have verified its sorted output in every run
    assert baseline.metrics["verified"] == "1"


def test_model_machine_suite_identical_under_lifo():
    """The LogP machine model (fig5 scenario) is likewise order-stable."""
    baseline = perturb.run_scenario("fig5", tie="fifo")
    lifo = perturb.run_scenario("fig5", tie="lifo")
    assert lifo.metrics == baseline.metrics
