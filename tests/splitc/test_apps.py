"""The seven Split-C applications compute correct answers (verified
against serial ground truth) on every machine model, and the full-stack
U-Net transport agrees with the model."""

import pytest

from repro.splitc.apps import (
    blocked_matmul,
    conjugate_gradient,
    connected_components,
    radix_sort,
    sample_sort,
)
from repro.splitc.harness import run_on_machine, run_on_unet_cluster
from repro.splitc.machines import ALL_MACHINES, ATM_CLUSTER, CM5

SMALL = {
    "matmul": (blocked_matmul, {"n_blocks": 2, "block": 16}),
    "sample": (sample_sort, {"n_per_proc": 512}),
    "sample-bulk": (sample_sort, {"n_per_proc": 512, "bulk": True}),
    "radix": (radix_sort, {"n_per_proc": 512}),
    "radix-bulk": (radix_sort, {"n_per_proc": 512, "bulk": True}),
    "cc": (connected_components, {"n_per_proc": 256}),
    "cg": (conjugate_gradient, {"m": 16, "iterations": 8}),
}


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_verified_on_cm5_model(self, name):
        app, params = SMALL[name]
        result = run_on_machine(CM5, app, nprocs=4, label=name, **params)
        assert result.verified

    @pytest.mark.parametrize("name", ["matmul", "sample-bulk", "cg"])
    def test_verified_on_atm_model(self, name):
        app, params = SMALL[name]
        result = run_on_machine(ATM_CLUSTER, app, nprocs=4, label=name, **params)
        assert result.verified

    def test_different_proc_counts(self):
        for nprocs in (2, 8):
            result = run_on_machine(
                CM5, sample_sort, nprocs=nprocs, n_per_proc=256
            )
            assert result.verified


class TestTimingsShape:
    def test_total_at_least_busy_time(self):
        app, params = SMALL["sample"]
        r = run_on_machine(CM5, app, nprocs=4, **params)
        assert r.total_us >= r.compute_us
        assert r.total_us >= 0 and r.comm_us > 0

    def test_bulk_variant_communicates_less_time(self):
        small = run_on_machine(ATM_CLUSTER, sample_sort, nprocs=4, n_per_proc=1024)
        bulk = run_on_machine(
            ATM_CLUSTER, sample_sort, nprocs=4, n_per_proc=1024, bulk=True
        )
        assert bulk.comm_us < small.comm_us

    def test_cpu_factor_speeds_up_compute(self):
        cm5 = run_on_machine(CM5, conjugate_gradient, nprocs=4, m=16, iterations=4)
        atm = run_on_machine(
            ATM_CLUSTER, conjugate_gradient, nprocs=4, m=16, iterations=4
        )
        assert atm.compute_us < cm5.compute_us / 2


class TestFullStackValidation:
    """Split-C over real UAM over the simulated ATM cluster must produce
    the same verified results as the model transport."""

    def test_sample_sort_over_unet(self):
        result = run_on_unet_cluster(sample_sort, nprocs=4, n_per_proc=256)
        assert result.verified

    def test_matmul_over_unet(self):
        result = run_on_unet_cluster(
            blocked_matmul, nprocs=4, n_blocks=2, block=16
        )
        assert result.verified

    def test_sample_sort_over_unet_at_eight_ranks(self):
        # every rank preallocates 3w UAM buffers per peer, so the
        # segment must grow with the rank count
        result = run_on_unet_cluster(sample_sort, nprocs=8, n_per_proc=64)
        assert result.verified

    def test_cg_over_unet(self):
        result = run_on_unet_cluster(
            conjugate_gradient, nprocs=4, m=16, iterations=6
        )
        assert result.verified

    def test_model_and_full_stack_agree_on_timescale(self):
        """The ATM machine model's Table 2 numbers were measured from
        this very stack, so total times should agree within ~2.5x."""
        model = run_on_machine(
            ATM_CLUSTER, sample_sort, nprocs=4, n_per_proc=256, bulk=True
        )
        full = run_on_unet_cluster(
            sample_sort, nprocs=4, n_per_proc=256, bulk=True
        )
        assert full.verified and model.verified
        ratio = full.total_us / model.total_us
        assert 0.4 < ratio < 2.5
