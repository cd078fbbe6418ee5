"""The apps' list and vectorised bookkeeping equals the per-element numpy
loops it replaced.  Each reference below is the old loop, kept here as
the oracle: the radix placement, connected components' local sweep
(labels *and* sweep count, which sets the compute charge) and the
serial union-find behind its verification."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.splitc.apps.components import (
    _build_graph,
    _local_sweeps,
    _serial_components,
)
from repro.splitc.apps.radix_sort import RADIX, _global_positions


def _reference_positions(sorted_digits, my_starts):
    global_pos = np.empty(len(sorted_digits), dtype=np.int64)
    offset_in_digit = np.zeros(RADIX, dtype=np.int64)
    for i, d in enumerate(sorted_digits):
        global_pos[i] = my_starts[d] + offset_in_digit[d]
        offset_in_digit[d] += 1
    return global_pos


def _reference_sweeps(labels, local_edges):
    sweeps = 0
    while True:
        sweeps += 1
        before = labels.copy()
        for a, b in local_edges:
            la, lb = labels[a], labels[b]
            if la != lb:
                m = min(la, lb)
                labels[a] = m
                labels[b] = m
        if np.array_equal(before, labels):
            break
    return sweeps


def _reference_components(n_total, edges):
    parent = np.arange(n_total)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n_total)])


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    edges = np.array([(a, b) for a, b in pairs if a != b], dtype=np.int64)
    return n, edges.reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(
    digits=st.lists(st.integers(0, RADIX - 1), max_size=300),
    nprocs=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_radix_placement_equals_per_key_loop(digits, nprocs, seed):
    sorted_digits = np.sort(np.array(digits, dtype=np.int64))
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 10_000, (RADIX, nprocs))
    my_starts = starts[:, rng.integers(0, nprocs)]  # a strided column
    got = _global_positions(sorted_digits, my_starts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_positions(sorted_digits, my_starts))


@settings(max_examples=200, deadline=None)
@given(graph=_graphs(), seed=st.integers(0, 2**32 - 1))
def test_list_sweep_equals_numpy_sweep(graph, seed):
    n, edges = graph
    start = np.random.default_rng(seed).permutation(n).astype(np.int64)
    expected = start.copy()
    expected_sweeps = _reference_sweeps(expected, edges)
    lab = start.tolist()
    assert _local_sweeps(lab, edges.tolist()) == expected_sweeps
    assert lab == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(graph=_graphs())
def test_list_union_find_equals_numpy_union_find(graph):
    n, edges = graph
    assert np.array_equal(
        _serial_components(n, edges), _reference_components(n, edges)
    )


def test_union_find_on_an_app_graph():
    edges = _build_graph(512, 3, 31)
    assert np.array_equal(
        _serial_components(512, edges), _reference_components(512, edges)
    )
