"""Kernels that reuse per-thread work arrays: ``bounds.fim`` and
``estimation.coarse_search`` against their oracles, across calls whose
shapes differ, after a caller mutates a result, and from several threads."""

import sys
import threading

import numpy as np

from channels import random_multipath
from oracle_coarse import dense_coarse_search
from oracle_fim import column_stack_fim
from slpos.bounds import fim
from slpos.estimation import coarse_search
from slpos.signal import OfdmConfig, make_pilots
from slpos.workarrays import work_array


def test_a_work_array_grows_and_is_kept_per_key():
    first = work_array(("test", 1), (2, 3), complex)
    assert first.shape == (2, 3) and first.dtype == complex and not first.any()
    first[:] = 7
    again = work_array(("test", 1), (3, 2), complex)
    assert np.shares_memory(first, again) and np.all(again == 7)
    assert not work_array(("test", 2), (2, 3), complex).any()
    grown = work_array(("test", 1), (4, 3), complex)
    assert not np.shares_memory(first, grown) and not grown.any()
    assert np.shares_memory(grown, work_array(("test", 1), (1,), complex))


def test_fims_of_changing_sizes_and_grids_equal_the_oracle(ofdm, pilots):
    rng = np.random.default_rng(19)
    small = OfdmConfig(**{**ofdm.__dict__, "num_subcarriers": 64, "num_symbols": 5})
    other_pilots = make_pilots(small, "seeded_random_phase", seed=4)
    cases = [(random_multipath(rng, n_paths), pilots, ofdm) for n_paths in (4, 2, 3, 4)]
    cases.append((random_multipath(rng, 3), other_pilots, small))
    cases.append(cases[0])
    for paths, grid, config in cases:
        j = fim(paths, grid, config)
        assert np.array_equal(j, column_stack_fim(paths, grid, config))
        # A caller may overwrite what it got; the next result is unaffected.
        j[:] = np.nan


def test_coarse_searches_of_changing_sizes_equal_the_oracle():
    rng = np.random.default_rng(23)
    for rows, n_sub, oversample in [(64, 167, 16), (3, 167, 16), (40, 64, 4), (64, 167, 2),
                                    (1, 167, 16), (64, 64, 4)]:
        c = rng.standard_normal((rows, n_sub)) + 1j * rng.standard_normal((rows, n_sub))
        start, width = coarse_search(c, oversample)
        expected = dense_coarse_search(c, oversample)
        assert np.array_equal(start, expected[0]) and np.array_equal(width, expected[1])
        start[:] = -1
        width[:] = -1


def test_threads_get_the_oracle_results(ofdm, pilots):
    # Each thread has its own work arrays: FIMs and coarse searches of
    # different inputs, interleaved in three threads that switch every
    # microsecond, equal the oracle's.
    rng = np.random.default_rng(29)
    jobs = []
    for _ in range(3):
        fims = [random_multipath(rng, int(rng.integers(2, 5))) for _ in range(200)]
        batches = [rng.standard_normal((int(rng.integers(1, 65)), 167))
                   + 1j * rng.standard_normal((1, 167)) for _ in range(200)]
        jobs.append((fims, batches))
    expected = [([column_stack_fim(paths, pilots, ofdm) for paths in fims],
                 [dense_coarse_search(c, 16, "first_peak") for c in batches])
                for fims, batches in jobs]
    got = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs), timeout=60)

    def run(k):
        fims, batches = jobs[k]
        barrier.wait()
        results = ([], [])
        for paths, c in zip(fims, batches):
            results[0].append(fim(paths, pilots, ofdm))
            results[1].append(coarse_search(c, 16, "first_peak"))
        got[k] = results

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (fims, searches), (want_fims, want_searches) in zip(got, expected):
        assert all(np.array_equal(a, b) for a, b in zip(fims, want_fims))
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(searches, want_searches))
