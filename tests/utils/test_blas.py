"""The BLAS thread helper and the pool workers' single-threaded BLAS pin."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign.executor import _worker_init
from repro.utils.blas import blas_info, set_blas_threads


def _threads_or_skip() -> int:
    """The coordinator's BLAS thread count; skips without an OpenBLAS setter."""
    threads = blas_info()[1]
    # Setting the current count is a no-op that reports whether a setter exists.
    if threads is None or not set_blas_threads(threads):
        pytest.skip("NumPy's BLAS exposes no OpenBLAS thread setter")
    return threads


def test_set_blas_threads_round_trips():
    threads = _threads_or_skip()
    try:
        assert set_blas_threads(1)
        assert blas_info()[1] == 1
    finally:
        set_blas_threads(threads)
    assert blas_info()[1] == threads


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_single_threaded_blas(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} is unavailable here")
    threads = _threads_or_skip()
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context(method),
        initializer=_worker_init,
    ) as pool:
        assert pool.submit(blas_info).result()[1] == 1
    assert blas_info()[1] == threads
