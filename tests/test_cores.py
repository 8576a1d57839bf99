"""``cores``: forked, pinned shares come back in order and whole, a failed
child's share runs again here, every child is reaped, and the BLAS cap
restores what it changed."""

import os

import numpy as np
import pytest

from scca import cores

from conftest import no_children

needs_fork = pytest.mark.skipif(len(cores.usable_cpus()) < 2,
                                reason="forked shares need os.fork and two usable CPUs")


@needs_fork
def test_each_share_runs_pinned_and_the_mask_comes_back():
    cpus = cores.usable_cpus()
    mask = os.sched_getaffinity(0)
    here = os.getpid()
    out = cores.run_shares(lambda k: (k, os.getpid() == here, sorted(os.sched_getaffinity(0))),
                           cpus)
    assert out == [(k, k == 0, [cpu]) for k, cpu in enumerate(cpus)]
    assert os.sched_getaffinity(0) == mask
    assert no_children()


@needs_fork
def test_results_larger_than_a_pipe_buffer_come_back_whole():
    # 1 MB from each child, far past a 64 KiB pipe buffer
    out = cores.run_shares(lambda k: np.arange(125_000, dtype=float) * (k + 1),
                           cores.usable_cpus()[:2])
    for k, values in enumerate(out):
        np.testing.assert_array_equal(values, np.arange(125_000, dtype=float) * (k + 1))
    assert no_children()


@needs_fork
def test_a_failed_child_share_runs_again_here():
    here = os.getpid()

    def work(k):
        if os.getpid() != here:
            raise RuntimeError("fails in a child only")
        return k * 10
    assert cores.run_shares(work, cores.usable_cpus()[:2]) == [0, 10]
    assert no_children()


@needs_fork
def test_a_child_that_cannot_start_leaves_its_share_here(monkeypatch):
    def no_fork():
        raise OSError("no fork here")
    monkeypatch.setattr(os, "fork", no_fork)
    assert cores.run_shares(lambda k: (k, os.getpid()), cores.usable_cpus()[:2]) == [
        (0, os.getpid()), (1, os.getpid())]


@needs_fork
def test_an_error_in_share_zero_reaps_every_child_and_restores_the_mask():
    mask = os.sched_getaffinity(0)

    def work(k):
        if k == 0:
            raise ValueError("share zero")
        return k
    with pytest.raises(ValueError, match="share zero"):
        cores.run_shares(work, cores.usable_cpus()[:2])
    assert os.sched_getaffinity(0) == mask
    assert no_children()


def test_the_blas_cap_sets_one_thread_and_restores_every_count():
    pytest.importorskip("scipy.linalg")       # its own OpenBLAS, if it has one
    controls = cores._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this build")
    before = [get() for get, _put in controls]
    with cores.one_blas_thread() as capped:
        assert capped
        assert [get() for get, _put in controls] == [1] * len(controls)
    assert [get() for get, _put in controls] == before
    with pytest.raises(RuntimeError):
        with cores.one_blas_thread():
            raise RuntimeError
    assert [get() for get, _put in controls] == before


def test_without_blas_control_the_cap_changes_nothing(monkeypatch):
    monkeypatch.setattr(cores, "_openblas_controls", lambda: [])
    with cores.one_blas_thread() as capped:
        assert not capped
