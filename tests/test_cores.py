"""``cores``: items pulled from one queue by forked, pinned processes come
back in item order and whole, a failed child's items run again here, an
error is the one a serial run raises, every child is reaped, and the BLAS
cap restores what it changed."""

import os
import time

import numpy as np
import pytest

from scca import cores

from conftest import no_children, run_fresh

needs_fork = pytest.mark.skipif(len(cores.usable_cpus()) < 2,
                                reason="forked processes need os.fork and two usable CPUs")


@needs_fork
def test_each_share_runs_pinned_and_the_mask_comes_back():
    cpus = cores.usable_cpus()
    mask = os.sched_getaffinity(0)
    here = os.getpid()

    def work(i):
        time.sleep(0.01)
        return i, os.getpid(), sorted(os.sched_getaffinity(0))
    out, taken = cores.run_queue(work, 12, cpus)
    assert [i for i, _pid, _cpus in out] == list(range(12))
    # this process runs on the first CPU, each child on one of the others
    assert all(pinned == [cpus[0]] if pid == here else len(pinned) == 1 and pinned[0] in cpus[1:]
               for _i, pid, pinned in out)
    assert len(taken) == len(cpus) and sum(taken) == 12
    assert taken[0] == sum(pid == here for _i, pid, _cpus in out)
    assert os.sched_getaffinity(0) == mask
    assert no_children()


@needs_fork
def test_results_come_back_in_item_order_whatever_order_they_finish_in():
    here = os.getpid()

    def work(i):
        # this process is slow, so a child finishes the later items first
        time.sleep(0.05 if os.getpid() == here else 0.001)
        return i * i
    out, taken = cores.run_queue(work, 8, cores.usable_cpus()[:2])
    assert out == [i * i for i in range(8)]
    assert taken[1] > 0
    assert no_children()


@needs_fork
def test_results_larger_than_a_pipe_buffer_come_back_whole():
    here = os.getpid()

    def work(i):
        # 1 MB per item, far past a 64 KiB pipe buffer; this process is slow,
        # so the child returns most of them
        if os.getpid() == here:
            time.sleep(0.1)
        return np.arange(125_000, dtype=float) * (i + 1)
    out, taken = cores.run_queue(work, 4, cores.usable_cpus()[:2])
    for i, values in enumerate(out):
        np.testing.assert_array_equal(values, np.arange(125_000, dtype=float) * (i + 1))
    assert taken[1] > 0
    assert no_children()


@needs_fork
def test_a_failed_child_share_runs_again_here():
    here = os.getpid()

    def work(i):
        if os.getpid() != here:
            os._exit(3)          # the child dies in the first item it takes
        time.sleep(0.01)
        return i, os.getpid()
    out, taken = cores.run_queue(work, 10, cores.usable_cpus()[:2])
    assert out == [(i, here) for i in range(10)]
    assert taken == [10, 0]
    assert no_children()


@needs_fork
def test_an_error_is_the_one_a_serial_run_raises():
    here = os.getpid()

    def work(i):
        if os.getpid() != here and i % 2:
            os._exit(3)          # a child dies in its first odd item
        time.sleep(0.005)
        if i in (4, 7):
            raise ValueError(f"item {i}")
        return i
    mask = os.sched_getaffinity(0)
    for _ in range(5):
        with pytest.raises(ValueError, match="item 4"):
            cores.run_queue(work, 12, cores.usable_cpus()[:2])
        assert os.sched_getaffinity(0) == mask
        assert no_children()


@needs_fork
def test_a_child_that_cannot_start_leaves_its_share_here(monkeypatch):
    def no_fork():
        raise OSError("no fork here")
    monkeypatch.setattr(os, "fork", no_fork)
    assert cores.run_queue(lambda i: (i, os.getpid()), 3, cores.usable_cpus()[:2]) == (
        [(i, os.getpid()) for i in range(3)], [3, 0])


@needs_fork
def test_an_error_in_share_zero_reaps_every_child_and_restores_the_mask():
    # an interrupt in this process kills the children at once
    mask = os.sched_getaffinity(0)
    here = os.getpid()

    def work(i):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(10)
    with pytest.raises(KeyboardInterrupt):
        cores.run_queue(work, 4, cores.usable_cpus()[:2])
    assert os.sched_getaffinity(0) == mask
    assert no_children()


@needs_fork
def test_twenty_thousand_items_finish_without_deadlock():
    # far more items than 4-byte tokens fit in a 64 KiB pipe; a fresh
    # interpreter, so that a hang fails the test at its timeout
    run_fresh("from scca import cores\n"
              "out, taken = cores.run_queue(lambda i: -i, 20_000, cores.usable_cpus())\n"
              "assert out == [-i for i in range(20_000)] and sum(taken) == 20_000\n")


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
