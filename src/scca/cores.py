"""Work on every usable CPU: forked, pinned processes and a BLAS thread cap.

``run_shares`` runs one share of a job per CPU: the first in this process,
each other in a forked child pinned to its own CPU, which inherits every
input without pickling and returns its result through a pipe.
``load_views`` uses it to parse large files, and the tuning sweeps to run
permutation cells or CV folds. ``one_blas_thread`` sets every loaded
OpenBLAS to one thread for the length of a block, so pinned processes do
not share their one CPU with BLAS threads.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence


def usable_cpus() -> list[int]:
    """The CPUs this process may run on; none where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (nothing runs forked there)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    return sorted(os.sched_getaffinity(0))


def _spawn(work: Callable[[int], object], share: int, cpu: int) -> tuple[int, int] | None:
    """Fork a child that runs ``work(share)`` pinned to ``cpu`` and pickles
    the result into a pipe, leaving through ``os._exit`` (non-zero when
    anything failed). Returns its pid and the pipe's read end; None when
    the child could not be started."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.sched_setaffinity(0, [cpu])
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps(work(share), protocol=pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def run_shares(work: Callable[[int], object], cpus: Sequence[int]) -> list:
    """``[work(k) for k in range(len(cpus))]``, share k pinned to ``cpus[k]``.

    Share 0 runs here while this process is pinned to ``cpus[0]``; it gets
    its CPU mask back after. Each other share runs in a forked child that
    pickles its result into a pipe. Every pipe is read to its end before
    its child is waited for, so a result larger than a pipe buffer cannot
    block its child. A share whose child could not be started or exited
    non-zero is run again here, unpinned, so its error is raised as a
    serial run raises it. If share 0 raises, the children are killed.
    Every child is reaped before this returns or raises.

    Forking is safe while BLAS threads exist: OpenBLAS stops its threads
    before a fork (its ``pthread_atfork`` handler), and each child runs on
    the one thread it has until ``os._exit``.
    """
    mask = os.sched_getaffinity(0)
    children: dict[int, tuple[int, int]] = {}     # share -> (pid, read end)
    try:
        os.sched_setaffinity(0, cpus[:1])
        for share, cpu in enumerate(cpus[1:], start=1):
            child = _spawn(work, share, cpu)
            if child is not None:
                children[share] = child
        first = work(0)
    except BaseException:
        for pid, read in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        returned = {}
        for share, (pid, read) in children.items():
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:
                returned[share] = data
    return [first] + [pickle.loads(returned[share]) if share in returned else work(share)
                      for share in range(1, len(cpus))]


def _openblas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of every OpenBLAS loaded in this
    process, found by file name in its memory map and by the
    ``*_get_num_threads*``/``*_set_num_threads*`` symbols that stock and
    scipy-openblas builds export; empty where none is found."""
    import ctypes      # loaded here: only a capped sweep needs it

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({fields[5].rstrip("\n") for fields in
                            (line.split(maxsplit=5) for line in maps)
                            if len(fields) == 6 and "openblas" in os.path.basename(fields[5])})
    except OSError:
        return []
    names = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
             for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        pair = next(((getattr(lib, get), getattr(lib, put)) for get, put in names
                     if hasattr(lib, get) and hasattr(lib, put)), None)
        if pair is not None:
            get, put = pair
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append(pair)
    return controls


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Every loaded OpenBLAS at one thread inside the block, each back at
    its old thread count after, also when the block raises. Yields whether
    any OpenBLAS thread control was found; where none is, nothing changes."""
    controls = _openblas_controls()
    old = [get() for get, _put in controls]
    try:
        for _get, put in controls:
            put(1)
        yield bool(controls)
    finally:
        for (_get, put), count in zip(controls, old):
            put(count)
