"""Work on every usable CPU: forked, pinned processes and a BLAS thread cap.

``run_queue`` runs a job's items on one process per CPU: this one and
forked children, each pinned to its own CPU. A child inherits every input
without pickling and returns its results through a pipe. Every process
pulls the next unclaimed item from one shared queue until none is left, so
a costly item or a slow CPU holds up only the process that has it.
``load_views`` uses it to parse the runs of rows of large files, and the
tuning sweeps to run permutation cells or CV folds. ``one_blas_thread``
sets every loaded OpenBLAS to one thread for the length of a block, so
pinned processes do not share their one CPU with BLAS threads. The command
line holds it around every subcommand, and each tuning sweep around itself.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import pickle
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence


def usable_cpus() -> list[int]:
    """The CPUs this process may run on; none where ``os.fork``,
    ``os.sched_getaffinity`` or ``os.memfd_create`` is missing (nothing
    runs forked there)."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
        return []
    return sorted(os.sched_getaffinity(0))


class _Queue:
    """The item indices 0, 1, ..., count - 1, handed out in order to every
    process forked after it was made: a counter in shared memory, read and
    advanced under a POSIX record lock. The kernel drops a process's lock
    when it dies, so a child killed while it claims cannot stop the others."""

    def __init__(self, count: int):
        self.count = count
        self.fd = os.memfd_create("scca-queue", os.MFD_CLOEXEC)
        os.ftruncate(self.fd, 8)
        self.shared = mmap.mmap(self.fd, 8)
        self.next = memoryview(self.shared).cast("q")

    def claim(self) -> int | None:
        """The next unclaimed index, or None when every item is claimed."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            at = self.next[0]
            self.next[0] = min(at + 1, self.count)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return at if at < self.count else None

    def stop(self) -> None:
        """Claim every item left, so no process starts another one."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        self.next[0] = self.count
        fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def close(self) -> None:
        self.next.release()
        self.shared.close()
        os.close(self.fd)


def _pull(work: Callable[[int], object], queue: _Queue) -> dict:
    """``work(i)`` of every index this process claims from ``queue``, by index."""
    done = {}
    while (at := queue.claim()) is not None:
        done[at] = work(at)
    return done


def _spawn(work: Callable[[int], object], queue: _Queue, cpu: int) -> tuple[int, int] | None:
    """Fork a child that pulls items from ``queue`` pinned to ``cpu`` and
    pickles its results, keyed by index, into a pipe, leaving through
    ``os._exit`` (non-zero when anything failed). Returns its pid and the
    pipe's read end; None when the child could not be started."""
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
                pipe.write(pickle.dumps(_pull(work, queue), protocol=pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def run_queue(work: Callable[[int], object], count: int,
              cpus: Sequence[int]) -> tuple[list, list[int]]:
    """``[work(i) for i in range(count)]`` on one process per CPU of
    ``cpus``, and how many of the results each process gave (this one first,
    then the children in CPU order).

    This process, pinned to ``cpus[0]``, and a forked child pinned to each
    other CPU pull item indices in increasing order from one queue until
    none is left; a child pickles its results, keyed by index, into a pipe.
    The results come back in item order, so they do not depend on the
    process count or on which process ran which item. Every pipe is read to
    its end before its child is waited for, so a result larger than a pipe
    buffer cannot block its child. The items of a child that could not be
    started are pulled by the others; the items of a child that exited
    non-zero are run here afterwards, unpinned, in index order. When an
    item raises here, no process starts another item, and the error raised
    is the one a serial run raises: that of the first item, in index order,
    that fails. This process gets its CPU mask back after. If it is
    interrupted, the children are killed. Every child is reaped before this
    returns or raises.

    Forking is safe while BLAS threads exist: OpenBLAS stops its threads
    before a fork (its ``pthread_atfork`` handler), and each child runs on
    the one thread it has until ``os._exit``.
    """
    mask = os.sched_getaffinity(0)
    queue = _Queue(count)
    children: list = []          # per other CPU: (pid, read end), or None when not started
    done: dict = {}
    failed = None                # (index, error) of the item that raised here
    try:
        os.sched_setaffinity(0, cpus[:1])
        for cpu in cpus[1:]:
            children.append(_spawn(work, queue, cpu))
        while failed is None and (at := queue.claim()) is not None:
            try:
                done[at] = work(at)
            except Exception as err:
                failed = at, err
                queue.stop()
    except BaseException:
        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        returned = []
        for child in children:
            data = None
            if child is not None:
                pid, read = child
                with os.fdopen(read, "rb") as pipe:
                    data = pipe.read()
                if os.waitpid(pid, 0)[1] != 0:
                    data = None
            returned.append(data)
        queue.close()
    taken = [len(done)]
    for data in returned:
        got = {} if data is None else pickle.loads(data)
        taken.append(len(got))
        done.update(got)
    # the items of children that failed, as far as a serial run gets
    for at in range(count if failed is None else failed[0]):
        if at not in done:
            done[at] = work(at)
            taken[0] += 1
    if failed is not None:
        raise failed[1]
    return [done[at] for at in range(count)], taken


def _openblas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the thread count of every OpenBLAS loaded in this
    process, found by file name in its memory map and by the
    ``*_get_num_threads*``/``*_set_num_threads*`` symbols that stock and
    scipy-openblas builds export; empty where none is found."""
    import ctypes      # loaded here: only a capped block needs it

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
