"""Contiguous blocks of an index range, run in forked worker processes.

A Monte Carlo sweep keys the randomness of every trial by its index, so
any split of the indices gives the same samples. :func:`run_blocks` runs
the first block in this process and every other block in a child made by
``os.fork``. A child sends one pickled message down a pipe, its block's
result or the exception that escaped it, and ends with ``os._exit``: with
status 0 only once the whole message is written. A child that ends
otherwise, or one that cannot be started, fails the call with a
NumericalError. Results come back in block order, and every child is
reaped before the call returns or raises. A child is killed when this
process dies, and it runs no exit handler of its parent.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
from pathlib import Path

import numpy as np

from .errors import NumericalError

_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy bundles, or
    None where it bundles none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(blas, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(blas, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


def set_blas_threads(n: int) -> int | None:
    """Give numpy's bundled OpenBLAS n threads; the count it had, or None,
    with nothing set, where numpy bundles no OpenBLAS. A threaded BLAS
    splits sums by thread count, and so output bytes."""
    blas = _openblas()
    if blas is None:
        return None
    previous = blas[0]()
    blas[1](n)
    return previous


def cpu_count() -> int:
    """CPUs this process may run on, by its affinity mask; 1 without
    ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def split(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous (lo, hi) blocks of range(n), in order, whose
    sizes differ by at most one."""
    size, extra = divmod(n, parts)
    edges = [i * size + min(i, extra) for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


@functools.cache
def _die_with_parent(kill_signal: int):
    """A call that has the calling process sent ``kill_signal`` when its
    parent dies, or None without prctl (a child then outlives a killed
    parent until its block is done)."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        return None
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    return functools.partial(prctl, _PR_SET_PDEATHSIG, kill_signal)


def run_blocks(compute, bounds) -> list:
    """``compute(lo, hi)`` for each (lo, hi) of ``bounds``, in order.

    The first block runs here, each other one in a forked child, and
    every block with one BLAS thread: the bytes of a result then do not
    depend on the number of blocks, and no BLAS thread competes with a
    worker for a core. An exception that escapes a child's block is
    raised here with its type and message, once every block before it
    has come back.
    """
    previous = set_blas_threads(1)
    try:
        if len(bounds) == 1:
            return [compute(*bounds[0])]
        return _fork_blocks(compute, bounds)
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _fork_blocks(compute, bounds) -> list:
    import signal  # here, not at import: only a forking run needs it
    die_with_parent, parent = _die_with_parent(signal.SIGKILL), os.getpid()
    children = {}  # pid -> descriptor of its pipe's read end, until reaped
    try:
        for lo, hi in bounds[1:]:
            pipe = ()
            try:
                pipe = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in pipe:
                    os.close(fd)
                raise NumericalError(
                    f"cannot start a Monte Carlo worker: {exc}") from exc
            if pid == 0:
                _child(compute, lo, hi, pipe[1], die_with_parent, parent)
            children[pid] = pipe[0]  # first, so the finally finds it
            os.close(pipe[1])
        results = [compute(*bounds[0])]
        for pid in list(children):
            try:
                with open(children[pid], "rb", closefd=False) as read_end:
                    raised, value = pickle.load(read_end)
            except (EOFError, pickle.UnpicklingError):  # a cut message
                raised = None
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if status or raised is None:
                raise NumericalError(
                    f"Monte Carlo worker process {pid} {_ended(status)} "
                    "before sending its trials")
            if raised:
                raise value
            results.append(value)
        return results
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _child(compute, lo, hi, fd, die_with_parent, parent) -> None:
    """Run one block and send (raised, its result or exception), pickled
    once; never returns. A message that cannot be pickled, or an exception
    that does not come back from its pickle, is replaced by an exception
    that says so."""
    code = 1
    try:
        if die_with_parent is not None:
            die_with_parent()
        if os.getppid() != parent:  # the parent died before prctl
            return
        try:
            message = False, compute(lo, hi)
        except BaseException as exc:
            message = True, exc
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            if message[0]:  # an exception's __init__ may refuse its args
                pickle.loads(data)
        except Exception as exc:
            data = pickle.dumps((True, RuntimeError(
                f"a worker's {type(message[1]).__name__} could not be "
                f"pickled: {exc}")))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code}"
    return f"exited with status {code}"
