"""Contiguous blocks of an index range, run in forked worker processes.

A Monte Carlo sweep keys the randomness of every trial by its index, so
any split of the indices gives the same samples. :func:`run_blocks` runs
the first block in this process and every other block in a child made by
``os.fork``. A child sends its result down a pipe and ends with
``os._exit``: a float64 array as raw bytes, any other value or an
exception that escaped the block pickled. Results come back in block
order, and every child is reaped before the call returns or raises. A
child is killed when this process dies, and it runs no exit handler of
its parent.
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
_ARRAY, _VALUE, _RAISED = b"a", b"v", b"r"


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


def run_blocks(compute, bounds, shape) -> list:
    """``compute(lo, hi)`` for each (lo, hi) of ``bounds``, in order.

    The first block runs here, each other one in a forked child, and
    every block with one BLAS thread: the bytes of a result then do not
    depend on the number of blocks, and no BLAS thread competes with a
    worker for a core. An array result must be float64 of shape
    ``(*shape, hi - lo)``; any other result is passed back as it is. An
    exception that escapes a child's block is raised here with its type
    and message, once every block before it has come back.
    """
    previous = set_blas_threads(1)
    try:
        if len(bounds) == 1:
            return [compute(*bounds[0])]
        return _fork_blocks(compute, bounds, shape)
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _fork_blocks(compute, bounds, shape) -> list:
    import signal  # here, not at import: only a forking run needs it
    die_with_parent, parent = _die_with_parent(signal.SIGKILL), os.getpid()
    children = {}  # pid -> read end of its pipe, until reaped
    try:
        for lo, hi in bounds[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(compute, lo, hi, write_end, die_with_parent, parent)
            os.close(write_end)
            children[pid] = read_end
        results = [compute(*bounds[0])]
        for pid, (lo, hi) in zip(list(children), bounds[1:]):
            kind, result = _receive(children[pid], (*shape, hi - lo))
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if kind == _RAISED:
                raise result
            if kind is None:
                raise NumericalError(
                    f"Monte Carlo worker process {pid} {_ended(status)} "
                    "before sending its trials")
            results.append(result)
        return results
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _child(compute, lo, hi, fd, die_with_parent, parent) -> None:
    """Run one block and send its result; never returns."""
    code = 1
    try:
        if die_with_parent is not None:
            die_with_parent()
        if os.getppid() != parent:  # the parent died before prctl
            return
        try:
            result = compute(lo, hi)
            if isinstance(result, np.ndarray):
                message = [_ARRAY, memoryview(result).cast("B")]
            else:
                message = _pickled(_VALUE, result)
        except BaseException as exc:
            message = _pickled(_RAISED, exc)
        for part in message:
            view = memoryview(part)
            while view:
                view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


def _pickled(kind: bytes, obj) -> list[bytes]:
    """[kind, obj pickled], or, if obj does not come back from its pickle,
    an exception to raise that says so."""
    try:
        data = pickle.dumps(obj)
        pickle.loads(data)
        return [kind, data]
    except Exception as exc:
        return [_RAISED, pickle.dumps(RuntimeError(
            f"a worker's {type(obj).__name__} could not be pickled: {exc}"))]


def _receive(fd: int, shape):
    """(kind, result) of a child, read to the end of its pipe; kind is None
    if the child ended before sending all of its result."""
    kind = os.read(fd, 1)
    if kind == _ARRAY:
        out = np.empty(shape)
        view = memoryview(out).cast("B")
        while view:
            got = os.readv(fd, [view])
            if not got:
                return None, None
            view = view[got:]
        return kind, out
    if kind not in (_VALUE, _RAISED):
        return None, None
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return kind, pickle.loads(b"".join(chunks))


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code}"
    return f"exited with status {code}"
