"""Monte Carlo sweeps split over forked worker processes.

A sweep's trial blocks run in forked workers when the process may run on
more than one CPU. The worker count follows the affinity mask, which these
tests set by replacing ``os.sched_getaffinity``; they also lower the
smallest block to one channel entry, so that small sweeps fork. Outputs,
refusals and errors must not depend on the worker count, and no worker
may outlive the call that forked it, nor any pipe end stay open.
"""

import builtins
import errno
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ulmimo import cli
from ulmimo import experiments as ex
from ulmimo import workers
from ulmimo.errors import InvalidInputError, NumericalError
from ulmimo.scenario import parse_scenario

SRC = Path(ex.__file__).resolve().parents[1]
ALL = ex.ALL_FILTERS


class WorkerCrash(Exception):
    """An exception type the package knows nothing of."""


@pytest.fixture(scope="module")
def idealized_01():
    return parse_scenario("idealized-01")


class Forks(list):
    """The pids forked since the fixture started, in order."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def set_cpus(self, n: int) -> None:
        self._monkeypatch.setattr(os, "sched_getaffinity",
                                  lambda pid: set(range(n)))


def open_fds() -> int | None:
    """The number of this process's open descriptors, or None without
    /proc."""
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


@pytest.fixture
def forks(monkeypatch):
    """Counts forks and lets a test set the CPU count; every block may be
    as small as one trial. Fails the test if it leaves a descriptor open,
    such as a pipe end of a worker."""
    made = Forks(monkeypatch)
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(ex, "_BLOCK_MIN_ENTRIES", 1)
    before = open_fds()
    yield made
    assert open_fds() == before, "the test left a descriptor open"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_in_workers(monkeypatch, exc):
    """Make every trial that runs in a worker raise exc."""
    parent, real_run_trial = os.getpid(), ex.run_trial

    def run_trial(*args):
        if os.getpid() != parent:
            raise exc
        return real_run_trial(*args)
    monkeypatch.setattr(ex, "run_trial", run_trial)


# each refusal monte_carlo_sweep makes, with its message, at a trial count
# that would take workers: (M, grid, trials, filters, mode, seed)
REFUSALS = {
    "no trials": ((8, [0.5], 0, ALL, "noiseless", 0),
                  "trials must be at least 1, got 0"),
    "bool trials": ((8, [0.5], True, ALL, "noiseless", 0),
                    "trials must be an integer, got True"),
    "float trials": ((8, [0.5], 10.0, ALL, "noiseless", 0),
                     "trials must be an integer, got 10.0"),
    "no trial count": ((8, [0.5], None, ALL, "noiseless", 0),
                       "trials must be an integer, got None"),
    "float antennas": ((8.0, [1.0], 10_000, ALL, "noiseless", 0),
                       "the antenna count must be an integer, got 8.0"),
    "bool antennas": ((True, [1.0], 10_000, ALL, "noiseless", 0),
                      "the antenna count must be an integer, got True"),
    "empty grid": ((8, [], 10_000, ALL, "noiseless", 0),
                   "alpha grid must be non-empty"),
    "alpha range": ((8, [0.5, 2.0], 10_000, ALL, "noiseless", 0),
                    "alpha grid must lie in (0, 1.5]"),
    "alpha order": ((8, [0.5, 0.25], 10_000, ALL, "noiseless", 0),
                    "alpha grid must be strictly increasing"),
    "bool alpha": ((8, [True], 10_000, ALL, "noiseless", 0),
                   "alpha must be a real number within the float range, "
                   "got True"),
    "string alpha": ((8, ["0.5"], 10_000, ALL, "noiseless", 0),
                     "alpha must be a real number within the float range, "
                     "got '0.5'"),
    "mode": ((8, [0.5], 10_000, ALL, "psychic", 0),
             "unknown estimate mode 'psychic'"),
    "no filter": ((8, [0.5], 10_000, (), "noiseless", 0),
                  "filter list must be non-empty"),
    "filter name": ((8, [0.5], 10_000, ("zf",), "noiseless", 0),
                    "unknown filter 'zf'"),
    "filter twice": ((8, [0.5], 10_000, ("mf", "mmse", "mf"), "noiseless", 0),
                     "filter 'mf' is named twice"),
    "trial cap": ((2000, [1.0], 10_000, ALL, "noiseless", 0),
                  "a trial at M=2000, alpha=1.0 holds 28000000 channel "
                  "entries, above the cap of 16777216"),
    "sample cap": ((8, [0.25, 0.5, 1.0], 2_000_000, ALL, "noiseless", 0),
                   "3 loadings x 3 filters x 2000000 trials exceed the cap "
                   "of 16777216 SINR samples"),
    "negative seed": ((8, [0.5], 10_000, ALL, "noiseless", -1),
                      "seed -1 must lie in [0, 2**64)"),
    "seed too big": ((8, [0.5], 10_000, ALL, "noiseless", 2 ** 64),
                     "seed 18446744073709551616 must lie in [0, 2**64)"),
    "float seed": ((8, [0.5], 10_000, ALL, "noiseless", 1.5),
                   "seed 1.5 is not an integer"),
}


# the count refusals of the runners that call monte_carlo_sweep, each of
# which once ended in a TypeError or ran: (runner, args after the scenario)
RUNNER_REFUSALS = {
    "percentile no trial count": (
        ex.percentile_sweep, (8, [0.5], None, "noiseless", 0),
        "trials must be an integer, got None"),
    "rates no antenna count": (
        ex.rate_table, (None, [0.5], 10, "noiseless", 0),
        "the antenna count must be an integer, got None"),
    "rates bool trials": (
        ex.rate_table, (8, [0.5], True, "noiseless", 0),
        "trials must be an integer, got True"),
}


@pytest.fixture
def no_fork(monkeypatch):
    def fail():
        pytest.fail("forked before refusing")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(os, "fork", fail)


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_come_before_any_fork(idealized_01, no_fork, case):
    args, message = REFUSALS[case]
    with pytest.raises(InvalidInputError) as info:
        ex.monte_carlo_sweep(idealized_01, *args)
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(RUNNER_REFUSALS))
def test_runner_refusals_come_before_any_fork(idealized_01, no_fork, case):
    runner, args, message = RUNNER_REFUSALS[case]
    with pytest.raises(InvalidInputError) as info:
        runner(idealized_01, *args)
    assert str(info.value) == message


# command lines that each run one sweep
RUNS = {
    "montecarlo-noiseless": ("montecarlo", "--antennas", "8", "--alpha",
                             "0.25,0.5,1.0", "--trials", "7"),
    "montecarlo-noisy": ("montecarlo", "--antennas", "8", "--alpha",
                         "0.25,0.5,1.0", "--trials", "7", "--estimate",
                         "noisy"),
    "montecarlo-training": ("montecarlo", "--antennas", "8", "--alpha",
                            "0.25,0.5,1.0", "--trials", "7", "--estimate",
                            "training"),
    "percentile": ("percentile", "--antennas", "8", "--alpha", "0.5,1.0",
                   "--trials", "20", "--estimate", "training"),
    "rates": ("rates", "--antennas", "8", "--alpha", "0.5,1.0", "--trials",
              "5"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, forks, run):
    argv, out = RUNS[run], tmp_path / "out"
    outputs = []
    for workers in (1, 2, 3):
        forks.set_cpus(workers)
        forks.clear()
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert len(forks) == workers - 1
        outputs.append([(out / name).read_bytes() for name in
                        (f"{argv[0]}.csv", "manifest.json")])
        assert_no_child_left()
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("exc, code", [
    (InvalidInputError("a worker refused"), 2),
    (NumericalError("a worker diverged"), 4),
    (FloatingPointError("overflow encountered in a worker"), 4),
    (WorkerCrash("a worker crashed"), None),
], ids=["invalid-input", "numerical", "floating-point", "other"])
def test_worker_error_surfaces_with_its_type_and_message(
        idealized_01, tmp_path, capsys, monkeypatch, forks, exc, code):
    forks.set_cpus(2)
    failing_in_workers(monkeypatch, exc)
    with pytest.raises(type(exc)) as info:
        ex.monte_carlo_sweep(idealized_01, 8, [0.5], 4, ALL, "noiseless", 0)
    assert type(info.value) is type(exc)
    assert str(info.value) == str(exc)
    assert len(forks) == 1
    assert_no_child_left()

    argv = ["montecarlo", "--antennas", "8", "--trials", "4", "--out",
            str(tmp_path / "out")]
    if code is None:  # not the package's: no exit code, a traceback
        with pytest.raises(WorkerCrash, match="^a worker crashed$"):
            cli.main(argv)
    else:
        capsys.readouterr()
        assert cli.main(argv) == code
        assert capsys.readouterr().err == f"error: {exc}\n"
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_trial_in_sweep_order_decides_the_error(
        idealized_01, monkeypatch, forks, workers):
    # with 7 trials in two or three blocks, block 0 fails first at loading
    # 1, trial 0, and the block holding trial 5 at loading 0, trial 5,
    # which comes first in a one-process sweep
    forks.set_cpus(workers)
    failing = {("mc.channel.a1", 0), ("mc.channel.a0", 5)}
    real_seed_substream = ex.seed_substream

    def seed_substream(seed, tag, index=0):
        if (tag, index) in failing:
            raise NumericalError(f"trial {index} of {tag} failed")
        return real_seed_substream(seed, tag, index)
    monkeypatch.setattr(ex, "seed_substream", seed_substream)
    with pytest.raises(NumericalError,
                       match="^trial 5 of mc.channel.a0 failed$"):
        ex.monte_carlo_sweep(idealized_01, 8, [0.25, 0.5], 7, ALL,
                             "noiseless", 0)
    assert len(forks) == workers - 1
    assert_no_child_left()


def test_interrupt_here_kills_the_workers(idealized_01, monkeypatch, forks):
    # the workers would run a minute; the interrupted call kills them
    forks.set_cpus(3)
    parent = os.getpid()

    def run_trial(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt
    monkeypatch.setattr(ex, "run_trial", run_trial)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ex.monte_carlo_sweep(idealized_01, 8, [0.5], 6, ALL, "noiseless", 0)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert_no_child_left()


def test_killed_worker_fails_the_run_promptly(tmp_path):
    # in a fresh interpreter, so that a hang is cut by the timeout
    code = f"""
import os, signal, sys
from ulmimo import cli, experiments as ex
os.sched_getaffinity = lambda pid: {{0, 1}}
ex._BLOCK_MIN_ENTRIES = 1
parent, real_run_trial = os.getpid(), ex.run_trial
def run_trial(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_trial(*args)
ex.run_trial = run_trial
code = cli.main(["montecarlo", "--antennas", "8", "--trials", "4",
                 "--out", {str(tmp_path / "out")!r}])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a worker was left unreaped")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == NumericalError.exit_code, proc.stderr
    assert re.fullmatch(
        rf"error: Monte Carlo worker process \d+ was killed by signal "
        rf"{int(signal.SIGKILL)} before sending its trials\n", proc.stderr)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_worker_that_cannot_start_fails_the_run(
        idealized_01, tmp_path, capsys, monkeypatch, forks, call):
    # the first worker starts, the second cannot: the first is killed and
    # reaped, and the pipe of the second is closed
    forks.set_cpus(3)
    real = getattr(os, call)
    calls = []

    def fail_second():
        calls.append(call)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()
    monkeypatch.setattr(os, call, fail_second)
    message = (f"cannot start a Monte Carlo worker: [Errno {errno.EAGAIN}] "
               f"{os.strerror(errno.EAGAIN)}")
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        ex.monte_carlo_sweep(idealized_01, 8, [0.5], 6, ALL, "noiseless", 0)
    assert len(forks) == 1
    assert_no_child_left()

    calls.clear()
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--antennas", "8", "--trials", "6",
                     "--out", str(out)]) == NumericalError.exit_code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert_no_child_left()


class Unrebuildable(Exception):
    """Pickles, but its pickle calls __init__ with one argument of two."""

    def __init__(self, what, why):
        super().__init__(what)
        self.why = why


def raise_unrebuildable(lo, hi):
    raise Unrebuildable("a worker failed", "no reason")


@pytest.mark.parametrize("block, kind", [
    (raise_unrebuildable, "Unrebuildable"),
    (lambda lo, hi: lambda: lo, "function"),
], ids=["exception", "result"])
def test_message_that_cannot_be_pickled_surfaces_by_type(forks, block, kind):
    def compute(lo, hi):
        return block(lo, hi) if lo else [lo]
    with pytest.raises(RuntimeError,
                       match=f"^a worker's {kind} could not be pickled: "):
        workers.run_blocks(compute, [(0, 1), (1, 2)])
    assert len(forks) == 1
    assert_no_child_left()


def test_result_is_pickled_once_and_not_unpickled_in_the_worker(
        forks, monkeypatch):
    # a result is pickled straight into the pipe; only an exception is
    # pickled to bytes and unpickled in its worker, to check that it can be
    # rebuilt. A result was held beside its pickle, and once beside a
    # second, full copy, before.
    real_dumps = pickle.dumps

    def dumps(obj, *args, **kwargs):
        if type(obj) is tuple and obj[:1] == (False,):
            raise AssertionError("a result was pickled to bytes in its worker")
        return real_dumps(obj, *args, **kwargs)

    def no_loads(data):
        raise AssertionError("a result was unpickled in its worker")
    monkeypatch.setattr(pickle, "dumps", dumps)
    monkeypatch.setattr(pickle, "loads", no_loads)
    blocks = [np.full(1000, float(lo)) for lo in range(3)]
    results = workers.run_blocks(lambda lo, hi: blocks[lo],
                                 [(0, 1), (1, 2), (2, 3)])
    assert all(np.array_equal(got, want) for got, want in zip(results, blocks))
    assert len(forks) == 2
    assert_no_child_left()


def test_result_that_fails_to_pickle_midway_surfaces_by_type(forks):
    # the 256 KiB array is in the pipe before the function fails to
    # pickle; the exception sent after it is the message read
    block = np.zeros(1 << 15)

    def compute(lo, hi):
        return {"block": block, "then": lambda: lo} if lo else [lo]
    with pytest.raises(RuntimeError,
                       match="^a worker's dict could not be pickled: "):
        workers.run_blocks(compute, [(0, 1), (1, 2)])
    assert len(forks) == 1
    assert_no_child_left()


def test_interrupt_as_a_fork_returns_reaps_that_worker(monkeypatch, forks):
    # the interrupt comes before the parent has recorded its child; it is
    # raised once the child is recorded, which is then killed and reaped
    # with its pipe's ends closed, and the caller's handler is back
    counting_fork, handler = os.fork, signal.getsignal(signal.SIGINT)

    def interrupted_fork():
        pid = counting_fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid
    monkeypatch.setattr(os, "fork", interrupted_fork)
    with pytest.raises(KeyboardInterrupt):
        workers.run_blocks(lambda lo, hi: [lo], [(0, 1), (1, 2), (2, 3)])
    assert len(forks) == 1
    assert signal.getsignal(signal.SIGINT) is handler
    assert_no_child_left()


@pytest.mark.parametrize("exc", [
    KeyboardInterrupt(), OSError(errno.EMFILE, os.strerror(errno.EMFILE))],
    ids=["interrupt", "emfile"])
def test_worker_whose_pipe_cannot_be_opened_is_reaped(idealized_01,
                                                      monkeypatch, forks, exc):
    # the first open of a read end, once the workers are forked, raises
    # here: each worker is still killed and reaped, and each pipe end closed
    forks.set_cpus(3)
    parent, calls = os.getpid(), []

    def open_failing_once(*args, **kwargs):
        if os.getpid() == parent:
            calls.append(args)
            if len(calls) == 1:
                raise exc
        return builtins.open(*args, **kwargs)
    monkeypatch.setattr(workers, "open", open_failing_once, raising=False)
    with pytest.raises(type(exc)):
        ex.monte_carlo_sweep(idealized_01, 8, [0.5], 6, ALL, "noiseless", 0)
    assert len(forks) == 2
    assert_no_child_left()


def test_results_larger_than_a_pipe_buffer_come_back_in_order():
    # in a fresh interpreter, so that a parent waiting for a child that
    # waits for room in its pipe is cut by the timeout
    code = """
import os, sys
import numpy as np
from ulmimo import workers
blocks = [np.arange(lo << 18, (lo + 1) << 18, dtype=np.float64)  # 2 MiB
          for lo in range(3)]
def compute(lo, hi):
    return {"block": blocks[lo]} if lo == 1 else blocks[lo]
results = workers.run_blocks(compute, [(0, 1), (1, 2), (2, 3)])
assert np.array_equal(results[0], blocks[0])
assert list(results[1]) == ["block"]
assert np.array_equal(results[1]["block"], blocks[1])
assert np.array_equal(results[2], blocks[2])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit("a worker was left unreaped")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


def test_blocks_run_with_one_blas_thread():
    original = workers.set_blas_threads(2)
    if original is None:
        pytest.skip("numpy bundles no OpenBLAS")
    try:
        # each block reports the count it ran with; the caller's comes back
        seen = workers.run_blocks(lambda lo, hi: workers.set_blas_threads(1),
                                  [(0, 1), (1, 2), (2, 3)])
        assert seen == [1, 1, 1]
        assert workers.set_blas_threads(1) == 2
    finally:
        workers.set_blas_threads(original)
    assert_no_child_left()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc")
def test_worker_dies_with_a_killed_parent():
    # the parent is killed once its worker runs its block; both would
    # sleep. Each line is one write, so the two processes' lines do not mix.
    code = """
import os, time
from ulmimo import workers
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        os.write(1, f"worker {pid}\\n".encode())
    return pid
def compute(lo, hi):
    os.write(1, f"block {lo}\\n".encode())
    time.sleep(60)
os.fork = fork
workers.run_blocks(compute, [(0, 1), (1, 2)])
"""
    with subprocess.Popen([sys.executable, "-c", code],
                          stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC))) as parent:
        try:
            lines = {parent.stdout.readline().strip() for _ in range(3)}
        finally:
            parent.kill()
    assert "block 1" in lines
    worker = next(int(line.split()[1]) for line in lines
                  if line.startswith("worker"))
    status = Path(f"/proc/{worker}/status")
    deadline = time.monotonic() + 30
    while status.exists() and "\nState:\tZ" not in status.read_text():
        assert time.monotonic() < deadline, "the worker outlived its parent"
        time.sleep(0.01)
