#!/usr/bin/env python3
"""ulmimo benchmark: four fixed-seed CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mc-pilot --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/make_refs.py                        # rewrite the references

Load model: one closed-loop client per workload calls ``ulmimo.cli.main``
in this process, back to back, one call outstanding. BLAS is pinned to one
thread: on a 2-core host the default two OpenBLAS threads made mc-pilot
slower and too noisy to repeat within a tenth.

``--trace 0`` measures end to end. Six fresh interpreters and the
peak-RSS process give seven set-up samples (``setup_s`` is their median,
at a fixed reference speed like ``wall_s`` below);
the peak-RSS process runs the workload once at the default reference seed.
In this process a warm-up call at the holdout reference seed is followed
by timed calls, each at its own seed derived from ``--seed``, for
``--seconds`` and at least three calls. While each timed call runs,
contention.py samples how much other tenants of the host slow the core
down; ``wall_s`` is the median of the calls' times at a fixed reference
speed, and the times as measured are reported beside it.

``--trace 1`` measures per layer: for ``--seconds``, and at least twice,
an untraced call at a derived seed alternates with a traced call at the
default reference seed. The traced calls' counts must repeat exactly.

Units, directions and the reasons for each workload are declared once, in
BENCHMARK.json; this file and tracer.py only compute the values, and a
declared name without a value (or the reverse) stops the run.

Every call's outputs pass the correctness gate in gate.py; a failing call
counts in ``failed``. A run that cannot measure (sources missing, a traced
name gone, a layer silent) exits non-zero without a result line.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from contention import KERNEL_REF_S, ContentionProbe  # noqa: E402
from gate import Gate, load_references  # noqa: E402
from tracer import (LAYER_METRICS, PROCESS_METRICS, Trace, TraceError,  # noqa: E402
                    check_exercised, layer_values)
from workloads import (DEFAULT_SEED, HOLDOUT_SEED, REFERENCE_SEEDS,  # noqa: E402
                       WORKLOADS, rep_seed)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
MIN_TRACED = 2
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 120

END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def load_units() -> dict[str, str]:
    """Units of every metric declared in BENCHMARK.json, after checking that
    the declared names are well formed and are exactly the ones computed."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"no {spec_path.name} beside {BENCH.name}/")
    spec = json.loads(spec_path.read_text())
    computed = {
        "end_to_end": list(END_TO_END),
        "per_layer": [m.name for m in LAYER_METRICS] + [n for n, _ in PROCESS_METRICS],
        "workloads": list(WORKLOADS),
    }
    for key, names in computed.items():
        declared = [m["name"] for m in spec[key]]
        bad = [n for n in declared if not NAME_RE.fullmatch(n)]
        if bad or len(set(declared)) != len(declared) or set(declared) != set(names):
            raise BenchError(f"{spec_path.name} {key} do not match the benchmark: "
                             f"malformed {bad}, declared only "
                             f"{sorted(set(declared) - set(names))}, computed only "
                             f"{sorted(set(names) - set(declared))}")
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        raise BenchError("too many metrics declared")
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
            for m in spec[key]}


def import_cli():
    if not (SRC / "ulmimo" / "cli.py").is_file():
        raise BenchError(f"no ulmimo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ulmimo import cli
    if Path(cli.__file__).resolve().parent != SRC / "ulmimo":
        raise BenchError(f"imported ulmimo from {cli.__file__}, not {SRC}")
    return cli


def _blas_threads():
    """Threads numpy's OpenBLAS reports, or None where it cannot be asked."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_block() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = _blas_threads()
    if reported not in (None, BLAS_THREADS):
        raise BenchError(f"BLAS reports {reported} threads, pinned {BLAS_THREADS}")
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": reported}


def fresh_interpreter(scenario: str, cli_args=()) -> tuple[float, dict, dict]:
    """Start child.py; return seconds until it reported ready, its
    contention sample over set-up, and the result of its CLI call."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), scenario, *cli_args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not line.startswith("{") or proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed (exit {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1]) if cli_args else {}
    return setup_s, json.loads(line), result


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children, threads included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Client:
    """One closed-loop client of one workload, with its correctness gate."""

    def __init__(self, workload, cli, work_dir: Path):
        self.w = workload
        self.cli = cli
        self.work = work_dir
        refs = load_references(BENCH / "refs", workload.name)
        if sorted(refs) != sorted(REFERENCE_SEEDS):
            raise BenchError(f"references of {workload.name} missing")
        self.gate = Gate(refs)
        self.seen = self.gate.reference_fingerprints()
        self.attempted = 0
        self.failures: list[str] = []

    def out_dir(self, label: str) -> Path:
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        return out

    def check(self, label: str, out: Path, seed: int, code) -> None:
        """Gate one call's outputs and count it."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems, fingerprint = self.gate.check(out, seed)
            if seed not in REFERENCE_SEEDS:
                if fingerprint in self.seen:
                    problems.append("output repeats the output of another seed")
                self.seen.add(fingerprint)
        if problems:
            msg = f"{label} seed {seed}: {'; '.join(problems[:3])}"
            self.failures.append(msg)
            print(f"FAIL {self.w.name} {msg}", file=sys.stderr)

    def call(self, seed: int, label: str, trace: Trace | None = None,
             probe: ContentionProbe | None = None):
        """One timed CLI call; returns (wall seconds, CPU seconds, probe
        sample), the last empty without a probe."""
        out = self.out_dir(label)
        args = self.w.cli_args(seed, out)
        with (trace.installed() if trace else contextlib.nullcontext(),
              probe.sampling() if probe else contextlib.nullcontext({}) as sample):
            start, cpu = time.perf_counter(), cpu_seconds()
            try:
                code = self.cli.main(args)
            except TraceError:
                raise
            except Exception:  # a crash of the program is a failed call
                traceback.print_exc()
                code = "exception"
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
        self.check(label, out, seed, code)
        return wall, cpu, sample

    def loop(self, seed: int, seconds: float, probe: ContentionProbe):
        """Timed calls at derived seeds: raw walls, CPU times, contention
        samples and the seeds used."""
        walls, cpus, samples, seeds = [], [], [], []
        start = time.perf_counter()
        while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
            seeds.append(rep_seed(self.w.name, seed, len(seeds)))
            wall, cpu, sample = self.call(seeds[-1], "rep", probe=probe)
            walls.append(wall)
            cpus.append(cpu)
            samples.append(sample)
        return walls, cpus, samples, seeds


def _summary(values) -> dict:
    """Median, quartiles, count, and the highest percentile that has at
    least ten samples beyond it once there are enough samples."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    tail = 100 * (len(values) - 10) // len(values)
    if tail > 50:
        out[f"p{tail}"] = statistics.quantiles(values, n=100)[tail - 1]
    return out


def _scenario_of(workload) -> str:
    return workload.argv[workload.argv.index("--scenario") + 1]


def measure_end_to_end(client: Client, seed: int, seconds: float, units):
    w = client.w
    setups = [fresh_interpreter(_scenario_of(w))[:2] for _ in range(SETUP_CHILDREN)]
    out = client.out_dir("rss")
    *setup, child = fresh_interpreter(_scenario_of(w), w.cli_args(DEFAULT_SEED, out))
    setups.append(setup)
    client.check("rss", out, DEFAULT_SEED, child["code"])
    setups_raw = [t for t, _ in setups]
    setups = [ContentionProbe.at_reference_speed(t, s) for t, s in setups]
    client.call(HOLDOUT_SEED, "warmup")
    probe = ContentionProbe()
    walls, cpus, samples, seeds = client.loop(seed, seconds, probe)
    corrected = [probe.at_reference_speed(t, s) for t, s in zip(walls, samples)]
    factors = [s["kernel_mean_s"] / KERNEL_REF_S for s in samples]
    wall = statistics.median(corrected)
    metrics = {"wall_s": wall, "peak_rss_mb": child["maxrss_kb"] / 1024,
               "setup_s": statistics.median(setups)}
    report = {"wall_s": _summary(corrected), "wall_raw_s": _summary(walls),
              "contention_factor": _summary(factors),
              "kernel_fastest_s": probe.fastest,
              "kernel_samples": sum(s["samples"] for s in samples),
              "kernel_share": sum(s["kernel_spent_s"] for s in samples) / sum(walls),
              w.work_metric: w.work / wall,
              "setup_s": _summary(setups), "setup_raw_s": _summary(setups_raw),
              "peak_rss_mb": metrics["peak_rss_mb"],
              "cpu_util": statistics.median(c / t for c, t in zip(cpus, walls)),
              "rep_seeds": seeds}
    q = report["wall_s"]
    lines = [
        f"  wall_s            {wall:.4f} s   median of {len(walls)} calls at "
        f"reference speed (q1 {q['q1']:.4f}, q3 {q['q3']:.4f})",
        f"  wall_raw_s        {statistics.median(walls):.4f} s   as timed; median "
        f"contention factor {report['contention_factor']['median']:.3f}",
        f"  {w.work_metric:<17} {w.work / wall:.1f} {w.work_unit}   "
        f"{w.work} per call over wall_s",
        f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB   "
        "one process running only this workload",
        f"  setup_s           {metrics['setup_s']:.4f} s   median of {len(setups)} "
        f"fresh interpreters at reference speed ({statistics.median(setups_raw):.4f} "
        "as timed)",
    ]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, report, lines


def measure_layers(client: Client, seed: int, seconds: float, units):
    client.call(HOLDOUT_SEED, "warmup")
    walls, cpus, seeds, traces, traced_walls = [], [], [], [], []
    start = time.perf_counter()
    # untraced and traced calls alternate, so both see the same host load
    while len(traces) < MIN_TRACED or time.perf_counter() - start < seconds:
        seeds.append(rep_seed(client.w.name, seed, len(seeds)))
        wall, cpu, _ = client.call(seeds[-1], "rep")
        walls.append(wall)
        cpus.append(cpu)
        traces.append(Trace())
        traced_walls.append(client.call(DEFAULT_SEED, "traced", traces[-1])[0])
    check_exercised(traces[0], client.w.exercised)
    values = layer_values(traces)
    values["run.cpu_s"] = statistics.median(cpus)
    values["run.cpu_util"] = statistics.median(c / t for c, t in zip(cpus, walls))
    values["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_walls, walls))
    table = [(m.name, m.moves) for m in LAYER_METRICS] + list(PROCESS_METRICS)
    lines = [f"  {name:<40} {values[name]:>14.6g} {units[name]:<8} moves {moves}"
             for name, moves in table]
    report = {"traced_calls": len(traces), "untraced_calls": len(walls),
              "rep_seeds": seeds}
    return {n: {"value": values[n], "unit": units[n]} for n, _ in table}, report, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, cli, host, units):
    work_dir = WORK / f"{name}-{os.getpid()}"
    client = Client(WORKLOADS[name], cli, work_dir)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, report, lines = measure(client, seed, seconds, units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = len(client.failures)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          "(one closed-loop client, one call outstanding)")
    print("\n".join(lines))
    print(f"  fail_ratio        {failed}/{client.attempted} = "
          f"{failed / client.attempted:.3g}   failed/attempted calls")
    report.update(workload=name, seed=seed, trace=int(trace),
                  reference_seeds=list(REFERENCE_SEEDS), failures=client.failures,
                  host=host)
    print("report " + json.dumps(report))
    return {"correct": failed == 0, "attempted": client.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = load_units()
        cli = import_cli()
        host = host_block()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                                   cli, host, units)
                   for n in names}
    except (BenchError, TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
