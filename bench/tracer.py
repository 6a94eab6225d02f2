"""Outside-in per-layer trace of ulmimo.

The tracer wraps public functions of the installed package from the
benchmark's own files; nothing under ``src/`` knows it is traced. Each
wrapper records a span: its duration, and its self time, which is the
duration minus the time spent in wrapped callees. Spans are aggregated in
memory per name for one CLI call, together with counters read from the
calls' arguments and results.

``experiments``, ``scenario``, ``cli`` and ``asymptotic`` import names from
sibling modules, so a wrapper replaces the original in every ``ulmimo``
module that holds it; ``Scenario.gain_matrix`` and
``FadingDistribution.expect`` are methods and are replaced on the class.
Every replaced attribute is restored afterwards and the restore is checked.
A target that no longer resolves raises :class:`TraceError`, so a rename
breaks the benchmark instead of making a layer read zero.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class TraceError(RuntimeError):
    """The trace cannot be trusted: a target vanished or a layer read zero."""


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Hooks run after a wrapped call: hook(trace, duration, self_time, args,
# kwargs, result).

def _on_draw(trace, dur, own, args, kwargs, result):
    _, K, M = result.shape
    trace.counts["draw.normals"] += 2 * result.size
    if K == M == 50:
        trace.samples["draw.k50"].append(own)


def _filter_solve(trace, n, M, own):
    """Attribute one MMSE solve to the path the code's ``n < M/2`` rule picks.

    Flops are computed from shapes for one solve plus one residual check,
    counting a complex multiply-add as 8 real flops; refinement steps are
    not counted.
    """
    if n < M / 2:
        path = "lowrank"
        flop = 8 * M * n * n + 32 * M * n + 8 * n ** 3 / 3 + 8 * n * n
    else:
        path = "dense"
        flop = 8 * M * M * n + 4 * M ** 3 / 3 + 8 * M * M + 16 * M * n
    stat = trace.spans[f"montecarlo.filter.{path}"]
    stat.calls += 1
    stat.total_s += own
    stat.self_s += own
    trace.counts["filter.flop"] += flop


def _on_mmse_pilot(trace, dur, own, args, kwargs, result):
    K, M = _arg(args, kwargs, 0, "est").estimates.shape
    _filter_solve(trace, K - 1, M, own)


def _on_mmse_perfect(trace, dur, own, args, kwargs, result):
    real = _arg(args, kwargs, 0, "real")
    _filter_solve(trace, real.K, real.M, own)


def _on_sinr(trace, dur, own, args, kwargs, result):
    if not math.isfinite(result.sinr):
        trace.counts["sinr.nonfinite"] += 1


def _on_trial(trace, dur, own, args, kwargs, result):
    trace.samples["run_trial"].append(dur)


def _on_write_csv(trace, dur, own, args, kwargs, result):
    trace.counts["write_csv.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _on_drop(trace, dur, own, args, kwargs, result):
    B, K, _ = result.positions.shape
    trace.counts["drop.kept"] += B * K


def _on_points_in_hex(trace, dur, own, args, kwargs, result):
    trace.counts["drop.candidates"] += result.shape[0]


# (span name, module, attribute, hook, timed). Untimed targets only count
# calls, so that a hot inner helper adds no clock reads.
TARGETS = (
    ("rng.seed_substream", "ulmimo.rng", "seed_substream", None, True),
    ("montecarlo.draw", "ulmimo.montecarlo", "draw_channel_matrix", _on_draw, True),
    ("montecarlo.draw_channels", "ulmimo.montecarlo", "draw_channels", None, True),
    ("montecarlo.estimate.noiseless", "ulmimo.montecarlo",
     "pilot_estimate_noiseless", None, True),
    ("montecarlo.estimate.training", "ulmimo.montecarlo",
     "training_based_estimate", None, True),
    ("montecarlo.pilot_sequences", "ulmimo.montecarlo",
     "generate_pilot_sequences", None, True),
    ("montecarlo.filter.mf", "ulmimo.montecarlo", "matched_filter", None, True),
    ("montecarlo.filter.mmse_pilot", "ulmimo.montecarlo", "mmse_filter_pilot",
     _on_mmse_pilot, True),
    ("montecarlo.filter.mmse_perfect", "ulmimo.montecarlo",
     "mmse_filter_perfect", _on_mmse_perfect, True),
    ("montecarlo.empirical_sinr", "ulmimo.montecarlo", "empirical_sinr",
     _on_sinr, True),
    ("experiments.run_trial", "ulmimo.experiments", "run_trial", _on_trial, True),
    ("experiments.sweep", "ulmimo.experiments", "monte_carlo_sweep", None, True),
    ("experiments.sweep", "ulmimo.experiments", "monte_carlo_result", None, True),
    ("experiments.sweep", "ulmimo.experiments", "percentile_sweep", None, True),
    ("experiments.sweep", "ulmimo.experiments", "rate_table", None, True),
    ("experiments.det_eq_sinr_rows", "ulmimo.experiments", "det_eq_sinr_rows",
     None, True),
    ("experiments.write_csv", "ulmimo.experiments", "write_csv", _on_write_csv, True),
    ("geometry.drop_users", "ulmimo.geometry", "drop_users", _on_drop, True),
    ("geometry.points_in_hex", "ulmimo.geometry", "points_in_hex",
     _on_points_in_hex, False),
    ("geometry.hex_layout", "ulmimo.geometry", "hex_layout", None, True),
    ("geometry.large_scale_gains", "ulmimo.geometry", "large_scale_gains",
     None, True),
    ("asymptotic.solve_det_eq", "ulmimo.asymptotic", "solve_det_eq", None, True),
    ("asymptotic.solve_eta1_perfect", "ulmimo.asymptotic", "solve_eta1_perfect",
     None, True),
    ("asymptotic.eta1_map", "ulmimo.asymptotic", "eta1_map", None, True),
    ("asymptotic.eta1_perfect_map", "ulmimo.asymptotic", "eta1_perfect_map",
     None, True),
    ("fading.expect", "ulmimo.fading", "FadingDistribution.expect", None, True),
    ("fading.expect_total_gain", "ulmimo.fading", "expect_total_gain", None, True),
    ("scenario.parse_scenario", "ulmimo.scenario", "parse_scenario", None, True),
    ("scenario.gain_matrix", "ulmimo.scenario", "Scenario.gain_matrix", None, True),
    ("cli.dispatch", "ulmimo.cli", "dispatch", None, True),
)


class Trace:
    """Span aggregates and counters of one traced CLI call."""

    def __init__(self):
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack = [0.0]  # time spent in wrapped callees, per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook, timed):
        stat = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                stat.calls += 1
                self._hook(name, hook, 0.0, 0.0, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                own = dur - stack.pop()
                stack[-1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += own
            self._hook(name, hook, dur, own, args, kwargs, result)
            return result
        return span

    def _hook(self, name, hook, *call):
        if hook is None:
            return
        try:
            hook(self, *call)
        except Exception as exc:  # a changed signature or result shape
            raise TraceError(f"cannot read the counters of {name}: {exc!r}") from exc

    def _install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ulmimo" or n.startswith("ulmimo."))]
        for name, module, attr, hook, timed in TARGETS:
            owner = sys.modules.get(module)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(method) if owner is not None else None
            if not callable(original):
                raise TraceError(f"{module}.{attr} no longer resolves")
            wrapper = self._wrap(name, original, hook, timed)
            for holder in ([owner] if cls_name else modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def _restore(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        stale = [f"{getattr(h, '__name__', h)}.{k}" for h, k, o in self._patched
                 if vars(h).get(k) is not o]
        self._patched.clear()
        if stale:
            raise TraceError(f"wrapped attributes not restored: {stale}")

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n].self_s for n in names if n in self.spans)


def check_exercised(trace: Trace, expected) -> None:
    """Fail when a layer the workload runs recorded no calls."""
    silent = sorted(n for n in expected if trace.calls(n) == 0)
    if silent:
        raise TraceError(f"layers recorded zero calls: {silent}")


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _pct(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass(frozen=True)
class LayerMetric:
    """How one per-layer metric is computed; its unit and direction are
    declared in BENCHMARK.json."""
    name: str
    exact: bool  # a count that must repeat exactly across traced calls
    value: Callable[[Trace], float]
    moves: str   # the end-to-end metric it should move, and where


def _calls(span, moves):
    return LayerMetric(f"{span}.calls", True, lambda t: t.calls(span), moves)


def _self(span, moves):
    return LayerMetric(f"{span}.self_s", False, lambda t: t.self_s(span), moves)


_MC = "trials_per_s on mc-pilot and edge-cost231"
_DROP = "trials_per_s on edge-cost231, drop_evals_per_s on rates-limits; none on mc-*"
_DETEQ = "drop_evals_per_s on rates-limits; none on mc-*"
_SETUP = "setup_s and, by a small share, wall_s on every workload"

LAYER_METRICS = (
    _calls("rng.seed_substream", "wall_s on mc-*/edge-cost231; none on rates-limits"),
    _self("rng.seed_substream", "wall_s on mc-*/edge-cost231; none on rates-limits"),
    LayerMetric("rng.seed_substream.mean_us", False,
                lambda t: 1e6 * _ratio(t.self_s("rng.seed_substream"),
                                       t.calls("rng.seed_substream")),
                "wall_s on mc-*/edge-cost231"),
    _calls("montecarlo.draw", _MC),
    _self("montecarlo.draw", _MC),
    LayerMetric("montecarlo.draw.normals", True,
                lambda t: t.counts["draw.normals"], _MC),
    LayerMetric("montecarlo.draw.ns_per_normal", False,
                lambda t: 1e9 * _ratio(t.self_s("montecarlo.draw"),
                                       t.counts["draw.normals"]), _MC),
    LayerMetric("montecarlo.draw.k50_mean_ms", False,
                lambda t: 1e3 * _mean(t.samples["draw.k50"]), _MC),
    _self("montecarlo.draw_channels", _MC),
    _self("montecarlo.estimate.noiseless", "trials_per_s on mc-pilot and edge-cost231"),
    _self("montecarlo.estimate.training", "trials_per_s on mc-training only"),
    _self("montecarlo.pilot_sequences", "trials_per_s on mc-training only"),
    _self("montecarlo.filter.mf", "trials_per_s on mc-*"),
    _self("montecarlo.filter.mmse_pilot", _MC),
    _self("montecarlo.filter.mmse_perfect", _MC),
    _calls("montecarlo.filter.lowrank", _MC),
    _calls("montecarlo.filter.dense", _MC),
    _self("montecarlo.filter.lowrank", _MC),
    _self("montecarlo.filter.dense", _MC),
    LayerMetric("montecarlo.filter.flop_computed", True,
                lambda t: t.counts["filter.flop"], _MC),
    LayerMetric("montecarlo.filter.gflops", False,
                lambda t: 1e-9 * _ratio(t.counts["filter.flop"], t.self_s(
                    "montecarlo.filter.lowrank", "montecarlo.filter.dense")), _MC),
    _calls("montecarlo.empirical_sinr", "trials_per_s on mc-*"),
    _self("montecarlo.empirical_sinr", "trials_per_s on mc-*"),
    LayerMetric("montecarlo.sinr_nonfinite", True,
                lambda t: t.counts["sinr.nonfinite"], "must stay 0 everywhere"),
    _calls("experiments.run_trial", "wall_s on mc-*"),
    _self("experiments.run_trial", "wall_s on mc-*"),
    LayerMetric("experiments.run_trial.p50_ms", False,
                lambda t: 1e3 * _pct(t.samples["run_trial"], 50), "wall_s on mc-*"),
    LayerMetric("experiments.run_trial.p99_ms", False,
                lambda t: 1e3 * _pct(t.samples["run_trial"], 99), "wall_s on mc-*"),
    _self("experiments.sweep", "wall_s on every workload"),
    _self("experiments.det_eq_sinr_rows", _DETEQ),
    _self("experiments.write_csv", "wall_s on mc-* (about 1%)"),
    LayerMetric("experiments.write_csv.bytes", True,
                lambda t: t.counts["write_csv.bytes"], "wall_s on mc-*"),
    _calls("geometry.drop_users", _DROP),
    _self("geometry.drop_users", _DROP),
    LayerMetric("geometry.drop_users.accept_ratio", True,
                lambda t: _ratio(t.counts["drop.kept"], t.counts["drop.candidates"]),
                _DROP),
    _calls("geometry.hex_layout", _DROP),
    _self("geometry.large_scale_gains", _DROP),
    _calls("asymptotic.solve_det_eq", _DETEQ),
    _self("asymptotic.solve_det_eq", _DETEQ),
    _self("asymptotic.solve_eta1_perfect", _DETEQ),
    _self("asymptotic.eta1_map", _DETEQ),
    _self("asymptotic.eta1_perfect_map", _DETEQ),
    LayerMetric("asymptotic.eta1.iterations", True,
                lambda t: t.calls("asymptotic.eta1_map"), _DETEQ),
    LayerMetric("asymptotic.eta1_perfect.iterations", True,
                lambda t: t.calls("asymptotic.eta1_perfect_map"), _DETEQ),
    _calls("fading.expect", "drop_evals_per_s on rates-limits"),
    _calls("fading.expect_total_gain", "drop_evals_per_s on rates-limits"),
    LayerMetric("fading.self_s", False,
                lambda t: t.self_s("fading.expect", "fading.expect_total_gain"),
                "drop_evals_per_s on rates-limits"),
    _self("scenario.parse_scenario", _SETUP),
    _self("scenario.gain_matrix", "trials_per_s on edge-cost231"),
    LayerMetric("scenario.gain_matrix.mean_ms", False,
                lambda t: 1e3 * _ratio(t.spans["scenario.gain_matrix"].total_s,
                                       t.calls("scenario.gain_matrix")),
                "trials_per_s on edge-cost231"),
    _self("cli.dispatch", _SETUP),
)

# Computed by run.py from the untraced and traced calls of a traced run.
PROCESS_METRICS = (
    ("run.cpu_s", "wall_s on every workload"),
    # CPU over wall of one call: above 1 only when a change uses more cores
    ("run.cpu_util", "wall_s on mc-*/edge-cost231 when parallel"),
    # traced over untraced wall time: a cost of the trace, not of the program
    ("trace.overhead_ratio", "no end-to-end metric"),
)


def layer_values(traces: list[Trace]) -> dict[str, float]:
    """Per-layer values of one call: counts from the first traced call (they
    must repeat exactly across calls), times as the median over calls."""
    values = {}
    for m in LAYER_METRICS:
        per_call = [float(m.value(t)) for t in traces]
        if m.exact and len(set(per_call)) > 1:
            raise TraceError(f"{m.name} differs between traced calls at one "
                             f"seed: {per_call}")
        values[m.name] = per_call[0] if m.exact else statistics.median(per_call)
    return values
