"""Spans around qndcert's public functions, and the per-layer metrics.

A layer is a module of ``qndcert``.  The benchmark does not edit the
package: for a traced iteration it replaces the module attributes listed
in ``PROBES`` with timing wrappers and puts the originals back afterwards.
Replacing the attribute in the namespace that makes the call is what
catches it, so the CLI names are wrapped where ``qndcert.cli`` bound them
at import, and the names ``montecarlo`` and ``certification`` imported
from sibling modules are wrapped there.

Each span records (id, parent id, iteration, name, start, end).  Spans
stay in memory and are written once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qndcert.errors import QndError

CountHook = Callable[[tuple, dict, object, BaseException | None],
                     dict[str, float]]


def _simulated_shots(args, kwargs, result, error):
    # One shot of one arm is one shot; simulate_shots draws both arms.
    return {"montecarlo.shots": 2 * result.n_shots} if error is None else {}


def _written_bytes(args, kwargs, result, error):
    if error is not None:
        return {}
    size = sum(os.path.getsize(path) for path in result.values())
    return {"recordio.bytes_written": size,
            "recordio.shots_written": args[0].n_shots}


def _read_bytes(args, kwargs, result, error):
    if error is not None:
        return {}
    paths = [path for path in args[:3] if path is not None]
    return {"recordio.bytes_read": sum(os.path.getsize(p) for p in paths)}


def _refusals(args, kwargs, result, error):
    return {"estimation.refusals": 1} if isinstance(error, QndError) else {}


def _certified(args, kwargs, result, error):
    certified = error is None and result.verdict_full_qnd is True
    return {"certification.certified": 1} if certified else {}


@dataclass(frozen=True)
class Probe:
    """Wrap ``module.attr`` in spans named ``stem`` (``<layer>.<what>``)."""

    module: str
    attr: str
    stem: str
    count: CountHook | None = None

    @property
    def layer(self) -> str:
        return self.stem.split(".", 1)[0]


PROBES: tuple[Probe, ...] = (
    # names the CLI bound at import (acquire, reanalyze)
    Probe("qndcert.cli", "main", "cli.command"),
    Probe("qndcert.cli", "load_config", "config.load"),
    Probe("qndcert.cli", "simulate_shots", "montecarlo.busy",
          _simulated_shots),
    Probe("qndcert.cli", "write_records", "recordio.write", _written_bytes),
    Probe("qndcert.cli", "read_records", "recordio.read", _read_bytes),
    Probe("qndcert.cli", "sample_moments", "statistics.moments"),
    Probe("qndcert.cli", "delta_stats", "statistics.delta"),
    Probe("qndcert.cli", "certify", "certification.certify", _certified),
    Probe("qndcert.cli", "dump_json", "report.json"),
    Probe("qndcert.cli", "report_to_dict", "report.json"),
    Probe("qndcert.cli", "moments_to_dict", "report.json"),
    Probe("qndcert.cli", "delta_to_dict", "report.json"),
    Probe("qndcert.cli", "estimates_to_dict", "report.json"),
    # the sampler and what it calls (mc-validate)
    Probe("qndcert.montecarlo", "empirical_check", "montecarlo.busy"),
    Probe("qndcert.montecarlo", "simulate_shots", "montecarlo.busy",
          _simulated_shots),
    Probe("qndcert.montecarlo", "sample_moments", "statistics.moments"),
    Probe("qndcert.montecarlo", "predicted_moments", "statistics.closed_form"),
    Probe("qndcert.montecarlo", "no_atoms_moments", "statistics.closed_form"),
    # the model, closed forms and verdicts (sweep)
    Probe("qndcert.core", "make_initial_state", "core.state"),
    Probe("qndcert.dynamics", "apply_pulse", "dynamics.pulse"),
    Probe("qndcert.statistics", "predicted_moments", "statistics.closed_form"),
    Probe("qndcert.statistics", "no_atoms_moments", "statistics.closed_form"),
    Probe("qndcert.statistics", "delta_stats", "statistics.delta"),
    Probe("qndcert.conditioning", "condition_on_component",
          "conditioning.condition"),
    Probe("qndcert.estimation", "invert_three_pulse", "estimation.invert",
          _refusals),
    Probe("qndcert.certification", "invert_three_pulse", "estimation.invert",
          _refusals),
    Probe("qndcert.certification", "certify", "certification.certify",
          _certified),
)

# Stems called at least ten times per sweep iteration get per-call
# percentiles; no other workload calls any layer that often.
PER_CALL_STEMS = (
    "core.state", "dynamics.pulse", "statistics.closed_form",
    "statistics.delta", "conditioning.condition", "estimation.invert",
    "certification.certify",
)
_TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)

_SELF_TIME_METRIC = {
    "recordio.write": "recordio.write_s",
    "recordio.read": "recordio.read_s",
    "montecarlo.busy": "montecarlo.busy_s",
    "statistics.moments": "statistics.moments_s",
    "statistics.closed_form": "statistics.closed_form_s",
    "statistics.delta": "statistics.delta_s",
    "core.state": "core.state_s",
    "dynamics.pulse": "dynamics.pulse_s",
    "conditioning.condition": "conditioning.condition_s",
    "estimation.invert": "estimation.invert_s",
    "certification.certify": "certification.certify_s",
    "config.load": "config.load_s",
    "report.json": "report.json_s",
    "cli.command": "cli.self_s",
}


class Tracer:
    """Records spans and counters while its probes are installed."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.iterations: list[int] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._iteration = 0
        self._t0 = time.perf_counter_ns()
        self._targets = []
        for probe in probes:
            try:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
            except (ImportError, AttributeError):
                # The layer's function no longer exists: report, don't fail.
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            self._targets.append((module, probe, original))

    @contextlib.contextmanager
    def iteration(self, index: int):
        """Install every probe for the duration of one iteration."""
        self._iteration = index
        self.iterations.append(index)
        for module, probe, original in self._targets:
            setattr(module, probe.attr, self._wrap(probe, original))
        try:
            yield
        finally:
            for module, probe, original in self._targets:
                setattr(module, probe.attr, original)

    def _wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span, parent, self._iteration, probe.stem,
                                   start - self._t0, end - self._t0))
                if probe.count is not None:
                    for key, value in probe.count(args, kwargs, result,
                                                  error).items():
                        self.counts[(self._iteration, key)] += value
        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span,parent,iteration,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                handle.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac``.

        ``_s`` metrics and counts are medians over traced iterations of
        per-iteration totals; rates divide totals over all traced
        iterations; per-call percentiles use inclusive call durations.
        """
        children: dict[int, int] = defaultdict(int)
        for span, parent, _, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ns: dict[tuple[int, str], int] = defaultdict(int)
        calls: dict[tuple[int, str], int] = defaultdict(int)
        per_call: dict[str, list[float]] = defaultdict(list)
        for span, _, iteration, stem, start, end in self.spans:
            self_ns[(iteration, stem)] += end - start - children[span]
            calls[(iteration, stem.split(".", 1)[0])] += 1
            per_call[stem].append((end - start) * 1e-9)

        def median_of(table, key, scale=1.0):
            if not self.iterations:
                return 0.0
            return statistics.median(table.get((i, key), 0) * scale
                                     for i in self.iterations)

        def total(table, key):
            return sum(table.get((i, key), 0) for i in self.iterations)

        def rate(amount, stem, scale=1.0):
            busy = total(self_ns, stem) * 1e-9
            return amount * scale / busy if busy > 0 else 0.0

        out: dict[str, float] = {}
        for stem, name in _SELF_TIME_METRIC.items():
            out[name] = median_of(self_ns, stem, 1e-9)
        for layer in {probe.layer for probe in self.probes}:
            out[f"{layer}.calls"] = median_of(calls, layer)
        for name in ("estimation.refusals", "certification.certified"):
            out[name] = median_of(self.counts, name)
        out["recordio.write_mb_per_s"] = rate(
            total(self.counts, "recordio.bytes_written"), "recordio.write",
            1e-6)
        out["recordio.read_mb_per_s"] = rate(
            total(self.counts, "recordio.bytes_read"), "recordio.read", 1e-6)
        shots = total(self.counts, "recordio.shots_written")
        out["recordio.bytes_per_shot"] = (
            total(self.counts, "recordio.bytes_written") / shots
            if shots else 0.0)
        out["montecarlo.shots_per_s"] = rate(
            total(self.counts, "montecarlo.shots"), "montecarlo.busy")
        for stem in PER_CALL_STEMS:
            p50, tail = call_percentiles(per_call.get(stem, []))
            out[f"{stem}_p50"] = p50
            out[f"{stem}_tail"] = tail
        return out

    def calls_per_stem(self) -> dict[str, int]:
        """Traced calls of each per-call stem over the whole run."""
        counts = Counter(span[3] for span in self.spans)
        return {stem: counts[stem] for stem in PER_CALL_STEMS}


def tail_percentile(n: int) -> float:
    """Highest percentile of ``_TAIL_PERCENTILES`` with at least ten of
    ``n`` samples beyond it; 0 when there are too few samples."""
    for pct in _TAIL_PERCENTILES:
        if n - _rank(n, pct) >= 10:
            return pct
    return 0.0


def _rank(n: int, pct: float) -> int:
    """Nearest-rank position (1-based) of percentile ``pct`` of ``n``."""
    return max(1, math.ceil(round(n * pct / 100.0, 9)))


def call_percentiles(samples: list[float]) -> tuple[float, float]:
    """(median, tail) of per-call durations; the tail is the largest
    sample when no percentile has ten samples beyond it."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    tail = ordered[_rank(len(ordered), pct) - 1] if pct else ordered[-1]
    return statistics.median(ordered), tail
