"""Per-layer spans, recorded by wrapping the package's public functions.

Nothing under src/ is edited: each wrapped function is replaced in every
``sechspin`` module namespace that holds it, so calls through names
imported with ``from .x import f`` are caught too (``phases`` looks up
``propagate`` in its own namespace, ``fidelity`` looks up
``evolve_operator`` in its own). A span's self time is its duration minus
the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, function) per layer; PulseSchedule construction is wrapped apart
SPANS = (
    ("cli", "main"),
    ("fidelity", "gate_report"),
    ("pulsedesign", "design_for_angle"),
    ("pulsedesign", "verify_cancellation"),
    ("propagator", "evolve_operator"),
    ("propagator", "propagate"),
    ("phases", "decompose"),
    ("phases", "dynamic_phase_numeric"),
    ("phases", "dynamic_phase_analytic"),
    ("special", "rz_state"),
    ("special", "hyp2f1"),
    ("model", "coupling"),
)
# spans that also record tracemalloc peak and minor page faults
MEMORY_SPANS = {"propagator.evolve_operator", "propagator.propagate"}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)
    peak_bytes: int = 0
    minflt: int = 0
    steps: int = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []          # child time accumulated per open span

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        memory = name in MEMORY_SPANS
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            if memory:
                flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if memory:
                    stat.peak_bytes = max(stat.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    stat.minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - children
                stat.durations.append(dur)
            if name == "propagator.propagate":
                stat.steps += len(result.times) - 1
            return result

        return wrapper

    def install(self):
        """Wrap every SPANS function wherever a sechspin module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "sechspin" or n.startswith("sechspin.")]
        for mod_name, fn_name in SPANS:
            orig = getattr(sys.modules["sechspin." + mod_name], fn_name)
            wrapped = self.wrap(mod_name + "." + fn_name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
        schedule = sys.modules["sechspin.propagator"].PulseSchedule
        schedule.__init__ = self.wrap("propagator.schedule", schedule.__init__)

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round; (value, unit) by metric name."""
        s = self.stats
        per = float(rounds)

        def ms(name, attr="total"):
            return 1e3 * getattr(s[name], attr) / per

        prop = s["propagator.propagate"]
        evo = s["propagator.evolve_operator"]
        gate = s["fidelity.gate_report"]
        return {
            "cli.self_ms": (ms("cli.main", "self_time"), "ms"),
            "fidelity.gate_report.calls": (gate.calls / per, "count"),
            "fidelity.gate_report.ms_p50": (
                1e3 * statistics.median(gate.durations) if gate.durations else 0.0, "ms"),
            "fidelity.self_ms": (ms("fidelity.gate_report", "self_time"), "ms"),
            "pulsedesign.design_for_angle.ms": (ms("pulsedesign.design_for_angle"), "ms"),
            "pulsedesign.verify_cancellation.ms": (ms("pulsedesign.verify_cancellation"), "ms"),
            "propagator.schedule.calls": (s["propagator.schedule"].calls / per, "count"),
            "propagator.schedule.ms": (ms("propagator.schedule"), "ms"),
            "propagator.evolve_operator.calls": (evo.calls / per, "count"),
            "propagator.evolve_operator.ms": (ms("propagator.evolve_operator"), "ms"),
            "propagator.evolve_operator.peak_mb": (evo.peak_bytes / 2 ** 20, "MB"),
            "propagator.evolve_operator.minflt": (evo.minflt / per, "count"),
            "propagator.propagate.calls": (prop.calls / per, "count"),
            "propagator.propagate.ms": (ms("propagator.propagate"), "ms"),
            "propagator.propagate.steps": (prop.steps / per, "count"),
            "propagator.propagate.steps_per_s": (
                prop.steps / prop.total if prop.total else 0.0, "1/s"),
            "propagator.propagate.peak_mb": (prop.peak_bytes / 2 ** 20, "MB"),
            "propagator.propagate.minflt": (prop.minflt / per, "count"),
            "phases.decompose.calls": (s["phases.decompose"].calls / per, "count"),
            "phases.decompose.ms": (ms("phases.decompose"), "ms"),
            "phases.dynamic_phase_numeric.ms": (ms("phases.dynamic_phase_numeric"), "ms"),
            "phases.dynamic_phase_analytic.calls": (
                s["phases.dynamic_phase_analytic"].calls / per, "count"),
            "phases.dynamic_phase_analytic.ms": (ms("phases.dynamic_phase_analytic"), "ms"),
            "special.rz_state.calls": (s["special.rz_state"].calls / per, "count"),
            "special.rz_state.ms": (ms("special.rz_state"), "ms"),
            "special.hyp2f1.calls": (s["special.hyp2f1"].calls / per, "count"),
            "model.coupling.ms": (ms("model.coupling"), "ms"),
        }
