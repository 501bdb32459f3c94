"""Span recorder that wraps package functions from outside the package.

Only module-level functions are replaced, never classes: ``qcore`` checks
``isinstance(state, DensityOperator)`` against its own globals, so swapping a
class would change behaviour. Every wrapper is installed with ``setattr`` on
the defining module, which is where both the package's internal callers and
the CLI look the names up at call time.

Spans live in flat arrays while the pass runs; the per-layer aggregation and
the dump to disk happen after the timed region.
"""

from __future__ import annotations

import functools
import time
from array import array

# (module name, attribute, span name); the span name is what metrics use
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("experiment", "run", "experiment.run"),
    ("experiment", "lg_b", "experiment.lg_b"),
    ("experiment", "weak_value", "experiment.weak_value"),
    ("experiment", "theta_sweep", "experiment.theta_sweep"),
    ("experiment", "b_max", "experiment.b_max"),
    ("experiment", "violation_interval", "experiment.violation_interval"),
    ("experiment", "_probability_matrix", "experiment.engine"),
    ("qcore", "ket_signal", "qcore.ket_signal"),
    ("qcore", "from_knowledge", "qcore.from_knowledge"),
    ("qcore", "meter_ket", "qcore.meter_ket"),
    ("qcore", "tensor", "qcore.tensor"),
    ("qcore", "apply_cz", "qcore.apply_cz"),
    ("qcore", "measure_joint", "qcore.measure_joint"),
    ("optics", "effective_map", "optics.effective_map"),
    ("optics", "process_fidelity_to_cz", "optics.process_fidelity_to_cz"),
    ("optics", "fit_visibility", "optics.fit_visibility"),
    ("stats", "run_trials", "stats.run_trials"),
    ("stats", "sample_counts", "stats.sample_counts"),
    ("stats", "estimate_lg", "stats.estimate_lg"),
    ("stats", "estimate_weak_value", "stats.estimate_weak_value"),
    ("stats", "significance", "stats.significance"),
)

QCORE_SPANS = tuple(name for _, _, name in WRAPPED if name.startswith("qcore."))


class Tracer:
    """In-memory span store: name, start, end, parent, invocation id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.invocation = array("l")
        self.size = array("l")      # angles per engine call, 0 elsewhere
        self.raised = array("b")
        self.current_invocation = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, span_name: str):
        name_id = self.name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        sized = span_name == "experiment.engine"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(self.current_invocation)
            self.size.append(len(args[0]) if sized else 0)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[index] = 1
                raise
            finally:
                self.end[index] = clock()
                stack.pop()

        return wrapper

    def dump(self, path: str) -> None:
        """Write the spans as one compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            invocation=np.array(self.invocation, dtype=np.int64),
            raised=np.array(self.raised, dtype=np.int8),
        )

    def layer_metrics(self, speed: float = 1.0) -> dict[str, float]:
        """Counts, busy (inclusive) and self time per span name, plus ratios.

        Times are multiplied by ``speed``, the pass's speed correction.
        """
        import numpy as np

        n = len(self.start)
        name = np.array(self.name, dtype=np.int64)
        dur = (np.array(self.end) - np.array(self.start)) * speed
        parent = np.array(self.parent, dtype=np.int64)
        nested = parent >= 0
        # calls run one after another, so children never overlap in time
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child_s

        def ids(span_name: str) -> np.ndarray:
            return np.flatnonzero(name == self.name_ids[span_name])

        def calls(span_name: str) -> int:
            return int(ids(span_name).size)

        def busy_ms(span_name: str) -> float:
            return float(dur[ids(span_name)].sum() * 1e3)

        def own_ms(span_name: str) -> float:
            return float(self_s[ids(span_name)].sum() * 1e3)

        def nearest(span_ids: np.ndarray, ancestors: tuple[str, ...]) -> list[int]:
            # name id of the closest enclosing span among `ancestors`, or -1
            wanted = {self.name_ids[a] for a in ancestors}
            found = []
            for i in span_ids:
                p = parent[i]
                while p >= 0 and name[p] not in wanted:
                    p = parent[p]
                found.append(int(name[p]) if p >= 0 else -1)
            return found

        def per_call(child: str, owner: str, ancestors: tuple[str, ...]) -> float:
            owners = calls(owner)
            if owners == 0:
                return 0.0
            hits = nearest(ids(child), ancestors).count(self.name_ids[owner])
            return hits / owners

        solvers = ("experiment.b_max", "experiment.violation_interval")
        engine = ids("experiment.engine")
        qcore_ids = np.flatnonzero(np.isin(name, [self.name_ids[s] for s in QCORE_SPANS]))
        raised = np.array(self.raised, dtype=np.int64)
        metrics = {
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_ms": own_ms("cli.main"),
            "experiment.run.calls": calls("experiment.run"),
            "experiment.run.busy_ms": busy_ms("experiment.run"),
            "experiment.lg_b.calls": calls("experiment.lg_b"),
            "experiment.lg_b.self_ms": own_ms("experiment.lg_b"),
            "experiment.weak_value.calls": calls("experiment.weak_value"),
            "experiment.weak_value.self_ms": own_ms("experiment.weak_value"),
            "experiment.theta_sweep.calls": calls("experiment.theta_sweep"),
            "experiment.theta_sweep.busy_ms": busy_ms("experiment.theta_sweep"),
            "experiment.engine.calls": int(engine.size),
            "experiment.engine.angles": int(np.array(self.size, dtype=np.int64)[engine].sum()),
            "experiment.engine.busy_ms": busy_ms("experiment.engine"),
            "experiment.b_max.calls": calls("experiment.b_max"),
            "experiment.b_max.busy_ms": busy_ms("experiment.b_max"),
            "experiment.b_max.engine_calls_per_call": per_call(
                "experiment.engine", "experiment.b_max", solvers),
            "experiment.violation_interval.calls": calls("experiment.violation_interval"),
            "experiment.violation_interval.busy_ms": busy_ms("experiment.violation_interval"),
            "experiment.violation_interval.engine_calls_per_call": per_call(
                "experiment.engine", "experiment.violation_interval", solvers),
            "experiment.violation_interval.raised": int(raised[ids("experiment.violation_interval")].sum()),
            "qcore.calls": int(qcore_ids.size),
            "qcore.busy_ms": float(dur[qcore_ids].sum() * 1e3),
            "qcore.measure_joint.calls": calls("qcore.measure_joint"),
            "optics.effective_map.calls": calls("optics.effective_map"),
            "optics.effective_map.busy_ms": busy_ms("optics.effective_map"),
            "optics.process_fidelity_to_cz.calls": calls("optics.process_fidelity_to_cz"),
            "optics.process_fidelity_to_cz.busy_ms": busy_ms("optics.process_fidelity_to_cz"),
            "optics.fit_visibility.calls": calls("optics.fit_visibility"),
            "optics.fit_visibility.busy_ms": busy_ms("optics.fit_visibility"),
            "optics.fit_visibility.b_max_calls_per_fit": per_call(
                "experiment.b_max", "optics.fit_visibility", ("optics.fit_visibility",)),
            "stats.run_trials.calls": calls("stats.run_trials"),
            "stats.run_trials.self_ms": own_ms("stats.run_trials"),
            "stats.sample_counts.calls": calls("stats.sample_counts"),
            "stats.sample_counts.busy_ms": busy_ms("stats.sample_counts"),
            "stats.estimate_lg.busy_ms": busy_ms("stats.estimate_lg"),
            "stats.estimate_weak_value.busy_ms": busy_ms("stats.estimate_weak_value"),
            "stats.significance.calls": calls("stats.significance"),
            "trace.spans": n,
        }
        return metrics
