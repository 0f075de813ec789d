"""Outside-in tracing of the overfly modules.

The tracer replaces public functions with wrappers in every ``overfly``
module namespace that refers to them, and public methods on their class, so
calls between modules go through the wrappers without any change to the
program. A span wrapper records (name, start, end, parent span, job id) in
flat in-memory arrays; tiny hot functions get count-only wrappers, because a
span around each of their millions of calls would cost more than the call.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) pairs; "Class.method" patches a method on its class.
SPANNED = (
    ("overfly.cli", "main"),
    ("overfly.evolution", "run"),
    ("overfly.evolution", "fast_nondominated_sort"),
    ("overfly.evolution", "crowding_distance"),
    ("overfly.evolution", "spea2_fitness"),
    ("overfly.evolution", "combined_points"),
    ("overfly.operators", "initialize"),
    ("overfly.operators", "crossover"),
    ("overfly.operators", "mutate"),
    ("overfly.solution", "evaluate"),
    ("overfly.solution", "validate"),
    ("overfly.environment", "load_instance"),
    ("overfly.exact", "enumerate_front"),
    ("overfly.exact", "evaluate_assignment"),
    ("overfly.milp", "build_model"),
    ("overfly.milp", "render_lp"),
    ("overfly.milp", "substitute"),
    ("overfly.milp", "assignment_values"),
    ("overfly.metrics", "hypervolume_2d"),
    ("overfly.plots", "write_csv"),
)
COUNTED = (
    ("overfly.physics", "segment_energy"),
    ("overfly.physics", "average_density"),
    ("overfly.environment", "Environment.level_ok"),
    ("overfly.environment", "Environment.successors"),
    ("overfly.environment", "Environment.feasible_levels"),
    ("overfly.environment", "Environment.passable"),
)


def label(module: str, attr: str) -> str:
    """Metric prefix of a target: ``overfly.environment``, ``Environment.passable``
    -> ``environment.passable``."""
    return f"{module.removeprefix('overfly.')}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span and call-count recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.job_id = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "overfly" or n.startswith("overfly.")]
        for targets, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module, attr in targets:
                owner = sys.modules.get(module)
                name = label(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name, None)
                    original = getattr(cls, meth, None)
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._patch(cls, meth, make(original, name))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = make(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (the span
        minus the time its child spans cover)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=own, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Spans as arrays plus the name table, in one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())
