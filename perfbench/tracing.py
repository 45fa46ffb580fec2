"""Spans around the public function at each ssar module boundary.

Several modules hold their own ``from .x import f`` copy of a function, and
``core.reduced_rank`` calls ``core``'s own binding of ``thin_svd``.  So
:meth:`Tracer.install` rebinds every module-level name in the ``ssar``
package that refers to the original function: a call through any binding is
seen once, and none is wrapped twice.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) of every traced layer, named "<module>.<function>".
LAYERS = (
    ("dataio", "load_dataset"),
    ("core", "thin_svd"),
    ("core", "reduced_rank"),
    ("asura", "asura_sample"),
    ("regression", "solve_active"),
    ("regression", "weighted_lsq"),
    ("regression", "exact_solution"),
    ("verify", "run_sampler_batch"),
    ("verify", "check_hard_lemmas"),
)
ROOT = "cli.main"


class Tracer:
    """Records (call id, span id, parent id, name, start, end) per traced call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.call_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.call_id, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ssar" and not mod_name.startswith("ssar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` and count ``LabelOracle.label`` calls.

        A layer the program no longer has is skipped and reads zero calls.
        """
        for mod_name, attr in LAYERS:
            original = getattr(sys.modules.get(f"ssar.{mod_name}"), attr, None)
            if original is None:
                continue
            on_result = self._count_iterations if attr == "asura_sample" else None
            self._rebind(original, self._wrap(f"{mod_name}.{attr}", original, on_result))

        oracle = getattr(sys.modules.get("ssar.regression"), "LabelOracle", None)
        label = getattr(oracle, "label", None)
        if label is None:
            return

        @functools.wraps(label)
        def counted_label(obj, index):
            self.counts["regression.label.calls"] += 1
            return label(obj, index)

        oracle.label = counted_label
        self._patches.append((oracle, "label", label))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_iterations(self, result) -> None:
        """Add the run's iteration count ``m`` from the returned ``(sample, trace)``."""
        self.counts["asura.iterations"] += result[1].m

    def call(self, main, argv):
        """Run ``main(argv)`` as the root span of a new traced call."""
        self.call_id += 1
        return self._wrap(ROOT, main)(argv)

    def self_times(self) -> dict:
        """Per-name (calls, self seconds): duration minus the time children cover."""
        child_time = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for _, span_id, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
        return {name: (calls[name], self_s[name]) for name in calls}

    def root_wall(self) -> float:
        return sum(end - start for *_, name, start, end in self.spans if name == ROOT)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for call_id, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"call": call_id, "id": span_id, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
