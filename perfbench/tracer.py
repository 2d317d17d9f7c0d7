"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function of the given modules by a
wrapper that counts calls and accumulates self time (time in the function
minus time in wrapped callees).  Hot leaves such as ``nf_mul`` run about a
million times per verify pass, so calls are aggregated per function; spans
are kept only for the benchmark's own operations, each with the per-layer
calls and self time below it.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # "layer.function" -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.spans: list[dict] = []
        self._child_time = [0.0]
        self._restore: list[tuple] = []

    def install(self, modules, package: str) -> None:
        """Wrap every public function defined in ``modules``.

        A function bound elsewhere with ``from .x import f`` is a separate
        name in the importing module; every loaded module of ``package`` is
        searched so that those call sites see the wrapper too.
        """
        namespaces = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - child_time.pop()
                stat[2] += elapsed
                child_time[-1] += elapsed

        return wrapper

    def by_layer(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for key, (calls, self_s, _) in self.stats.items():
            acc = out.setdefault(key.split(".", 1)[0], [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return out

    @contextmanager
    def span(self, name: str, span_id: str):
        """One span for a benchmark operation, with the layer work below it."""
        before = self.by_layer()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            after = self.by_layer()
            layers = {
                layer: {"calls": calls - before.get(layer, (0, 0.0))[0],
                        "self_s": self_s - before.get(layer, (0, 0.0))[1]}
                for layer, (calls, self_s) in after.items()
                if calls != before.get(layer, (0, 0.0))[0]
            }
            self.spans.append({"name": name, "id": span_id, "start": start, "end": end, "layers": layers})

    def self_time_total(self) -> float:
        return sum(self_s for _, self_s, _ in self.stats.values())

    def dump(self, path, **summary) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**summary, "stats": self.stats, "spans": self.spans}
        path.write_text(json.dumps(payload))
