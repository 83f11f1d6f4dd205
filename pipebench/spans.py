"""In-memory span recorder for the traced benchmark run.

The recorder replaces the public functions of the patchflow modules with
wrappers at every module binding the program calls through (``core.encode``
is bound in ``core`` and again in ``inference``; ``cli.COMMANDS`` holds the
command functions), so intra-module calls are recorded too.  A span is
(name, start, end, parent, units); spans are kept in memory and written when
the run ends.

A layer is a module.  The layer time of a span is its duration minus the
part covered by descendant spans of *other* modules; nested spans of the same
module count as part of the layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# modules whose public functions are wrapped, in the order the layers are listed
LAYERS = ("datagen", "core", "training", "inference", "gabor", "evalviz", "cli")

# work units of one call, where a call handles several items
UNITS = {
    "datagen.dataset_write": lambda args, kwargs, result: len(args[0]),
    "datagen.dataset_read": lambda args, kwargs, result: len(result),
    "inference.animate": lambda args, kwargs, result: len(result),
    "inference.interpolate_frames": lambda args, kwargs, result: len(result[0]),
}


class SpanRecorder:
    """Records nested spans; single-threaded (the benchmark pins --threads 1)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, units=None):
        """Return ``fn`` wrapped so that each call records one span."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.units.append(1)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    rec.units[idx] = units(args, kwargs, result)
                return result
            finally:
                rec.ends[idx] = time.perf_counter()
                rec._stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules at every binding."""
        modules = [getattr(package, name) for name in LAYERS]
        owners = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = self.span(name, fn, UNITS.get(name))
            return wrappers[id(fn)]

        def traceable(attr, value):
            return (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and not value.__name__.startswith("_")
                and value.__module__ in owners
            )

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if traceable(attr, value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped(value))
                elif isinstance(value, dict) and not attr.startswith("_"):
                    for key, item in list(value.items()):
                        if isinstance(key, str) and traceable(key, item):
                            self._patched.append((value, key, item))
                            value[key] = wrapped(item)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def layer_times(self) -> list[float]:
        """Per-span layer time in seconds (see module docstring)."""
        n = len(self.names)
        layer = [name.split(".", 1)[0] for name in self.names]
        covered = [0.0] * n
        own = [0.0] * n
        # children are recorded after their parent, so a reverse pass sees them first
        for i in range(n - 1, -1, -1):
            dur = self.ends[i] - self.starts[i]
            own[i] = dur - covered[i]
            p = self.parents[i]
            if p >= 0:
                covered[p] += dur if layer[i] != layer[p] else dur - own[i]
        return own

    def aggregate(self, names) -> tuple[float, int, int]:
        """(layer seconds, calls, units) over the outermost spans named in ``names``."""
        names = set(names)
        own = self.layer_times()
        seconds, calls, units = 0.0, 0, 0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p >= 0:
                continue
            seconds += own[i]
            calls += 1
            units += self.units[i]
        return seconds, calls, units

    def write(self, path) -> None:
        """One JSON line per span: name, start and end (s from the first span), parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": round(self.starts[i] - t0, 9),
                            "end": round(self.ends[i] - t0, 9),
                            "parent": self.parents[i],
                            "units": self.units[i],
                        }
                    )
                    + "\n"
                )
