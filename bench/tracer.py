"""Per-layer call counts and self time, patched into the program from outside.

Every public function and method of each layer module (plus class
constructors) is replaced by a wrapper that counts the call and times it.  A
layer's self time is the time its spans cover minus the part covered by the
spans they caused, so time spent in a callee is charged to the callee's layer.
Counts and times are kept in memory; the caller reads them after the run.

A timed wrapper costs several times more than a field addition or
multiplication, and the repair workload makes millions of those.  So
`FieldContext.mul` and `add` are counted but not timed: their time
is charged to the span that called them.

Forked search workers do not inherit a way back to these counters, so traced
runs must be serial.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import re
import time

LAYERS = ("fieldmath", "linalg", "rs", "qpoly", "construction", "scheme", "search", "cli")
# Hot two-argument FieldContext methods.
COUNTED_ONLY = frozenset({"fieldmath.mul", "fieldmath.add"})


class Tracer:
    """Context manager: patches the layers of `package` on entry, restores on exit."""

    def __init__(self, package):
        self.package = package
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack = [0]  # per open span: time covered by its children
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        calls[key] = 0
        clock = time.perf_counter_ns

        if key in COUNTED_ONLY:

            @functools.wraps(fn)
            def counted(ctx, a, b):  # a fixed signature is much cheaper than *args
                calls[key] += 1
                return fn(ctx, a, b)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[layer] += dt - stack.pop()
                stack[-1] += dt

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        pkg = self.package
        modules = [importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS]
        namespaces = modules + [pkg]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    # `from .x import f` copies the reference: patch every copy
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch_class(obj, layer)
        return self

    def _patch_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{layer}.{cls.__name__ if attr == '__init__' else attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(member.__func__, layer, key)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, layer, key))

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def self_seconds(self, layer: str) -> float:
        return self.self_ns[layer] / 1e9


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S.*)$")


def import_self_seconds(stderr: str, package: str) -> dict[str, float]:
    """Per-layer import self time from the stderr of `python -X importtime`."""
    out = {layer: 0.0 for layer in LAYERS}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            name = m.group(2).strip()
            prefix, _, layer = name.rpartition(".")
            if prefix == package and layer in out:
                out[layer] += int(m.group(1)) / 1e6
    return out
