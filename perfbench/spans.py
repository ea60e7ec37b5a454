"""Per-module spans for the traced run, recorded without touching the program.

The program's modules bind each other's public names directly (`sessions`
does `from .states import measure`), so a function's wrapper replaces
every attribute of every package module that refers to the original, not
only the defining one. Classes are instrumented in place, their `__init__`
and public methods, so `isinstance` checks keep working. `Tracer.uninstall`
puts every original back.

Each call records a span: name, start, end (ns) and the span that was open
when it began. A module's self time is the time in which one of its spans
is the innermost open span. A few calls also feed counters through hooks
(measurement keys, state sizes, lost carriers, transcript lengths); each
hook runs inside its own `trace.hook` span, so its cost is reported as
`trace.self_s` instead of being charged to the program's modules.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "siftfree_qkd"
MODULES = ("rng", "bases", "states", "teleport", "channels", "sessions", "harness", "cli")
SESSION_RUNS = tuple(
    f"sessions.{f}" for f in ("run_two_party", "run_pre_check", "run_third_party", "run_chain")
)
HOOK_SPAN = "trace.hook"
_MARK = "_perfbench_original"


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(span_modules, starts, ends, parents, modules) -> dict[str, int]:
    """Self time in ns per module: each span's duration less its children's.

    span_modules[i] indexes `modules` (the module of span i); parents[i] is
    the index of the enclosing span or -1. Summed over modules this equals
    the total duration of the top-level spans.
    """
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, parents[nested], dur[nested])
    exclusive = dur - covered
    if (exclusive < 0).any():
        raise ValueError("a span's children outlast it: spans are not nested")
    per_module = np.zeros(len(modules), dtype=np.int64)
    np.add.at(per_module, np.asarray(span_modules, dtype=np.int64), exclusive)
    return {module: int(ns) for module, ns in zip(modules, per_module)}


def repeat_ratio(keys) -> float:
    """1 - distinct/total: the share of calls a perfect memo could answer."""
    keys = list(keys)
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the package's public callables and records one span per call."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.measure_keys: list[bytes] = []
        self.peak_amplitudes = 0
        self.lost_carriers = 0
        self.transcript_messages = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook=None):
        name_id = self._name_id(name)
        hook_id = self._name_id(HOOK_SPAN)
        starts, clock, open_, close = self.starts, time.perf_counter_ns, self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hidx = open_(hook_id)
                starts[hidx] = clock()
                try:
                    hook(args, kwargs, result)
                finally:
                    close(hidx)
            return result

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- hooks ---------------------------------------------------------------

    def _on_measure(self, args, kwargs, result):
        state = _arg(args, kwargs, 0, "state")
        targets = _arg(args, kwargs, 1, "targets")
        basis = _arg(args, kwargs, 2, "basis")
        key = hashlib.blake2b(digest_size=16)
        key.update(repr((state.labels, state.dims, tuple(targets), basis.dim)).encode())
        key.update(state.amps.tobytes())
        key.update(basis.vectors.tobytes())
        self.measure_keys.append(key.digest())

    def _on_state(self, args, kwargs, result):
        self.peak_amplitudes = max(self.peak_amplitudes, args[0].amps.size)

    def _on_channel(self, args, kwargs, result):
        self.lost_carriers += bool(result.lost)

    def _on_session(self, args, kwargs, result):
        self.transcript_messages += len(result.transcript)

    def _hook_for(self, name: str):
        if name == "states.measure":
            return self._on_measure
        if name == "states.StateVector":
            return self._on_state
        if name == "channels.apply_channel":
            return self._on_channel
        if name in SESSION_RUNS:
            return self._on_session
        return None

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _package_modules(self):
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    self._instrument_class(obj, name)
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, self._hook_for(name)))
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])

    def _instrument_class(self, cls, name: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr == "__init__":
                self._patch(cls, attr, self._wrap(value, name, self._hook_for(name)))
            elif not attr.startswith("_"):
                self._patch(cls, attr, self._wrap(value, f"{name}.{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Attributes of package modules or classes still bound to a wrapper."""
        found = []
        for mod in self._package_modules():
            for attr, value in vars(mod).items():
                if hasattr(value, _MARK):
                    found.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(value):
                    found += [
                        f"{mod.__name__}.{attr}.{a}"
                        for a, v in vars(value).items()
                        if hasattr(v, _MARK)
                    ]
        return found

    # -- results ---------------------------------------------------------------

    def _spans(self):
        """(name id, start, end, parent) arrays, copied out of the recorders."""
        return (
            np.array(self.names, dtype=np.int64),
            np.array(self.starts, dtype=np.int64),
            np.array(self.ends, dtype=np.int64),
            np.array(self.parents, dtype=np.int64),
        )

    def calls(self, name: str) -> int:
        if name not in self._name_ids:
            return 0
        return self.names.tolist().count(self._name_ids[name])

    def median_us(self, name: str) -> float:
        """Median inclusive duration of the calls of `name`, in µs (0 if none)."""
        names, starts, ends, _ = self._spans()
        mask = names == self._name_ids.get(name, -1)
        if not mask.any():
            return 0.0
        return float(np.median(ends[mask] - starts[mask])) / 1e3

    def module_self_ns(self) -> dict[str, int]:
        modules = sorted({module_of(n) for n in self.span_names} | set(MODULES))
        index = {m: i for i, m in enumerate(modules)}
        span_module = np.array([index[module_of(n)] for n in self.span_names], dtype=np.int64)
        names, starts, ends, parents = self._spans()
        return self_times(span_module[names], starts, ends, parents, modules)

    def top_level_ns(self) -> int:
        _, starts, ends, parents = self._spans()
        top = parents < 0
        return int((ends[top] - starts[top]).sum())
