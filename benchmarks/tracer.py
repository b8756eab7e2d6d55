"""Span tracer that wraps the public functions of the lumenrem modules.

The tracer replaces module attributes, so a call is seen whenever the caller
looks the name up at call time: `evalmap.fit_model(...)` from the benchmark,
`mlp.forward(...)` inside `mlp.train`, `channel.received_power_many(...)`
inside `evalmap.simulate_map`. Names bound with `from ... import` are separate
attributes of the importing module (`cli.generate_fixed`, `evalmap.split`,
`mlp.apply_norm`, the re-exports in `lumenrem/__init__`); the tracer rebinds
every attribute of every package module that refers to a wrapped function, so
those calls are seen too. `unseen_calls()` lists what the tracer cannot see.

Spans stay in memory (`take()` hands them over and starts a new list). Each
span records its name, start and end in ns, the id of the span that was open on
the same thread when it started, and whether it raised.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass

# Layers, in the order the metrics report them.
LAYERS = ("scene", "channel", "dataset", "mlp", "forest", "evalmap", "cli")

# Methods that carry a layer's work and are looked up on the class at call time.
_METHODS = {"dataset": {"Dataset": ("save", "load")}}

# Private names wrapped as plain call counters (no span): (layer, class, attr, counter).
_COUNTERS = (("channel", "_PatchArrays", "from_room", "channel.tilings"),)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    raised: bool

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    def to_dict(self, run_id: str) -> dict:
        return {"run": run_id, "id": self.sid, "parent": self.parent, "name": self.name,
                "start_ns": self.start_ns, "end_ns": self.end_ns, "raised": self.raised}


class Tracer:
    """Installs span wrappers on the lumenrem modules; removes them on `remove()`.

    `observers` maps a span name to `fn(tracer, args, kwargs, result)`, called
    after the span has closed, to record counts taken at that boundary.
    """

    def __init__(self, package, observers=None):
        self.package = package
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.notes: dict[str, list] = {}
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._names: dict[int, str] = {}  # id(original) -> span name

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def note(self, key: str, item) -> None:
        self.notes.setdefault(key, []).append(item)

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open on the calling thread."""
        return any(n == name for _, n in self._stack())

    def take(self):
        """Hand over the spans, counts and notes recorded so far and reset them."""
        out = (self.spans, self.counts, self.notes)
        self.spans, self.counts, self.notes = [], {}, {}
        return out

    def _span_wrapper(self, name: str, fn):
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            raised = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, raised))
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, key: str, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.count(key)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _parse_counter(self, fn):
        # json.load calls json.loads; only the outermost call is one parse.
        def parse(*args, **kwargs):
            if getattr(self._local, "parsing", False):
                return fn(*args, **kwargs)
            if self.active and self.inside("evalmap.load_any_model"):
                self.count("evalmap.load_any_model.json_parses")
            self._local.parsing = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.parsing = False

        parse.__wrapped__ = fn
        return parse

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _modules(self):
        return [self.package] + [getattr(self.package, layer) for layer in LAYERS]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        pkg = self.package
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrapped[id(obj)] = self._span_wrapper(f"{layer}.{attr}", obj)
                    self._names[id(obj)] = f"{layer}.{attr}"
        # Rebind every module attribute that refers to a wrapped function,
        # including the names other modules bound with `from ... import`.
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in self._wrapped:
                    self._set(mod, attr, self._wrapped[id(obj)])
        for layer, classes in _METHODS.items():
            mod = getattr(pkg, layer)
            for cls_name, attrs in classes.items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        value = classmethod(self._span_wrapper(f"{layer}.{attr}", raw.__func__))
                    else:
                        value = self._span_wrapper(f"{layer}.{attr}", raw)
                    self._set(cls, attr, value)
        for layer, cls_name, attr, key in _COUNTERS:
            cls = getattr(getattr(pkg, layer), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._counter_wrapper(key, raw.__func__)))
            elif raw is not None:
                self._set(cls, attr, self._counter_wrapper(key, raw))
        self._set(json, "load", self._parse_counter(json.load))
        self._set(json, "loads", self._parse_counter(json.loads))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrapped.clear()
        self._names.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def unseen_calls(self) -> list[str]:
        """Calls the installed wrappers cannot see, as human-readable lines.

        Must be called while installed, so references captured before
        installation can be told apart from rebound ones.
        """
        lines = []
        originals = self._names
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                members = ()
                if isinstance(obj, dict):
                    members = obj.values()
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    members = obj
                for m in members:
                    if id(m) in originals:
                        lines.append(f"{mod.__name__}.{attr} holds {originals[id(m)]} bound "
                                     "before tracing; calls through it are not seen")
                if inspect.isfunction(obj):
                    for d in (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values()):
                        if id(d) in originals:
                            lines.append(f"{mod.__name__}.{attr} has {originals[id(d)]} as a "
                                         "default argument; calls through it are not seen")
        if not lines:
            lines.append("no module-level container or default argument holds a wrapped "
                         "function bound before tracing")
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            private = sorted(a for a, o in vars(mod).items()
                             if inspect.isfunction(o) and a.startswith("_")
                             and o.__module__ == mod.__name__)
            counted = {(cls, attr) for lay, cls, attr, _ in _COUNTERS if lay == layer}
            methods = sorted(
                f"{c}.{a}" for c, cls in vars(mod).items()
                if inspect.isclass(cls) and cls.__module__ == mod.__name__
                for a, o in vars(cls).items()
                if (inspect.isfunction(o) or isinstance(o, (classmethod, staticmethod, property)))
                and not (a.startswith("__") and a.endswith("__"))
                and a not in _METHODS.get(layer, {}).get(c, ())
                and (c, a) not in counted
            )
            if private:
                lines.append(f"{layer}: private helpers not wrapped (time counts as the "
                             f"caller's self time): {', '.join(private)}")
            if methods:
                lines.append(f"{layer}: methods not wrapped: {', '.join(methods)}")
        for layer, cls, attr, key in _COUNTERS:
            lines.append(f"{layer}: {cls}.{attr} is counted ({key}), not timed")
        lines.append("channel.received_power_many runs its chunks on a thread pool; spans "
                     "opened on a worker thread have no parent")
        return lines


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration_s
    return {s.sid: s.duration_s - child.get(s.sid, 0.0) for s in spans}


def busy_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed duration, calls), counting only spans not nested
    inside another span of the same name."""
    by_id = {s.sid: s for s in spans}
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        p = by_id.get(s.parent)
        nested = False
        while p is not None:
            if p.name == s.name:
                nested = True
                break
            p = by_id.get(p.parent)
        if not nested:
            busy, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (busy + s.duration_s, calls + 1)
    return out


def write_spans(spans: list[Span], run_id: str, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(s.to_dict(run_id)) + "\n")
