"""Host-time attribution per layer, from the benchmark's side of the fence.

Nothing under ``src/`` is instrumented.  Instead :func:`install` wraps
the public entry points of every ``repro`` module that belongs to a
layer: each public module-level function and each public method of a
class defined in that module, except leaves that call nothing (see
:func:`_calls_anything`).  A wrapped call opens a wall-clock span
unless the innermost open span already belongs to the same layer, in
which case it runs straight through; a layer's own internal calls
therefore cost one extra Python call and open no span.

A span's *self time* is its duration minus the durations of the spans
nested directly inside it, so the self times of all spans add up to
the time covered by the outermost spans.  Everything the benchmark
does outside any span is ``other``.

Crypto is split by primitive (``crypto.sha3``, ``crypto.sha512``,
``crypto.ed25519`` ...) so that, say, the SHA-512 inside an Ed25519
signature is timed on its own; the crypto layer is the sum of those.
"""

from __future__ import annotations

import dis
import enum
import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import time

#: Layer -> module-name prefixes; the longest matching prefix wins.
LAYER_MODULES = {
    "crypto": ("repro.crypto",),
    "hw": ("repro.hw",),
    "platforms": ("repro.platforms",),
    "sm": ("repro.sm",),
    "kernel": ("repro.kernel",),
    "sdk": ("repro.sdk",),
    "fleet": ("repro.fleet",),
    "boot": ("repro.system", "repro.sm.boot"),
}

#: Layers reported in the per-layer breakdown, in order.
LAYERS = tuple(LAYER_MODULES)

#: Functions timed under a key of their own (``layer.part``) rather than
#: as part of the module that defines them, so a caller in the same
#: layer still opens a span for them.
_OWN_KEY = {
    ("repro.crypto.ed25519", "sha512"): "crypto.sha512",
    ("repro.sm.boot", "measure_sm_image"): "boot.measure_sm_image",
}

#: Key of the spans the benchmark itself opens around each operation.
BENCH_KEY = "bench"

#: Spans kept for the Chrome trace: at most this many, nested at most
#: this deep; the rest are only counted.
KEEP_SPANS = 50_000
KEEP_DEPTH = 3


def layer_of(module_name: str) -> str | None:
    """The layer a ``repro`` module belongs to, or ``None``."""
    best, best_len = None, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if (module_name == prefix or module_name.startswith(prefix + ".")) and len(
                prefix
            ) > best_len:
                best, best_len = layer, len(prefix)
    return best


def span_key(module_name: str, func_name: str) -> str | None:
    """The pass-through key of one function: its layer, or crypto primitive."""
    own = _OWN_KEY.get((module_name, func_name))
    if own is not None:
        return own
    layer = layer_of(module_name)
    if layer != "crypto":
        return layer
    return "crypto." + module_name.rsplit(".", 1)[1]


class LayerTracer:
    """Span stack with running self-time totals per key.

    An open span is a list ``[key, child_ns, start_ns, seq, name]``.
    Totals are cumulative; callers take :meth:`totals` before and after
    a window and subtract.  While ``keeping`` is set, closed spans
    nested at most ``KEEP_DEPTH`` deep are also kept in memory, up to
    ``KEEP_SPANS`` of them, for the Chrome trace written once at the
    end; the rest are only counted.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.origin = clock()
        self.stack: list[list] = []
        #: Key -> [self ns, spans].
        self.keys: dict[str, list[int]] = {}
        #: Qualified function name -> [spans, inclusive ns].
        self.by_name: dict[str, list[int]] = {}
        #: Inclusive durations of every span of these keys.
        self.durations: dict[str, list[int]] = {"sm": []}
        #: Trace id of the spans being closed (one per benchmark operation).
        self.trace_id = "setup"
        #: Counts taken by the meters (see ``METERS``).
        self.counters = {"sha3_bytes": 0, "sm_dispatches": 0, "sm_not_ok": 0}
        self.seq = itertools.count(1)
        self.keeping = False
        #: Closed spans: (key, name, start, end, seq, parent seq, trace id).
        self.kept: list[tuple] = []
        self.dropped = 0

    def key_row(self, key: str) -> list[int]:
        return self.keys.setdefault(key, [0, 0])

    def name_row(self, name: str) -> list[int]:
        return self.by_name.setdefault(name, [0, 0])

    def keep(self, frame: list, end: int) -> None:
        if len(self.stack) <= KEEP_DEPTH and len(self.kept) < KEEP_SPANS:
            parent = self.stack[-1][3] if self.stack else None
            self.kept.append(
                (frame[0], frame[4], frame[2], end, frame[3], parent, self.trace_id)
            )
        else:
            self.dropped += 1

    # -- spans opened by the benchmark itself --------------------------------

    def begin(self, key: str, name: str, start: int) -> list:
        frame = [key, 0, start, next(self.seq), name]
        self.stack.append(frame)
        return frame

    def end(self, frame: list, end: int) -> None:
        """Close ``frame``, the innermost open span."""
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame[4]} closed out of order")
        duration = end - frame[2]
        row = self.key_row(frame[0])
        row[0] += duration - frame[1]
        row[1] += 1
        name_row = self.name_row(frame[4])
        name_row[0] += 1
        name_row[1] += duration
        if self.stack:
            self.stack[-1][1] += duration
        if self.keeping:
            self.keep(frame, end)

    # -- read-out ------------------------------------------------------------

    def span_dicts(self) -> list[dict]:
        """Kept spans in the dict form ``repro.telemetry.export`` reads.

        The exporter's timeline unit is the microsecond, so host wall
        time since the tracer's origin is given in microseconds.
        """
        origin = self.origin
        return [
            {
                "name": name,
                "category": key,
                "trace_id": trace_id,
                "span_id": seq,
                "parent_id": parent,
                "start_steps": (start - origin) / 1000,
                "start_seq": 0,
                "end_steps": (end - origin) / 1000,
                "end_seq": 0,
                "start_wall_ns": start - origin,
                "end_wall_ns": end - origin,
                "attrs": {},
            }
            for key, name, start, end, seq, parent, trace_id in self.kept
        ]

    def innermost(self) -> str | None:
        """Name of the innermost open span (for deadline reports)."""
        return self.stack[-1][4] if self.stack else None

    def totals(self) -> dict:
        """A copy of the cumulative counters, for window deltas."""
        return {
            "self_ns": {key: row[0] for key, row in self.keys.items()},
            "calls": {key: row[1] for key, row in self.keys.items()},
            "by_name": {k: list(v) for k, v in self.by_name.items()},
            "durations": {k: len(v) for k, v in self.durations.items()},
            "counters": dict(self.counters),
        }


def _wrap(tracer: LayerTracer, key: str, name: str, fn):
    """``fn`` timed as a span of ``key`` unless already inside one.

    The span bookkeeping is inlined: this runs on every entry-point
    call, and its cost is what the traced run's overhead is made of.
    """
    stack = tracer.stack
    clock = tracer.clock
    seq = tracer.seq
    key_row = tracer.key_row(key)
    name_row = tracer.name_row(name)
    durations = tracer.durations.get(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == key:
            return fn(*args, **kwargs)
        frame = [key, 0, 0, next(seq), name]
        stack.append(frame)
        frame[2] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - frame[2]
            key_row[0] += duration - frame[1]
            key_row[1] += 1
            name_row[0] += 1
            name_row[1] += duration
            if stack:
                stack[-1][1] += duration
            if durations is not None:
                durations.append(duration)
            if tracer.keeping:
                tracer.keep(frame, end)

    return wrapper


def _calls_anything(fn) -> bool:
    """True unless ``fn`` is a leaf: its body makes no call at all.

    A leaf (a register read, a range test, a set-index computation)
    cannot reach another layer and costs less than a wrapper would, so
    it is left unwrapped and its time counts where it is called from.
    """
    return any(ins.opname.startswith("CALL") for ins in dis.get_instructions(fn))


def _is_wrappable_class(cls) -> bool:
    return not issubclass(cls, (enum.Enum, BaseException))


def layer_modules() -> list:
    """Import and return every module that belongs to a layer."""
    import repro

    names = {"repro.system"}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) is not None:
            names.add(info.name)
    return [importlib.import_module(name) for name in sorted(names)]


class Installation:
    """The patches :func:`install` made, so they can be undone."""

    def __init__(self) -> None:
        #: (owner, attribute, original, replacement)
        self.patches: list[tuple[object, str, object, object]] = []

    def apply(self) -> None:
        for owner, attr, _, new in self.patches:
            setattr(owner, attr, new)

    def undo(self) -> None:
        for owner, attr, old, _ in reversed(self.patches):
            setattr(owner, attr, old)


def _meter_sha3_absorb(tracer: LayerTracer, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def absorb(self, data, *args, **kwargs):
        counters["sha3_bytes"] += len(data)
        return fn(self, data, *args, **kwargs)

    return absorb


def _meter_sm_dispatch(tracer: LayerTracer, fn):
    from repro.errors import ApiResult

    counters = tracer.counters
    ok = ApiResult.OK

    @functools.wraps(fn)
    def dispatch(*args, **kwargs):
        result = fn(*args, **kwargs)
        counters["sm_dispatches"] += 1
        code = result[0] if isinstance(result, tuple) else result
        if code is not ok:
            counters["sm_not_ok"] += 1
        return result

    return dispatch


#: Counting-only wrappers (no spans) on the single choke points of two
#: per-layer counts: bytes absorbed by SHA-3, and SM dispatch results.
METERS = (
    ("repro.crypto.sha3", "_KeccakSponge", "absorb", _meter_sha3_absorb),
    ("repro.sm.api", "SecurityMonitor", "_dispatch", _meter_sm_dispatch),
)


def install(tracer: LayerTracer, extra_namespaces=()) -> Installation:
    """Wrap every layer entry point; returns the applied installation.

    Module-level functions are also rebound in every loaded ``repro``
    module (and in ``extra_namespaces``) that imported them by name.
    """
    installation = Installation()
    for mod_name, cls_name, attr, meter in METERS:
        # Set now, so the span wrapper below wraps the meter.
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = vars(cls)[attr]
        setattr(cls, attr, meter(tracer, original))
        installation.patches.append((cls, attr, original, vars(cls)[attr]))
    replaced: dict[int, tuple] = {}
    for module in layer_modules():
        mod_name = module.__name__
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value):
                if value.__module__ == mod_name and _is_wrappable_class(value):
                    # Public methods of private classes count too: a
                    # public subclass inherits them as entry points.
                    _wrap_class(tracer, installation, value, mod_name)
            elif (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod_name
                and _calls_anything(value)
            ):
                new = _wrap(tracer, span_key(mod_name, attr), f"{mod_name}.{attr}", value)
                installation.patches.append((module, attr, value, new))
                replaced[id(value)] = (value, new)
    namespaces = [
        m for name, m in list(sys.modules.items()) if name.startswith("repro") and m
    ] + list(extra_namespaces)
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value and namespace is not inspect.getmodule(value):
                installation.patches.append((namespace, attr, value, hit[1]))
    installation.apply()
    return installation


def _wrap_class(tracer, installation, cls, mod_name) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, staticmethod):
            fn, rewrap = raw.__func__, staticmethod
        elif isinstance(raw, classmethod):
            fn, rewrap = raw.__func__, classmethod
        elif inspect.isfunction(raw):
            fn, rewrap = raw, None
        else:
            continue
        if not _calls_anything(fn):
            continue
        key = span_key(mod_name, attr)
        new = _wrap(tracer, key, f"{mod_name}.{cls.__qualname__}.{attr}", fn)
        if rewrap is not None:
            new = rewrap(new)
        installation.patches.append((cls, attr, raw, new))


def self_time_by_layer(self_ns: dict[str, int]) -> dict[str, int]:
    """Fold per-key self times into the layers (crypto primitives summed)."""
    out = {layer: 0 for layer in LAYERS}
    for key, ns in self_ns.items():
        layer = key.split(".", 1)[0]
        if layer in out:
            out[layer] += ns
    return out
