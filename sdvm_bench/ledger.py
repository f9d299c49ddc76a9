"""Host-time ledger for the traced benchmark run.

The ledger wraps the public entry points of each SDVM layer from outside
the program and records one span per call: name, start, end, parent span
and the run id.  Spans stay in compact per-thread arrays while the run is
measured and are written out once it has ended.  A layer's *self* time is
the time its spans cover minus the time their child spans cover, so the
self times of all layers plus the time no span covers add up to the
traced run's host seconds.

The wrappers only observe: they call the wrapped function with the same
arguments and return its result unchanged.  Everything they patch is
restored by :meth:`Ledger.uninstall`.

Span file format (``write_spans``/``load_spans``): a gzip stream holding
one JSON header line (schema, run id, span-name table, per-thread span
counts), then for each thread its ``name`` (uint16), ``parent`` (int64,
-1 for a root span), ``start`` and ``end`` (float64, ``perf_counter``
seconds) arrays as raw machine-order bytes.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SPANS_SCHEMA = "sdvm-spans/1"

#: module prefix -> layer, most specific first; a module matching none of
#: them belongs to the ``other`` layer (program, io, security, core, ...)
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.site.message_manager", "msgmgr"),
    ("repro.site.kernel", "cpu"),
    ("repro.sim", "sim"),
    ("repro.messages", "messages"),
    ("repro.serde", "serde"),
    ("repro.net", "net"),
    ("repro.sched", "sched"),
    ("repro.cluster", "cluster"),
    ("repro.memory", "memory"),
    ("repro.code", "code"),
    ("repro.proc", "proc"),
    ("repro.crash", "crash"),
    ("repro.runtime", "runtime"),
    ("repro.trace", "trace"),
)

#: every layer the ledger attributes self time to, in report order
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) + ("other",)


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of_span(name: str) -> str:
    """Span names are ``<layer>.<entry point>``."""
    return name.split(".", 1)[0]


def _owner_module(fn: Callable[..., Any]) -> str:
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        return type(owner).__module__
    return getattr(fn, "__module__", None) or ""


class _Buffer:
    """One thread's spans; appended to only by that thread."""

    __slots__ = ("name", "parent", "start", "end", "stack", "nbytes")

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        #: name id -> bytes carried by those spans (codec output, sends)
        self.nbytes: Dict[int, int] = {}


class LayerTable:
    """Aggregated span times: per span name and per layer."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.nbytes: Dict[str, int] = {}
        #: spans never closed (a thread still inside a call at the end)
        self.open_spans = 0

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            layer = layer_of_span(name)
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def total_self(self) -> float:
        return sum(self.self_time.values())


def self_times(names: Sequence[str], name: Sequence[int],
               parent: Sequence[int], start: Sequence[float],
               end: Sequence[float], table: Optional[LayerTable] = None,
               window: Tuple[float, float] = (float("-inf"), float("inf")),
               ) -> LayerTable:
    """Fold one thread's span tree into per-name inclusive and self time.

    ``parent[i]`` is the index of span ``i``'s parent (-1 for a root) and
    always precedes ``i``.  A span's self time is its duration minus the
    durations of its direct children.  Only spans that lie inside
    ``window`` count; a span with ``end == 0`` was never closed and is
    counted in ``open_spans`` only.
    """
    table = table if table is not None else LayerTable()
    n = len(start)
    child = [0.0] * n
    lo, hi = window
    table.open_spans += sum(1 for e in end if e == 0.0)
    closed = [e > 0.0 and s >= lo and e <= hi for s, e in zip(start, end)]
    for i in range(n):
        p = parent[i]
        if p >= 0 and closed[i]:
            child[p] += end[i] - start[i]
    count, incl, self_ = table.count, table.inclusive, table.self_time
    for i in range(n):
        if not closed[i]:
            continue
        key = names[name[i]]
        duration = end[i] - start[i]
        count[key] = count.get(key, 0) + 1
        incl[key] = incl.get(key, 0.0) + duration
        self_[key] = self_.get(key, 0.0) + duration - child[i]
    return table


class Ledger:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._module_ids: Dict[Tuple[str, str], int] = {}
        #: (owner, attribute, original value) for uninstall, in patch order
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._ids[name] = nid
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def call(self, nid: int, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``names[nid]``."""
        buf = self._buffer()
        stack = buf.stack
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(stack[-1] if stack else -1)
        buf.end.append(0.0)
        stack.append(idx)
        buf.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            buf.end[idx] = time.perf_counter()
            stack.pop()

    def add_bytes(self, nid: int, nbytes: int) -> None:
        totals = self._buffer().nbytes
        totals[nid] = totals.get(nid, 0) + nbytes

    def wrap(self, name: str, fn: Callable[..., Any],
             size_arg: Optional[int] = None,
             size_result: bool = False) -> Callable[..., Any]:
        """A function that runs ``fn`` inside a ``name`` span.

        ``size_arg``/``size_result``: also add ``len()`` of that positional
        argument (or of the result) to the span name's byte total.
        """
        nid = self.name_id(name)
        call, add_bytes = self.call, self.add_bytes

        def spanned(*args: Any, **kwargs: Any) -> Any:
            if size_arg is not None:
                add_bytes(nid, len(args[size_arg]))
            result = call(nid, fn, *args, **kwargs)
            if size_result:
                add_bytes(nid, len(result))
            return result

        spanned.__ledger_span__ = name  # type: ignore[attr-defined]
        spanned.__name__ = getattr(fn, "__name__", name)
        spanned.__doc__ = getattr(fn, "__doc__", None)
        return spanned

    def callback_id(self, fn: Callable[..., Any], kind: str) -> int:
        """Span id ``<layer of fn's owner>.<kind>`` for a deferred callback."""
        module = _owner_module(fn)
        key = (module, kind)
        nid = self._module_ids.get(key)
        if nid is None:
            nid = self._module_ids[key] = self.name_id(
                f"{layer_of_module(module)}.{kind}")
        return nid

    def run_callback(self, nid: int, fn: Callable[..., Any],
                     *args: Any) -> Any:
        return self.call(nid, fn, *args)

    run_callback.__ledger_span__ = "callback"  # type: ignore[attr-defined]

    # -- patching ----------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str,
                    size_arg: Optional[int] = None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self.patch(cls, attr, classmethod(
                self.wrap(name, original.__func__, size_arg)))
        else:
            self.patch(cls, attr, self.wrap(name, original, size_arg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- read side ---------------------------------------------------------
    def buffers(self) -> List[_Buffer]:
        with self._lock:
            return list(self._buffers)

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self.buffers())

    def table(self, lo: float = float("-inf"),
              hi: float = float("inf")) -> LayerTable:
        """Fold every thread's spans that lie inside [lo, hi]."""
        table = LayerTable()
        for buf in self.buffers():
            self_times(self.names, buf.name, buf.parent, buf.start,
                       buf.end, table, (lo, hi))
            for nid, nbytes in buf.nbytes.items():
                key = self.names[nid]
                table.nbytes[key] = table.nbytes.get(key, 0) + nbytes
        return table

    def write_spans(self, path: str) -> int:
        """Write every span (format in the module docstring); returns the
        span count."""
        buffers = self.buffers()
        header = {
            "schema": SPANS_SCHEMA,
            "run_id": self.run_id,
            "byteorder": sys.byteorder,
            "names": list(self.names),
            "threads": [len(buf.start) for buf in buffers],
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"],
                       ["end", "d"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in buffers:
                for column in (buf.name, buf.parent, buf.start, buf.end):
                    fh.write(column.tobytes())
        return sum(header["threads"])


def load_spans(path: str) -> Tuple[dict, List[Dict[str, array]]]:
    """Read a span file back: (header, one column dict per thread)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != SPANS_SCHEMA:
            raise ValueError(f"{path}: not a {SPANS_SCHEMA} file")
        swap = header["byteorder"] != sys.byteorder
        threads = []
        for count in header["threads"]:
            columns = {}
            for column, code in header["arrays"]:
                data = array(code)
                data.frombytes(fh.read(count * data.itemsize))
                if swap:
                    data.byteswap()
                columns[column] = data
            threads.append(columns)
    return header, threads


def install_layer_spans(ledger: Ledger) -> None:
    """Wrap each SDVM layer's public entry points (see README.md).

    Must run before a cluster is built: sites bind the message manager's
    ``deliver_raw`` at construction.  Deferred callbacks handed to the
    simulator, to a CPU model or to a live reactor are attributed to the
    layer of the module that owns the callback.
    """
    import repro.messages.message as message_module
    from repro.memory.manager import AttractionMemory
    from repro.messages import SDMessage
    from repro.net.simnet import SimNetwork
    from repro.net.tcp import TcpTransport
    from repro.proc.sim_manager import SimProcessingManager
    from repro.runtime.live_kernel import LiveKernel
    from repro.runtime.live_proc import LiveProcessingManager
    from repro.sim.engine import Simulator
    from repro.site.kernel import CpuModel
    from repro.site.manager_base import Manager
    from repro.site.message_manager import MessageManager
    from repro.trace.tracer import Tracer
    # import every manager module so Manager.__subclasses__ is complete
    import repro.site.daemon  # noqa: F401

    ledger.wrap_method(Simulator, "run", "sim.run")
    run_callback = ledger.run_callback
    callback_id = ledger.callback_id

    def deferred(original: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(sim: Any, when: float, fn: Callable[..., Any],
                     *args: Any) -> Any:
            if hasattr(getattr(fn, "__func__", fn), "__ledger_span__"):
                return original(sim, when, fn, *args)
            return original(sim, when, run_callback,
                            callback_id(fn, "callback"), fn, *args)
        return schedule

    ledger.patch(Simulator, "schedule", deferred(Simulator.schedule))
    ledger.patch(Simulator, "schedule_at", deferred(Simulator.schedule_at))

    cpu_run = CpuModel.run
    cpu_run_nid = ledger.name_id("cpu.run")

    def cpu_model_run(cpu: Any, seconds: float,
                      fn: Optional[Callable[..., Any]], *args: Any,
                      **kwargs: Any) -> None:
        if fn is not None:
            args = (callback_id(fn, "callback"), fn) + args
            fn = run_callback
        return ledger.call(cpu_run_nid, cpu_run, cpu, seconds, fn, *args,
                           **kwargs)

    cpu_model_run.__ledger_span__ = "cpu.run"  # type: ignore[attr-defined]
    ledger.patch(CpuModel, "run", cpu_model_run)
    ledger.wrap_method(CpuModel, "charge", "cpu.charge")

    ledger.wrap_method(SDMessage, "encode", "messages.encode")
    ledger.wrap_method(SDMessage, "decode", "messages.decode")
    ledger.patch(message_module, "dumps",
                 ledger.wrap("serde.dumps", message_module.dumps,
                             size_result=True))
    ledger.patch(message_module, "loads",
                 ledger.wrap("serde.loads", message_module.loads,
                             size_arg=0))

    ledger.wrap_method(SimNetwork, "send", "net.send", size_arg=3)
    ledger.wrap_method(TcpTransport, "send", "net.send", size_arg=2)
    ledger.wrap_method(MessageManager, "send", "msgmgr.send")
    ledger.wrap_method(MessageManager, "send_physical", "msgmgr.send")
    ledger.wrap_method(MessageManager, "deliver_raw", "msgmgr.deliver_raw")

    for cls in _subclasses(Manager):
        if "handle" in cls.__dict__:
            ledger.wrap_method(
                cls, "handle", f"{layer_of_module(cls.__module__)}.handle")
    ledger.wrap_method(SimProcessingManager, "receive_work",
                       "proc.receive_work")
    ledger.wrap_method(LiveProcessingManager, "receive_work",
                       "proc.receive_work")
    for attr in ("sim_read", "sim_write", "apply_result"):
        ledger.wrap_method(AttractionMemory, attr, f"memory.{attr}")
    ledger.wrap_method(Tracer, "emit", "trace.emit")

    post = LiveKernel.post

    def reactor_post(kernel: Any, fn: Callable[..., Any],
                     *args: Any) -> None:
        return post(kernel, run_callback, callback_id(fn, "reactor"), fn,
                    *args)

    ledger.patch(LiveKernel, "post", reactor_post)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
