"""Outside-in tracing for the benchmark's traced runs.

The tracer wraps public functions of each SPATE layer from the
benchmark's side; nothing inside ``repro`` knows it exists.  Each
synchronous wrapper pushes a frame on a per-thread stack, so a span's
*self* time is its wall time minus the time its traced children took on
the same thread.  Summed self time can therefore never exceed wall time
times the number of threads that ran traced code, even when the thread
executor overlaps several decodes (inclusive time would).

Patching replaces a function at every place it is looked up: the class
that defines a method, and every loaded ``repro`` module namespace that
holds the function object itself (names bound by ``from ... import``).
:meth:`Tracer.uninstall` puts each original object back and
:meth:`Tracer.verify_clean` proves no wrapper is left reachable.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Marker attribute carried by every wrapper this module creates.
WRAPPER_MARK = "__perfbench_wrapped__"


class Tracer:
    """Per-thread self-time spans plus counters, keyed by layer name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Region groups the current closed-loop query sent RPCs to; the
        #: closed loop sets a fresh set before each query (None = not tracked).
        self.query_groups: set | None = None
        self.reset()

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded value (patches stay installed)."""
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.self_s: dict[str, float] = defaultdict(float)
            self.total_s: dict[str, float] = defaultdict(float)
            self.counts: dict[str, float] = defaultdict(float)
            self.samples: dict[str, list[float]] = defaultdict(list)
            self.threads: set[int] = set()
            self.wrapper_calls = 0

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Record one observation of a distribution (thread-safe)."""
        with self._lock:
            self.samples[name].append(value)

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _depths(self) -> dict[str, int]:
        depths = getattr(self._tls, "depths", None)
        if depths is None:
            depths = self._tls.depths = defaultdict(int)
        return depths

    def wrap(self, key: str, fn, after=None):
        """A wrapper timing ``fn`` as span ``key``.

        ``after(tracer, args, kwargs, result, outermost)`` runs once the
        call returned; ``outermost`` is False when the call is nested in
        another span of the same key (a codec calling a codec), so byte
        counters are not counted twice.
        """
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(key, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            depths = self._depths()
            outermost = depths[key] == 0
            depths[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depths[key] -= 1
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.wrapper_calls += 1
                    self.threads.add(threading.get_ident())
                    self.self_s[key] += elapsed - frame[0]
                    if outermost:
                        self.calls[key] += 1
                        self.total_s[key] += elapsed
            if after is not None:
                after(self, args, kwargs, result, outermost)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _wrap_async(self, key: str, fn, after):
        """Coroutines interleave on the loop thread, so they record wall
        time only and stay off the self-time stack."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = await fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            with self._lock:
                self.wrapper_calls += 1
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.samples[key].append(elapsed)
            if after is not None:
                after(self, args, kwargs, result, True)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch_function(self, module, name: str, key: str, after=None) -> None:
        """Wrap a module-level function everywhere it is bound."""
        original = getattr(module, name)
        wrapper = self.wrap(key, original, after)
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper, original, True)

    def patch_method(self, cls, name: str, key: str, after=None) -> None:
        """Wrap a method on the class whose ``__dict__`` defines it."""
        original = cls.__dict__[name]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__qualname__}.{name} is not a plain function")
        self._set(cls, name, self.wrap(key, original, after), original, True)

    def add_attribute(self, owner, name: str, value) -> None:
        """Attach a new attribute, removed again by :meth:`uninstall`."""
        if name in vars(owner):
            raise ValueError(f"{owner!r} already has {name!r}")
        self._set(owner, name, value, None, False)

    def _set(self, owner, name, value, original, existed: bool) -> None:
        setattr(owner, name, value)
        self._patches.append((owner, name, original, existed))

    def uninstall(self) -> None:
        """Restore every patched name, newest patch first."""
        while self._patches:
            owner, name, original, existed = self._patches.pop()
            if existed:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def verify_clean(self) -> list[str]:
        """Names in loaded ``repro`` modules (or their classes) that
        still resolve to a tracing wrapper; empty when fully removed."""
        leftovers = []
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if getattr(value, WRAPPER_MARK, False) is True:
                    leftovers.append(f"{module.__name__}.{attr}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for member, inner in vars(value).items():
                        if getattr(inner, WRAPPER_MARK, False) is True or member.startswith(
                            "perfbench_"
                        ):
                            leftovers.append(
                                f"{module.__name__}.{value.__qualname__}.{member}"
                            )
        return leftovers

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        """Plain-data copy of every recorded value (crosses the shard
        wire from worker processes)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "threads": len(self.threads),
                "wrapper_calls": self.wrapper_calls,
            }


def diff_exports(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Tracer.export` snapshots."""
    out: dict = {}
    for section in ("calls", "self_s", "total_s", "counts"):
        keys = set(after[section]) | set(before[section])
        out[section] = {
            k: after[section].get(k, 0) - before[section].get(k, 0) for k in keys
        }
    out["samples"] = {
        k: v[len(before["samples"].get(k, [])):] for k, v in after["samples"].items()
    }
    out["threads"] = after["threads"]
    out["wrapper_calls"] = after["wrapper_calls"] - before["wrapper_calls"]
    return out


def merge_exports(parts: list[dict]) -> dict:
    """Sum several exports (coordinator plus worker processes)."""
    out: dict = {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "total_s": defaultdict(float),
        "counts": defaultdict(float),
        "samples": defaultdict(list),
        "threads": 0,
        "wrapper_calls": 0,
    }
    for part in parts:
        for section in ("calls", "self_s", "total_s", "counts"):
            for k, v in part[section].items():
                out[section][k] += v
        for k, v in part["samples"].items():
            out["samples"][k].extend(v)
        out["threads"] += part["threads"]
        out["wrapper_calls"] += part["wrapper_calls"]
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# ----------------------------------------------------------------------
# The layer map: which public functions make up each layer
# ----------------------------------------------------------------------


def _codec_bytes(direction: str):
    def after(tracer, args, kwargs, result, outermost):
        if outermost:
            data = args[1] if len(args) > 1 else kwargs.get("data", b"")
            tracer.add(f"compression.{direction}_bytes_in", len(data))
            tracer.add(f"compression.{direction}_bytes_out", len(result))

    return after


def _dfs_io(direction: str):
    def after(tracer, args, kwargs, result, outermost):
        if not outermost:
            return
        if direction == "write":
            data = args[2] if len(args) > 2 else kwargs["data"]
            tracer.add("dfs.bytes_written", len(data))
        else:
            tracer.add("dfs.bytes_read", len(result))

    return after


def _modeled_io(tracer: Tracer, fn):
    """Charge the DFS's modeled I/O seconds accrued inside one call."""

    @functools.wraps(fn)
    def wrapper(dfs, *args, **kwargs):
        before = dfs.modeled_io_seconds
        try:
            return fn(dfs, *args, **kwargs)
        finally:
            tracer.add("dfs.modeled_io_s", dfs.modeled_io_seconds - before)

    return wrapper


def _decoded_leaf(tracer, args, kwargs, result, outermost):
    if not outermost:
        return
    tracer.add("leafscan.leaves_decoded")
    if len(result) == 3:  # (table, payload bytes, channel stats)
        rows = len(result[0].rows)
    else:  # (names, per-column cells, payload bytes, channel stats)
        rows = len(result[1][0]) if result[1] else 0
    if rows:
        tracer.add("leafscan.leaves_useful")


def _cache_get(tracer, args, kwargs, result, outermost):
    tracer.add("leaf_cache.hits" if result is not None else "leaf_cache.misses")


def _cache_put(tracer, args, kwargs, result, outermost):
    tracer.add("leaf_cache.evictions", result)


def _cache_invalidate(tracer, args, kwargs, result, outermost):
    tracer.add("leaf_cache.invalidations", result)


def _decay_run(tracer, args, kwargs, result, outermost):
    tracer.add("index.leaves_evicted", result.leaves_evicted)


def _sql_execute(tracer, args, kwargs, result, outermost):
    if not outermost:
        return
    database = args[0]
    tracer.add("sql.statements")
    tracer.add("sql.rows_returned", len(result.rows))
    if database.last_execution.get("engine") == "row":
        tracer.add("sql.row_engine_statements")


def _scan_rows(kind: str):
    def after(tracer, args, kwargs, result, outermost):
        if not outermost:
            return
        columns, data = result
        if kind == "rows":
            tracer.add("sql.rows_scanned", len(data))
        else:
            tracer.add("sql.rows_scanned", len(data[0]) if data else 0)

    return after


def _rpc_call(tracer, args, kwargs, result, outermost):
    if outermost:
        tracer.add("shard.rpc_calls")
        group = args[3] if len(args) > 3 else None
        if isinstance(group, int) and tracer.query_groups is not None:
            tracer.query_groups.add(group)


def _wire_bytes(direction: str):
    def after(tracer, args, kwargs, result, outermost):
        if outermost:
            payload = result if direction == "dumps" else args[0]
            tracer.add("shard.wire_bytes", len(payload))

    return after


def _rwlock_hooks(tracer: Tracer, cls) -> None:
    """Read wait, write wait and write hold, counted at the outermost
    acquire of each thread (the lock is reentrant)."""
    tls = threading.local()

    def depth(kind):
        return getattr(tls, kind, 0)

    acquire_read = cls.__dict__["acquire_read"]
    release_read = cls.__dict__["release_read"]
    acquire_write = cls.__dict__["acquire_write"]
    release_write = cls.__dict__["release_write"]

    def wrapped_acquire_read(lock):
        outer = depth("read") == 0
        start = time.perf_counter()
        acquire_read(lock)
        if outer:
            tracer.sample("rwlock.read_wait", time.perf_counter() - start)
        tls.read = depth("read") + 1

    def wrapped_release_read(lock):
        release_read(lock)
        tls.read = depth("read") - 1

    def wrapped_acquire_write(lock):
        outer = depth("write") == 0
        start = time.perf_counter()
        acquire_write(lock)
        if outer:
            now = time.perf_counter()
            tracer.sample("rwlock.write_wait", now - start)
            tls.write_since = now
        tls.write = depth("write") + 1

    def wrapped_release_write(lock):
        release_write(lock)
        tls.write = depth("write") - 1
        if tls.write == 0:
            tracer.sample("rwlock.write_hold", time.perf_counter() - tls.write_since)

    for name, fn in (
        ("acquire_read", wrapped_acquire_read),
        ("release_read", wrapped_release_read),
        ("acquire_write", wrapped_acquire_write),
        ("release_write", wrapped_release_write),
    ):
        functools.update_wrapper(fn, cls.__dict__[name])
        setattr(fn, WRAPPER_MARK, True)
        tracer._set(cls, name, fn, cls.__dict__[name], True)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every benchmarked layer."""
    from repro.compression import typedchannel
    from repro.compression.base import REGISTRY
    from repro.core import layout
    from repro.core.leaf_cache import LeafCache
    from repro.core.rwlock import ReadWriteLock
    from repro.core.spate import Spate
    from repro.dfs.filesystem import SimulatedDFS
    from repro.index.decay import DecayModule
    from repro.index.incremence import IncremenceModule
    from repro.query import leafscan
    from repro.query.explore import ExplorationEngine
    from repro.query.sql import parser
    from repro.query.sql.executor import Database
    from repro.server.admission import AdmissionController
    from repro.shard import wire
    from repro.shard.coordinator import ShardedSpate
    from repro.shard.rpc import ShardClient

    for codec_cls in sorted(set(REGISTRY.values()), key=lambda c: c.name):
        tracer.patch_method(codec_cls, "compress", "compression.encode", _codec_bytes("encode"))
        tracer.patch_method(
            codec_cls, "decompress", "compression.decode", _codec_bytes("decode")
        )
    for name in ("decode_columns", "decode_table"):
        tracer.patch_function(typedchannel, name, "compression.channel_decode")
    tracer.patch_function(layout, "serialize_table", "layout.serialize")
    for name in ("deserialize_table", "deserialize_table_columns"):
        tracer.patch_function(layout, name, "layout.deserialize")
    tracer.patch_method(IncremenceModule, "ingest", "index.ingest")
    tracer.patch_method(DecayModule, "run", "index.decay", _decay_run)

    for name, direction in (("write_file", "write"), ("read_file", "read")):
        original = SimulatedDFS.__dict__[name]
        wrapped = tracer.wrap(
            f"dfs.{direction}", _modeled_io(tracer, original), _dfs_io(direction)
        )
        tracer._set(SimulatedDFS, name, wrapped, original, True)

    for name in ("decode_leaf_task", "decode_leaf_columns_task"):
        tracer.patch_function(leafscan, name, "leafscan.decode", _decoded_leaf)
    tracer.patch_method(LeafCache, "get", "leaf_cache.get", _cache_get)
    tracer.patch_method(LeafCache, "put", "leaf_cache.put", _cache_put)
    tracer.patch_method(LeafCache, "invalidate_epoch", "leaf_cache.invalidate", _cache_invalidate)

    tracer.patch_function(parser, "parse_sql", "sql.parse")
    tracer.patch_method(Database, "execute", "sql.execute", _sql_execute)
    for warehouse_cls in (Spate, ShardedSpate):
        tracer.patch_method(warehouse_cls, "read_rows", "sql.scan", _scan_rows("rows"))
        tracer.patch_method(warehouse_cls, "read_columns", "sql.scan", _scan_rows("columns"))
    tracer.patch_method(ExplorationEngine, "evaluate", "explore.evaluate")

    tracer.patch_method(ShardClient, "call", "shard.rpc", _rpc_call)
    tracer.patch_function(wire, "dumps", "shard.wire", _wire_bytes("dumps"))
    tracer.patch_function(wire, "loads", "shard.wire", _wire_bytes("loads"))

    tracer.patch_method(AdmissionController, "admit", "admission.admit")
    _rwlock_hooks(tracer, ReadWriteLock)
