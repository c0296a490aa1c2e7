"""The three benchmark workloads: ``store``, ``cluster`` and ``serve_live``.

Every workload builds its inputs from the seed in setup, times its
phases by wall clock from outside the program, digests every answer and
checks the digests against an independently built reference warehouse
after the timed phases.  ``IngestStats.seconds`` is never used: it adds
the DFS's *modeled* I/O to wall time; modeled I/O is reported only as
the per-layer ``dfs.modeled_io_s``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from perfbench import common, tracing
from perfbench.common import EPOCHS, Query, median, percentile

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_TRIALS = 3

#: A closed-loop query phase runs at least ``--seconds``, at least this
#: many queries (so p90 has at least 10 samples above it) and a whole
#: number of passes over the list (so every entry weighs the same).
MIN_QUERY_SAMPLES = 110

#: Ingest passes per run.  The first fills the warehouse the queries
#: read; ``store``'s others go into throwaway warehouses and are spread
#: through the query phase, one after each stretch of query passes as
#: long as an ingest pass, so a slow spell of the host lands on a few
#: passes of either kind instead of on one whole phase.  Every per-epoch
#: and per-query figure is a median over its passes.  ``cluster``'s one
#: pass takes ~25 s, so it runs once.
INGEST_PASSES = {"store": 4, "cluster": 1}

#: ``query_slo_share`` latency limits (a miss also counts every failed,
#: refused, shed or partial answer).
SLO_MS = {"store": 100.0, "cluster": 450.0, "serve_live": 50.0}

# serve_live shape: keep 64 epochs of leaves, preload them, then stream
# one epoch every LIVE_PACE_S while queries arrive at LIVE_RATE_QPS
# (100 epochs and 160 queries in 20 s, so both p90s have 10+ samples
# above them).  The load stays light on purpose: queueing multiplies any
# slow spell of a shared host into the latency tail; 12 and 16 q/s were
# tried and their extra samples did not make the p90s steadier from run
# to run.  The store decodes
# and compresses on the calling thread (serial executor): concurrency
# comes from the reader pool and the ingest thread, and a second thread
# pool per read only added GIL hand-offs that doubled the spread of both
# p90s without serving more queries.
LIVE_KEEP_EPOCHS = 64
LIVE_PACE_S = 0.2
LIVE_RATE_QPS = 8.0
LIVE_DASHBOARD_EPOCHS = 12
LIVE_ANALYST_SHARE = 0.2
#: Dashboard boxes span half the area's width and height (a quarter of
#: its surface).  Smaller boxes often hold no cell at all and answer in
#: well under a millisecond, and how many do depends on the seed's cell
#: layout; that share of near-empty answers moved the latency p50.
LIVE_BOX_SHARE = 0.5
#: About a quarter of the kept decoded history (measured at run time
#: and recorded next to this capacity).
LIVE_LEAF_CACHE_BYTES = 96 * 1024


@dataclass
class Outcome:
    """Everything one workload run produced."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases.values())


def _failure_reason(exc: BaseException) -> str:
    return type(exc).__name__


# ----------------------------------------------------------------------
# store / cluster: fixed trace, closed-loop query list
# ----------------------------------------------------------------------


def store_config():
    from repro.core import SpateConfig

    return SpateConfig()


def cluster_config():
    from repro.core import SpateConfig
    from repro.core.config import ShardConfig

    return SpateConfig(
        sharding=ShardConfig(
            shards=3, transport="socket", region_layout=2, group_replication=2
        )
    )


def _make_warehouse(name: str):
    if name == "cluster":
        from repro.shard import ShardedSpate

        return ShardedSpate(cluster_config())
    from repro.core import Spate

    return Spate(store_config())


def _close(warehouse) -> None:
    close = getattr(warehouse, "close", None)
    if close is not None:
        close()


def _generate(seed: int, epochs: int, days: int):
    from repro.telco import TelcoTraceGenerator, TraceConfig

    generator = TelcoTraceGenerator(
        TraceConfig(scale=common.SCALE, days=days, seed=seed)
    )
    return generator.cells_table(), [generator.snapshot(e) for e in range(epochs)]


def _area(warehouse):
    from repro.spatial.geometry import BoundingBox

    return BoundingBox.from_points(list(warehouse.cell_locations.values()))


def _setup_closed_loop(name: str, seed: int, live: list):
    """Generate the trace and build the warehouse, SETUP_TRIALS times;
    returns the last trial's products and every trial's wall time.
    Warehouses are appended to ``live`` so the caller closes them."""
    times = []
    for trial in range(SETUP_TRIALS):
        start = time.perf_counter()
        cells, snapshots = _generate(seed, EPOCHS, common.DAYS)
        warehouse = _make_warehouse(name)
        live.append(warehouse)
        warehouse.register_cells(cells)
        times.append(time.perf_counter() - start)
        if trial < SETUP_TRIALS - 1:
            live.remove(warehouse)
            _close(warehouse)
    return warehouse, cells, snapshots, times


def _ingest_phase(warehouse, snapshots, count: common.PhaseCount) -> dict:
    """One pass over the trace, one ``ingest()`` per epoch; per-epoch wall
    times (None where an ingest failed)."""
    latencies = []
    records = raw = stored = 0
    start = time.perf_counter()
    for snapshot in snapshots:
        began = time.perf_counter()
        try:
            stats = warehouse.ingest(snapshot)
        except Exception as exc:  # counted, never fatal: failures are a metric
            count.fail(_failure_reason(exc))
            latencies.append(None)
            continue
        latencies.append(time.perf_counter() - began)
        count.ok()
        records += snapshot.record_count()
        raw += stats.raw_bytes
        stored += stats.stored_bytes
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "records": records,
        "raw_bytes": raw,
        "stored_bytes": stored,
    }


class _SparePass:
    """Callable running one ingest pass into a throwaway warehouse (closed
    afterwards); remembers the wall time of the last pass."""

    def __init__(self, name, cells, snapshots, count, last_wall) -> None:
        self.name, self.cells, self.snapshots, self.count = name, cells, snapshots, count
        self.last_wall = last_wall

    def __call__(self) -> dict:
        spare = _make_warehouse(self.name)
        try:
            spare.register_cells(self.cells)
            run = _ingest_phase(spare, self.snapshots, self.count)
        finally:
            _close(spare)
        self.last_wall = run["wall_s"]
        return run


def _ingest_summary(runs: list, snapshots) -> dict:
    """Fold ingest passes: each epoch's wall time is its median over the
    passes; throughput is records over the sum of those medians."""
    per_epoch = []
    records = 0
    for index, snapshot in enumerate(snapshots):
        times = [r["latencies_s"][index] for r in runs if r["latencies_s"][index] is not None]
        if times:
            per_epoch.append(median(times))
            records += snapshot.record_count()
    merged = dict(runs[0])
    merged["epoch_s"] = per_epoch
    merged["records_per_s"] = records / max(1e-9, sum(per_epoch))
    merged["pass_walls_s"] = [r["wall_s"] for r in runs]
    return merged


def _query_once(warehouse, query: Query, book, count, tracer=None):
    """One closed-loop query: returns (latency_s, complete, scatter)."""
    if tracer is not None:
        tracer.query_groups = set()
        rpc_before = tracer.total_s.get("shard.rpc", 0.0)
    began = time.perf_counter()
    try:
        answer, complete = common.run_query(warehouse, query)
    except Exception as exc:
        latency = time.perf_counter() - began
        count.fail(_failure_reason(exc))
        return latency, False, None
    latency = time.perf_counter() - began
    book.record(query.name, answer)
    if complete:
        count.ok()
    else:
        count.fail("partial")
    scatter = None
    if tracer is not None:
        scatter = (
            tracer.total_s.get("shard.rpc", 0.0) - rpc_before,
            len(tracer.query_groups),
        )
    return latency, complete, scatter


def _closed_loop_phase(
    warehouse, queries, seconds, book, count, tracer=None, spare=None, spares=0
) -> dict:
    """Whole passes over ``queries`` for at least ``seconds``.  After each
    stretch of query passes as long as the last ingest pass, ``spare``
    runs one more ingest pass, ``spares`` times in all."""
    min_passes = -(-MIN_QUERY_SAMPLES // len(queries))
    per_entry = [[] for __ in queries]
    latencies, slo_hits, scatters, ingest_runs = [], [], [], []
    query_s = since_ingest = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, query in enumerate(queries):
            latency, complete, scatter = _query_once(warehouse, query, book, count, tracer)
            per_entry[index].append(latency)
            latencies.append(latency)
            slo_hits.append(complete)
            if scatter is not None and latency > 0:
                scatters.append((scatter[0] / latency, scatter[1]))
        passes += 1
        pass_s = time.perf_counter() - pass_start
        query_s += pass_s
        since_ingest += pass_s
        if len(ingest_runs) < spares and since_ingest >= spare.last_wall:
            ingest_runs.append(spare())
            since_ingest = 0.0
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and passes >= min_passes and len(ingest_runs) == spares
        if done or elapsed >= 3 * seconds:
            break
    return {
        "wall_s": query_s,
        "passes": passes,
        "latencies_s": latencies,
        "entry_s": [median(times) for times in per_entry],
        "completed": slo_hits,
        "scatters": scatters,
        "ingest_runs": ingest_runs,
    }


def _warehouse_counters(warehouse) -> dict:
    """Counters the program itself keeps, read through public attributes."""
    m = warehouse.metrics
    out = {
        "leaves_scanned": m.query_leaves_scanned,
        "leaves_pruned": m.query_leaves_pruned,
        "leaves_zone_pruned": m.query_leaves_zone_pruned,
        "bytes_decompressed": m.query_bytes_decompressed,
        "channel_bytes_skipped": m.query_channel_bytes_skipped,
        "executor_tasks": m.executor_tasks,
        "compress_wall_s": m.compress_wall_seconds,
        "compress_task_s": m.compress_task_seconds,
        "requests_rejected": m.requests_rejected,
        "requests_shed": m.requests_shed,
        "ingest_queue_depth_max": m.ingest_queue_depth_max,
    }
    client = getattr(warehouse, "client", None)
    if client is not None:
        out["groups_routed"] = client.counters.groups_routed
        out["retries"] = client.counters.retries
        out["failovers"] = client.counters.failovers
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _worker_exports(warehouse) -> list:
    """Tracer exports from each socket worker process (traced runs)."""
    return [
        proxy.perfbench_trace() for __, proxy in sorted(warehouse.workers.items())
    ]


#: Keys a worker process contributes; shard, SQL and lock spans are
#: measured on the coordinator side only.
_WORKER_PREFIXES = ("compression.", "layout.", "index.", "dfs.", "leafscan.", "leaf_cache.", "explore.")


def _worker_part(export: dict) -> dict:
    keep = {}
    for section in ("calls", "self_s", "total_s", "counts", "samples"):
        keep[section] = {
            k: v for k, v in export[section].items() if k.startswith(_WORKER_PREFIXES)
        }
    keep["threads"] = export["threads"]
    keep["wrapper_calls"] = export["wrapper_calls"]
    return keep


class _TraceWindow:
    """Collects tracer exports over the timed phases only (setup and
    warm-up excluded), from this process and any worker processes."""

    def __init__(self, tracer, warehouse, workers: bool) -> None:
        self.tracer = tracer
        self.warehouse = warehouse
        self.workers = workers
        self.parts: list[dict] = []
        self._start = None

    def _snapshot(self):
        local = self.tracer.export()
        remote = _worker_exports(self.warehouse) if self.workers else []
        return local, remote

    def open(self) -> None:
        self._start = self._snapshot()

    def close(self) -> None:
        local, remote = self._snapshot()
        self.parts.append(tracing.diff_exports(local, self._start[0]))
        for after, before in zip(remote, self._start[1]):
            self.parts.append(_worker_part(tracing.diff_exports(after, before)))

    def merged(self) -> dict:
        return tracing.merge_exports(self.parts)


def _closed_loop_run(
    name, warehouse, cells, snapshots, seed, seconds, tracer=None, passes=1
) -> dict:
    """Ingest pass, warm-up pass, then the query phase on one warehouse,
    with ``passes - 1`` more ingest passes spread through it."""
    cell_ids = sorted(warehouse.cell_locations)
    queries = common.closed_loop_queries(seed, cell_ids, _area(warehouse))
    book = common.AnswerBook()
    ingest_count, warm_count, query_count = (common.PhaseCount() for __ in range(3))
    window = None
    if tracer is not None:
        window = _TraceWindow(tracer, warehouse, workers=name == "cluster")
        window.open()
    counters_before = _warehouse_counters(warehouse)
    main = _ingest_phase(warehouse, snapshots, ingest_count)
    counters_mid = _warehouse_counters(warehouse)
    if window is not None:
        window.close()
    warm_start = time.perf_counter()
    for query in queries:
        _query_once(warehouse, query, book, warm_count)
    warmup_s = time.perf_counter() - warm_start
    counters_warm = _warehouse_counters(warehouse)
    if window is not None:
        window.open()
    spare = _SparePass(name, cells, snapshots, ingest_count, main["wall_s"])
    loop = _closed_loop_phase(
        warehouse, queries, seconds, book, query_count, tracer, spare, passes - 1
    )
    if window is not None:
        window.close()
    counters_after = _warehouse_counters(warehouse)
    counters = {
        k: (counters_mid[k] - counters_before[k]) + (counters_after[k] - counters_warm[k])
        for k in counters_after
    }
    return {
        "queries": queries,
        "book": book,
        "ingest": _ingest_summary([main] + loop["ingest_runs"], snapshots),
        "loop": loop,
        "warmup_s": warmup_s,
        "phases": {
            "ingest": ingest_count.as_dict(),
            "warmup": warm_count.as_dict(),
            "query": query_count.as_dict(),
        },
        "counters": counters,
        "trace": window.merged() if window is not None else None,
    }


def _closed_loop_metrics(name: str, run: dict, setup_s: float, rss_mb: float) -> dict:
    """End-to-end figures of a closed-loop run.  Latency percentiles are
    band quantiles over per-item medians (each epoch's median over the
    ingest passes, each list entry's median over the query passes), so a
    slow spell of the host that hits a minority of passes moves none of
    them; throughputs are likewise read from those medians."""
    ingest, loop = run["ingest"], run["loop"]
    epoch_ms = [x * 1000.0 for x in ingest["epoch_s"]]
    entry_ms = [x * 1000.0 for x in loop["entry_s"]]
    latencies_ms = [x * 1000.0 for x in loop["latencies_s"]]
    slo = SLO_MS[name]
    within = sum(
        1 for ms, ok in zip(latencies_ms, loop["completed"]) if ok and ms <= slo
    )
    sent = max(1, len(latencies_ms))
    complete_share = sum(loop["completed"]) / sent
    return {
        "setup_s": setup_s,
        "ingest_records_per_s": ingest["records_per_s"],
        "ingest_epoch_ms_p50": common.band_quantile(epoch_ms, 50),
        "ingest_epoch_ms_p90": common.band_quantile(epoch_ms, 90),
        "query_ms_p50": common.band_quantile(entry_ms, 50),
        "query_ms_p90": common.band_quantile(entry_ms, 90),
        "queries_per_s": complete_share * len(entry_ms) / max(1e-9, sum(loop["entry_s"])),
        "query_slo_share": within / sent,
        "stored_bytes_per_raw_byte": ingest["stored_bytes"] / max(1, ingest["raw_bytes"]),
        "peak_rss_mb": rss_mb,
    }


def _peak_rss_mb() -> float:
    """This process plus every live worker process it spawned."""
    total = common.self_peak_rss_mb()
    for child in multiprocessing.active_children():
        total += common.process_peak_rss_mb(child.pid)
    return total


def _reference_digests(queries, snapshots, cells) -> dict:
    """Answers of an independently configured store: the ``gzip-ref``
    codec, columnar layout and serial executor share no codec, layout or
    executor code with ``store``'s defaults."""
    from repro.core import Spate, SpateConfig

    reference = Spate(SpateConfig(codec="gzip-ref", layout="columnar", executor="serial"))
    reference.register_cells(cells)
    for snapshot in snapshots:
        reference.ingest(snapshot)
    return {query.name: common.run_query(reference, query)[0] for query in queries}


def _check_workers_gone(live: list, outcome: Outcome) -> None:
    """Close every warehouse and prove no worker process outlived it."""
    for warehouse in live:
        _close(warehouse)
    live.clear()
    survivors = multiprocessing.active_children()
    for child in survivors:
        child.join(timeout=5.0)
    survivors = [c for c in multiprocessing.active_children() if c.is_alive()]
    outcome.notes["worker_processes_left"] = len(survivors)
    if survivors:
        outcome.mismatches.append(
            f"{len(survivors)} worker process(es) survived close(): "
            + ", ".join(str(c.pid) for c in survivors)
        )
        for child in survivors:
            child.kill()
            child.join(timeout=5.0)


def run_closed_loop(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """``store`` and ``cluster``: one warehouse, same trace and list."""
    from repro.shard.worker import ShardWorker

    outcome = Outcome()
    live: list = []
    tracer = None
    try:
        warehouse, cells, snapshots, setup_times = _setup_closed_loop(name, seed, live)
        run = _closed_loop_run(
            name, warehouse, cells, snapshots, seed, seconds, passes=INGEST_PASSES[name]
        )
        rss_mb = _peak_rss_mb()
        setup_s = median(setup_times) + run["warmup_s"]
        outcome.metrics = _closed_loop_metrics(name, run, setup_s, rss_mb)
        outcome.phases = {k: v for k, v in run["phases"].items() if k != "warmup"}
        _check_workers_gone(live, outcome)
        traced_run = None
        if trace:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            if name == "cluster":
                tracer.add_attribute(
                    ShardWorker, "perfbench_trace", lambda worker: tracer.export()
                )
            traced = _make_warehouse(name)
            live.append(traced)
            traced.register_cells(cells)
            traced_run = _closed_loop_run(name, traced, cells, snapshots, seed, seconds, tracer)
            tracer.uninstall()
            outcome.layers = _closed_loop_layers(traced_run, outcome.metrics, name)
        _check_workers_gone(live, outcome)
        if tracer is not None:
            _verify_trace_removed(tracer, outcome)
            calls_before = tracer.wrapper_calls
        # Answer check, after every timed phase and outside all metrics.
        # ``store`` must match the reference byte for byte, which makes the
        # reference stand in for ``store`` when ``cluster`` is checked.
        reference = _reference_digests(run["queries"], snapshots, cells)
        exact = name != "cluster"
        run["book"].check_against(reference, "reference", exact)
        outcome.mismatches.extend(run["book"].mismatches)
        if traced_run is not None:
            traced_run["book"].check_against(reference, "reference", exact)
            outcome.mismatches.extend(
                f"traced {m}" for m in traced_run["book"].mismatches
            )
            if tracer.wrapper_calls != calls_before:
                outcome.mismatches.append(
                    f"{tracer.wrapper_calls - calls_before} tracing wrapper call(s) "
                    "after uninstall"
                )
        outcome.notes["answer_digest"] = run["book"].combined()
        outcome.notes["answers_in_other_row_order"] = run["book"].order_differs
        outcome.notes["query_ms_p50_by_name"] = _p50_by_name(run)
        outcome.notes["reference"] = "gzip-ref codec, columnar layout, serial executor"
        outcome.notes["warmup_s"] = run["warmup_s"]
        outcome.notes["setup_trials_s"] = setup_times
        outcome.notes["queries_in_list"] = len(run["queries"])
        outcome.notes["query_samples"] = len(run["loop"]["latencies_s"])
        outcome.notes["warmup_phase"] = run["phases"]["warmup"]
        outcome.notes["ingest_pass_walls_s"] = run["ingest"]["pass_walls_s"]
        outcome.notes["query_passes"] = run["loop"]["passes"]
        history = run["ingest"]["raw_bytes"]
        config = store_config() if name == "store" else cluster_config()
        outcome.config = {
            "codec": config.codec,
            "layout": config.layout,
            "executor": config.executor,
            "scale": common.SCALE,
            "days": common.DAYS,
            "epochs": EPOCHS,
            "records": run["ingest"]["records"],
            "query_loop": "closed, 1 client, list cycled",
            "ingest_passes": INGEST_PASSES[name],
            "slo_ms": SLO_MS[name],
            "leaf_cache_bytes": config.leaf_cache_bytes,
            "decoded_history_bytes": history,
            "history_vs_leaf_cache": "fits" if history <= config.leaf_cache_bytes else "exceeds",
        }
        if name == "cluster":
            sharding = config.sharding
            outcome.config.update(
                shards=sharding.shards,
                transport=sharding.transport,
                region_layout=sharding.region_layout,
                group_replication=sharding.group_replication,
                note="leaf cache is per group store inside each worker",
            )
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        for warehouse in live:
            _close(warehouse)
    return outcome


def _p50_by_name(run: dict) -> dict:
    """Median latency of each list entry over the query phase, ms."""
    return {
        query.name: round(seconds * 1000.0, 3)
        for query, seconds in zip(run["queries"], run["loop"]["entry_s"])
    }


def _verify_trace_removed(tracer, outcome: Outcome) -> None:
    leftovers = tracer.verify_clean()
    if leftovers:
        outcome.mismatches.append("tracing wrappers left installed: " + ", ".join(leftovers))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _ms_p90(samples) -> float:
    return percentile([s * 1000.0 for s in samples], 90)


def layer_metrics(export: dict, counters: dict, raw_bytes: int, extra: dict) -> dict:
    """Per-layer metric values from a merged trace export plus the
    program's own counter deltas over the same phases."""
    calls, self_s, total_s = export["calls"], export["self_s"], export["total_s"]
    counts, samples = export["counts"], export["samples"]

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = c("leaf_cache.hits"), c("leaf_cache.misses")
    considered = (
        counters.get("leaves_scanned", 0)
        + counters.get("leaves_pruned", 0)
        + counters.get("leaves_zone_pruned", 0)
    )
    values = {
        "compression.encode_s": self_s.get("compression.encode", 0.0),
        "compression.encode_calls": calls.get("compression.encode", 0),
        "compression.encode_bytes_in": c("compression.encode_bytes_in"),
        "compression.encode_bytes_out": c("compression.encode_bytes_out"),
        "compression.decode_s": self_s.get("compression.decode", 0.0),
        "compression.decode_calls": calls.get("compression.decode", 0),
        "compression.decode_bytes_out": c("compression.decode_bytes_out"),
        "compression.channel_decode_s": self_s.get("compression.channel_decode", 0.0),
        "layout.serialize_s": self_s.get("layout.serialize", 0.0),
        "layout.deserialize_s": self_s.get("layout.deserialize", 0.0),
        "layout.deserialize_calls": calls.get("layout.deserialize", 0),
        "index.ingest_s": self_s.get("index.ingest", 0.0),
        "index.decay_s": total_s.get("index.decay", 0.0),
        "index.leaves_evicted": c("index.leaves_evicted"),
        "dfs.write_calls": calls.get("dfs.write", 0),
        "dfs.bytes_written_per_raw_byte": ratio(c("dfs.bytes_written"), raw_bytes),
        "dfs.read_calls": calls.get("dfs.read", 0),
        "dfs.bytes_read": c("dfs.bytes_read"),
        "dfs.modeled_io_s": c("dfs.modeled_io_s"),
        "executor.tasks": counters.get("executor_tasks", 0),
        "executor.task_s_over_wall": ratio(
            counters.get("compress_task_s", 0.0), counters.get("compress_wall_s", 0.0)
        ),
        "leafscan.leaves_considered": considered,
        "leafscan.leaves_pruned": counters.get("leaves_pruned", 0),
        "leafscan.leaves_zone_pruned": counters.get("leaves_zone_pruned", 0),
        "leafscan.bytes_decompressed": counters.get("bytes_decompressed", 0),
        "leafscan.channel_bytes_skipped": counters.get("channel_bytes_skipped", 0),
        "leafscan.useful_leaf_share": ratio(
            c("leafscan.leaves_useful"), c("leafscan.leaves_decoded")
        ),
        "leaf_cache.hit_rate": ratio(hits, hits + misses),
        "leaf_cache.evictions": c("leaf_cache.evictions"),
        "leaf_cache.invalidations": c("leaf_cache.invalidations"),
        "sql.parse_s": self_s.get("sql.parse", 0.0),
        "sql.execute_s": self_s.get("sql.execute", 0.0),
        "sql.row_engine_share": ratio(c("sql.row_engine_statements"), c("sql.statements")),
        "sql.rows_scanned_per_row_returned": ratio(
            c("sql.rows_scanned"), c("sql.rows_returned")
        ),
        "explore.evaluate_s": self_s.get("explore.evaluate", 0.0),
        "shard.rpc_calls": c("shard.rpc_calls"),
        "shard.rpc_s": self_s.get("shard.rpc", 0.0),
        "shard.scatter_overlap": extra.get("scatter_overlap", 0.0),
        "shard.groups_contacted_per_query": extra.get("groups_per_query", 0.0),
        "shard.groups_routed": counters.get("groups_routed", 0),
        "shard.wire_s": self_s.get("shard.wire", 0.0),
        "shard.wire_bytes": c("shard.wire_bytes"),
        "shard.retries": counters.get("retries", 0),
        "shard.failovers": counters.get("failovers", 0),
        "admission.wait_ms_p90": _ms_p90(samples.get("admission.admit", [])),
        "admission.rejected": counters.get("requests_rejected", 0),
        "admission.shed": counters.get("requests_shed", 0),
        "rwlock.read_wait_ms_p90": _ms_p90(samples.get("rwlock.read_wait", [])),
        "rwlock.write_hold_ms_p90": _ms_p90(samples.get("rwlock.write_hold", [])),
        "ingest.queue_depth_max": extra.get("queue_depth_max", 0),
        "loadgen.late_ms_p90": extra.get("late_ms_p90", 0.0),
        "loadgen.queries_sent": extra.get("queries_sent", 0),
        "trace.wrapped_calls": export["wrapper_calls"],
        "trace.self_s_total": sum(self_s.values()),
    }
    for name, value in extra.get("overhead", {}).items():
        values[f"trace.overhead.{name}"] = value
    return values


#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_METRICS = (
    "ingest_records_per_s",
    "ingest_epoch_ms_p50",
    "query_ms_p50",
    "query_ms_p90",
    "queries_per_s",
)


def _overhead(traced: dict, untraced: dict) -> dict:
    return {name: traced[name] - untraced[name] for name in OVERHEAD_METRICS}


def _closed_loop_layers(run: dict, untraced_metrics: dict, name: str) -> dict:
    scatters = run["loop"]["scatters"]
    traced_metrics = _closed_loop_metrics(name, run, 0.0, 0.0)
    extra = {
        "scatter_overlap": median([s[0] for s in scatters]) if name == "cluster" else 0.0,
        "groups_per_query": (
            sum(s[1] for s in scatters) / len(scatters) if scatters and name == "cluster" else 0.0
        ),
        "overhead": _overhead(traced_metrics, untraced_metrics),
    }
    return layer_metrics(run["trace"], run["counters"], run["ingest"]["raw_bytes"], extra)


# ----------------------------------------------------------------------
# serve_live: open-loop queries beside paced live ingest
# ----------------------------------------------------------------------


LIVE_SQL = {
    "dash-cdr": "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS d FROM CDR GROUP BY call_type",
    "dash-nms": "SELECT kpi, COUNT(*) AS n, AVG(val) AS a FROM NMS GROUP BY kpi",
    "analyst-long-calls": (
        "SELECT cell_id, COUNT(*) AS n, MAX(duration_s) AS m FROM CDR "
        "WHERE duration_s >= 400 GROUP BY cell_id"
    ),
    "analyst-drops": (
        "SELECT cellid, COUNT(*) AS n, SUM(drops) AS d FROM NMS "
        "WHERE drops >= 20 GROUP BY cellid"
    ),
}
LIVE_DASHBOARD = ("dash-explore-area", "dash-explore-box", "dash-cdr", "dash-nms")
LIVE_ANALYST = ("analyst-long-calls", "analyst-drops")


def live_config():
    from repro.core import SpateConfig
    from repro.core.config import DecayPolicyConfig

    return SpateConfig(
        codec="typedchannel",
        layout="columnar",
        executor="serial",
        leaf_cache_bytes=LIVE_LEAF_CACHE_BYTES,
        decay=DecayPolicyConfig(keep_epochs=LIVE_KEEP_EPOCHS),
    )


def live_schedule(seed: int, seconds: float) -> list[tuple[float, str, float]]:
    """(offset_s, kind, draw) per query: LIVE_RATE_QPS x ``seconds``
    arrivals with exponential gaps, i.e. a Poisson process conditioned on
    its count, so every seed sends the same number of queries in the same
    kind mix.

    Seeds then differ in where bursts fall, not in how bursty the
    schedule is or in how it lines up with the ingest ticks: the gaps and
    each kind's draws are stratified (:func:`common.stratified_draws`),
    and each arrival keeps the ingest period its gap put it in but takes
    its place within that period from one stratified set of phases.  So
    every seed sends the same number of queries into the moment just
    before or after an epoch is appended, which is what decides how often
    a read waits for the write lock and an append waits for readers."""
    rng = random.Random(seed * 104729 + 3)
    total = max(1, int(round(LIVE_RATE_QPS * seconds)))
    analysts = int(round(total * LIVE_ANALYST_SHARE))
    kinds = [LIVE_ANALYST[i % len(LIVE_ANALYST)] for i in range(analysts)]
    kinds += [LIVE_DASHBOARD[i % len(LIVE_DASHBOARD)] for i in range(total - analysts)]
    rng.shuffle(kinds)
    gaps = [-math.log(1.0 - u) for u in common.stratified_draws(rng, total + 1)]
    scale = seconds / sum(gaps)
    last_period = max(0, int(seconds / LIVE_PACE_S) - 1)
    periods = [
        min(int(offset / LIVE_PACE_S), last_period)
        for offset in itertools.accumulate(gap * scale for gap in gaps[:total])
    ]
    phases = common.stratified_draws(rng, total)
    offsets = sorted((p + phase) * LIVE_PACE_S for p, phase in zip(periods, phases))
    draws = {
        kind: iter(common.stratified_draws(rng, kinds.count(kind))) for kind in set(kinds)
    }
    return [(offset, kind, next(draws[kind])) for offset, kind in zip(offsets, kinds)]


def _live_request(kind: str, draw: float, acked: int, boxes):
    """Resolve one scheduled query against the acked frontier.

    Dashboards read the latest 12 acked epochs.  Analysts read 6-12
    epochs starting 24-40 epochs back, so decay (64 kept) cannot reach
    their window for 24 more epochs (~5 s) after the query is sent."""
    from repro.server.protocol import QueryRequest

    if kind.startswith("dash"):
        last = acked
        first = max(0, acked - LIVE_DASHBOARD_EPOCHS + 1)
    else:
        span = 6 + int(draw * 7)
        first = max(0, acked - 40 + int(draw * 16))
        last = min(acked, first + span - 1)
    if kind == "dash-explore-area" or kind == "dash-explore-box":
        box = next(boxes) if kind == "dash-explore-box" else None
        request = QueryRequest(
            op="explore",
            table=common.EXPLORE_TABLE,
            attributes=common.EXPLORE_ATTRIBUTES,
            box=box,
            first_epoch=first,
            last_epoch=last,
        )
        key = Query(kind, first, last, box=box)
    else:
        request = QueryRequest(op="sql", sql=LIVE_SQL[kind], first_epoch=first, last_epoch=last)
        key = Query(kind, first, last, sql=LIVE_SQL[kind])
    return request, key


def _live_epochs(seconds: float) -> int:
    return LIVE_KEEP_EPOCHS + int(seconds / LIVE_PACE_S) + 2


def _setup_live(seed: int, seconds: float):
    """Generate the trace, build the store and preload LIVE_KEEP_EPOCHS
    of history, SETUP_TRIALS times."""
    epochs = _live_epochs(seconds)
    times = []
    for __ in range(SETUP_TRIALS):
        start = time.perf_counter()
        cells, snapshots = _generate(seed, epochs, -(-epochs // 48))
        spate = _preloaded_store(cells, snapshots)
        times.append(time.perf_counter() - start)
    return spate, cells, snapshots, times


def _preloaded_store(cells, snapshots):
    from repro.core import Spate

    spate = Spate(live_config())
    spate.register_cells(cells)
    for snapshot in snapshots[:LIVE_KEEP_EPOCHS]:
        spate.ingest(snapshot)
    return spate


async def _drive_live(spate, snapshots, seed: int, seconds: float) -> dict:
    """The load generator: one task in the service's loop streams epochs
    at a fixed pace and sends the seeded open-loop query schedule.
    Latency is measured from each query's due time."""
    from repro.server.service import ServerConfig, SpateService

    service = SpateService(spate, ServerConfig(max_concurrent_queries=os.cpu_count() or 1))
    stream = snapshots[LIVE_KEEP_EPOCHS:]
    pace_count = min(len(stream), int(seconds / LIVE_PACE_S))
    events = [(k * LIVE_PACE_S, 0, "ingest", k) for k in range(pace_count)]
    schedule = live_schedule(seed, seconds)
    events += [(offset, 1, kind, draw) for offset, kind, draw in schedule]
    box_count = sum(1 for __, kind, __ in schedule if kind == "dash-explore-box")
    boxes = iter(
        common.region_boxes(
            _area(spate), random.Random(seed * 31 + 5), box_count, LIVE_BOX_SHARE
        )
    )
    events.sort(key=lambda e: (e[0], e[1]))
    state = {"acked": LIVE_KEEP_EPOCHS - 1}
    ingest_log: list = []
    query_log: list = []
    late: list = []
    tasks: list = []

    async def await_ack(ack, sent, snapshot):
        try:
            stats = await ack
        except Exception as exc:
            ingest_log.append((snapshot.epoch, None, time.perf_counter() - sent, exc))
            return
        done = time.perf_counter()
        state["acked"] = max(state["acked"], snapshot.epoch)
        ingest_log.append((snapshot.epoch, stats, done - sent, None))
        state["last_ack"] = done

    async def send_query(request, key, due):
        response = await service.query(request)
        done = time.perf_counter()
        query_log.append((key, response, done - due, done))

    async with service:
        session = service.ingest_session()
        start = time.perf_counter()
        for offset, __, kind, payload in events:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            if kind == "ingest":
                snapshot = stream[payload]
                sent = time.perf_counter()
                state.setdefault("first_append", sent)
                ack = await session.append(snapshot)
                tasks.append(asyncio.ensure_future(await_ack(ack, sent, snapshot)))
            else:
                request, key = _live_request(kind, payload, state["acked"], boxes)
                tasks.append(asyncio.ensure_future(send_query(request, key, due)))
        await asyncio.gather(*tasks)
        await session.close()
        end = time.perf_counter()
    return {
        "start": start,
        "end": end,
        "ingest_log": ingest_log,
        "query_log": query_log,
        "late_s": late,
        "streamed": stream[:pace_count],
        "first_append": state.get("first_append", start),
        "last_ack": state.get("last_ack", end),
    }


def _response_digest(response) -> tuple[str, str]:
    return common.digest(response.columns, response.rows, response.aggregates or None)


def _live_run(spate, snapshots, seed, seconds, tracer=None) -> dict:
    """One open-loop service run on ``spate``, folded into metrics."""
    window = None
    if tracer is not None:
        window = _TraceWindow(tracer, spate, workers=False)
        window.open()
    before = _warehouse_counters(spate)
    driven = asyncio.run(_drive_live(spate, snapshots, seed, seconds))
    after = _warehouse_counters(spate)
    if window is not None:
        window.close()
    book = common.AnswerBook()
    ingest_count, query_count = common.PhaseCount(), common.PhaseCount()
    latencies = []
    within = 0
    for key, response, latency, __ in driven["query_log"]:
        latencies.append(latency)
        if not response.ok:
            query_count.fail(response.error_code or "error")
            continue
        book.record(key, _response_digest(response))
        if response.partial:
            query_count.fail("partial")
            continue
        query_count.ok()
        if latency * 1000.0 <= SLO_MS["serve_live"]:
            within += 1
    ingest_ms, raw, stored = [], 0, 0
    for __, stats, elapsed, exc in driven["ingest_log"]:
        if exc is not None:
            ingest_count.fail(_failure_reason(exc))
            continue
        ingest_count.ok()
        ingest_ms.append(elapsed * 1000.0)
        raw += stats.raw_bytes
        stored += stats.stored_bytes
    records = sum(s.record_count() for s in driven["streamed"])
    latencies_ms = [x * 1000.0 for x in latencies]
    query_wall = driven["end"] - driven["start"]
    metrics = {
        "ingest_records_per_s": records / max(1e-9, driven["last_ack"] - driven["first_append"]),
        "ingest_epoch_ms_p50": common.band_quantile(ingest_ms, 50),
        "ingest_epoch_ms_p90": common.band_quantile(ingest_ms, 90),
        "query_ms_p50": common.band_quantile(latencies_ms, 50),
        "query_ms_p90": common.band_quantile(latencies_ms, 90),
        "queries_per_s": (query_count.attempted - query_count.failed) / query_wall,
        "query_slo_share": within / max(1, len(driven["query_log"])),
        "stored_bytes_per_raw_byte": stored / max(1, raw),
    }
    return {
        "metrics": metrics,
        "book": book,
        "driven": driven,
        "raw_bytes": raw,
        "phases": {"ingest": ingest_count.as_dict(), "query": query_count.as_dict()},
        "counters": _delta(after, before),
        "queue_depth_max": after["ingest_queue_depth_max"],
        "trace": window.merged() if window is not None else None,
    }


def _live_reference(runs: list, cells, snapshots) -> dict:
    """Quiesced reference: a decay-free gzip-ref store holding every
    acked epoch answers each distinct query of ``runs`` once."""
    from repro.core import Spate, SpateConfig
    from repro.core.config import DecayPolicyConfig

    last = max(
        (
            epoch
            for run in runs
            for epoch, __, __, exc in run["driven"]["ingest_log"]
            if exc is None
        ),
        default=LIVE_KEEP_EPOCHS - 1,
    )
    reference = Spate(
        SpateConfig(
            codec="gzip-ref",
            layout="columnar",
            executor="serial",
            decay=DecayPolicyConfig(enabled=False),
        )
    )
    reference.register_cells(cells)
    for snapshot in snapshots[: last + 1]:
        reference.ingest(snapshot)
    keys = {key for run in runs for key in run["book"].digests}
    return {key: common.run_query(reference, key)[0] for key in keys}


def _decoded_history_bytes(spate) -> int:
    """Decoded (raw serialized) bytes of the leaves decay keeps."""
    kept = [leaf for leaf in spate.index.leaves() if not leaf.decayed]
    return sum(leaf.raw_bytes for leaf in kept)


def run_serve_live(seed: int, seconds: float, trace: bool) -> Outcome:
    """``serve_live``: the asyncio service over one preloaded store."""
    outcome = Outcome()
    spate, cells, snapshots, setup_times = _setup_live(seed, seconds)
    history = _decoded_history_bytes(spate)
    run = _live_run(spate, snapshots, seed, seconds)
    metrics = dict(run["metrics"])
    metrics["setup_s"] = median(setup_times)
    metrics["peak_rss_mb"] = common.self_peak_rss_mb()
    outcome.metrics = metrics
    outcome.phases = run["phases"]
    tracer = None
    traced = None
    try:
        if trace:
            tracer = tracing.Tracer()
            fresh = _preloaded_store(cells, snapshots)
            tracing.install_layers(tracer)
            traced = _live_run(fresh, snapshots, seed, seconds, tracer)
            tracer.uninstall()
            late = traced["driven"]["late_s"]
            extra = {
                "queue_depth_max": traced["queue_depth_max"],
                "late_ms_p90": _ms_p90(late),
                "queries_sent": len(traced["driven"]["query_log"]),
                "overhead": _overhead(traced["metrics"], run["metrics"]),
            }
            outcome.layers = layer_metrics(
                traced["trace"], traced["counters"], traced["raw_bytes"], extra
            )
            _verify_trace_removed(tracer, outcome)
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
    calls_before = tracer.wrapper_calls if tracer is not None else 0
    # Answer check, after every timed phase and outside all metrics.
    reference = _live_reference([r for r in (run, traced) if r], cells, snapshots)
    run["book"].check_against(reference, "reference")
    outcome.mismatches.extend(run["book"].mismatches)
    if traced is not None:
        traced["book"].check_against(reference, "reference")
        outcome.mismatches.extend(f"traced {m}" for m in traced["book"].mismatches)
        if tracer.wrapper_calls != calls_before:
            outcome.mismatches.append("tracing wrapper calls after uninstall")
    config = live_config()
    driven = run["driven"]
    outcome.config = {
        "codec": config.codec,
        "layout": config.layout,
        "executor": config.executor,
        "scale": common.SCALE,
        "epochs": _live_epochs(seconds),
        "preloaded_epochs": LIVE_KEEP_EPOCHS,
        "streamed_epochs": len(driven["streamed"]),
        "ingest_pace_s": LIVE_PACE_S,
        "query_rate_qps": LIVE_RATE_QPS,
        "dashboard_box_share": LIVE_BOX_SHARE,
        "query_loop": "open, seeded Poisson schedule conditioned on its count",
        "analyst_share": LIVE_ANALYST_SHARE,
        "decay_keep_epochs": LIVE_KEEP_EPOCHS,
        "reader_pool": os.cpu_count(),
        "slo_ms": SLO_MS["serve_live"],
        "leaf_cache_bytes": config.leaf_cache_bytes,
        "decoded_history_bytes": history,
        "history_vs_leaf_cache": "fits" if history <= config.leaf_cache_bytes else "exceeds",
    }
    outcome.notes.update(
        answer_digest=run["book"].combined(),
        reference="gzip-ref codec, columnar layout, serial executor, decay off",
        setup_trials_s=setup_times,
        late_ms_p90=_ms_p90(driven["late_s"]),
        queries_sent=len(driven["query_log"]),
    )
    return outcome


WORKLOADS = ("store", "cluster", "serve_live")


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name == "serve_live":
        return run_serve_live(seed, seconds, trace)
    return run_closed_loop(name, seed, seconds, trace)
