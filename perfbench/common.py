"""Inputs, answer digests and measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
from dataclasses import dataclass

#: Trace scale and length shared by ``store`` and ``cluster``: 2 days of
#: 30-minute epochs, ~14K records, ~1.2 MB of decoded leaf history.
SCALE = 0.002
DAYS = 2
EPOCHS = DAYS * 48

#: Closed-loop window lengths, in epochs (one of each per template).
WINDOWS = (1, 6, 12, 48)


@dataclass(frozen=True)
class Query:
    """One benchmark query: SQL text or an explore request."""

    name: str
    first_epoch: int
    last_epoch: int
    sql: str | None = None
    box: tuple[float, float, float, float] | None = None


#: Explore attributes (CDR traffic volumes, the paper's T5-style view).
EXPLORE_TABLE = "CDR"
EXPLORE_ATTRIBUTES = ("downflux", "upflux")

#: T1-T4 templates; ``{cell}`` is filled with a seeded cell id.
SQL_TEMPLATES = (
    ("T1-equality", "SELECT record_id, upflux, downflux FROM CDR WHERE cell_id = '{cell}'"),
    ("T2-range", "SELECT upflux, downflux FROM CDR WHERE duration_s BETWEEN 60 AND 600"),
    (
        "T3-cdr-groupby",
        "SELECT call_type, COUNT(*) AS n, SUM(duration_s) AS d, AVG(upflux) AS u, "
        "MIN(downflux) AS lo, MAX(downflux) AS hi FROM CDR GROUP BY call_type",
    ),
    (
        "T3-nms-groupby",
        "SELECT kpi, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, MAX(drops) AS m "
        "FROM NMS GROUP BY kpi",
    ),
    (
        "T4-join",
        "SELECT CDR.call_type, COUNT(*) AS n, SUM(NMS.drops) AS d FROM CDR "
        "JOIN NMS ON CDR.cell_id = NMS.cellid WHERE NMS.kpi = 'bearer_drops' "
        "GROUP BY CDR.call_type",
    ),
)


def stratified_draws(rng: random.Random, count: int) -> list[float]:
    """``count`` draws in [0, 1), one from each of ``count`` equal strata,
    in seeded order.  Every seed then covers the unit interval evenly, so
    what a draw selects (a box position, a window, an arrival gap) varies
    in detail from seed to seed but not in its overall mix."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def region_boxes(area, rng: random.Random, count: int, share: float = 0.3):
    """``count`` seeded boxes, each covering ``share`` of the service
    area's width and height (0.3 gives ~9% of its surface), with
    Latin-hypercube positions: together they sweep the whole area
    whatever the seed."""
    width = (area.max_x - area.min_x) * share
    height = (area.max_y - area.min_y) * share
    xs = stratified_draws(rng, count)
    ys = stratified_draws(rng, count)
    boxes = []
    for u, v in zip(xs, ys):
        x = area.min_x + u * (area.max_x - area.min_x - width)
        y = area.min_y + v * (area.max_y - area.min_y - height)
        boxes.append((x, y, x + width, y + height))
    return boxes


def closed_loop_queries(seed: int, cells: list[str], area) -> list[Query]:
    """The ``store``/``cluster`` list: every T1-T4 template and explore
    over the whole area and over a region box, once per window length.

    Window starts are stratified over the trace (entry ``i`` starts
    ``i/7`` of the way through), so every seed reads the same mix of busy
    and quiet hours and the latency percentiles of a closed loop over
    this short list stay comparable across seeds; the seed picks the
    trace contents, the T1 cells and the explore boxes (spread over the
    area by :func:`region_boxes`)."""
    rng = random.Random(seed * 7919 + 11)
    boxes = iter(region_boxes(area, rng, len(WINDOWS)))
    queries = []
    templates = [(name, text) for name, text in SQL_TEMPLATES]
    templates += [("explore-area", None), ("explore-box", None)]
    for w, window in enumerate(WINDOWS):
        slots = EPOCHS - window + 1
        for i, (name, template) in enumerate(templates):
            base = (i * slots) // len(templates) + w * 5
            first = base % slots
            last = first + window - 1
            if template is not None:
                text = template.format(cell=rng.choice(cells))
                queries.append(Query(f"{name}/{window}", first, last, sql=text))
            elif name == "explore-box":
                queries.append(Query(f"{name}/{window}", first, last, box=next(boxes)))
            else:
                queries.append(Query(f"{name}/{window}", first, last))
    return queries


# ----------------------------------------------------------------------
# Answer digests
# ----------------------------------------------------------------------


def _sha(value) -> str:
    body = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def digest(columns, rows, aggregates=None) -> tuple[str, str]:
    """(ordered, unordered) SHA-256 digests of an answer's columns, rows
    and explore aggregates.  The unordered digest sorts the rows first:
    sharding may permute rows within an epoch (a documented property of
    the shard layer), while the rows themselves and every aggregate
    must still agree exactly."""
    rows = [list(r) for r in rows]
    head = [list(columns), aggregates or {}]
    ordered = _sha(head + [rows])
    unordered = _sha(head + [sorted(rows, key=lambda r: json.dumps(r, default=repr))])
    return ordered, unordered


def explore_digest(result) -> tuple[str, str]:
    from repro.server.protocol import stats_to_dict

    aggregates = {name: stats_to_dict(s) for name, s in result.aggregates.items()}
    return digest(result.columns, result.records, aggregates)


def run_query(warehouse, query: Query):
    """Run one query on a ``Spate``/``ShardedSpate``; returns
    ((ordered, unordered) digests, complete)."""
    from repro.spatial.geometry import BoundingBox

    if query.sql is not None:
        result = warehouse.sql(query.sql, query.first_epoch, query.last_epoch)
        coverage = warehouse.last_scan_coverage or {}
        return digest(result.columns, result.rows), not coverage.get("epochs_skipped")
    box = BoundingBox(*query.box) if query.box is not None else None
    result = warehouse.explore(
        EXPLORE_TABLE, EXPLORE_ATTRIBUTES, box, query.first_epoch, query.last_epoch
    )
    return explore_digest(result), result.coverage.complete


class AnswerBook:
    """Digests seen per query key; every later answer must match."""

    def __init__(self) -> None:
        self.digests: dict[object, tuple[str, str]] = {}
        self.mismatches: list[str] = []
        #: Keys whose rows matched the reference only as a multiset.
        self.order_differs: list[str] = []

    def record(self, key, value: tuple[str, str]) -> None:
        seen = self.digests.setdefault(key, value)
        if seen != value:
            self.mismatches.append(f"{key}: {value[0][:12]} != earlier {seen[0][:12]}")

    def check_against(self, reference: dict, label: str, exact_order: bool = True) -> None:
        """Compare with reference digests: byte-identical answers when
        ``exact_order``, else identical up to row order (recorded in
        :attr:`order_differs`)."""
        for key, value in sorted(self.digests.items(), key=lambda kv: repr(kv[0])):
            expected = reference.get(key)
            if expected is None:
                self.mismatches.append(f"{key}: no {label} answer")
            elif expected == value:
                continue
            elif not exact_order and expected[1] == value[1]:
                self.order_differs.append(str(key))
            else:
                self.mismatches.append(
                    f"{key}: digest {value[0][:12]} != {label} {expected[0][:12]}"
                )

    def combined(self) -> str:
        """One digest over every (query, unordered digest) pair."""
        return _sha(sorted((repr(k), v[1]) for k, v in self.digests.items()))


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 100] (the inclusive
    method of :func:`statistics.quantiles`)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Half-width, in percentile points, of the band :func:`band_quantile`
#: averages over.
QUANTILE_BAND = 5


def band_quantile(values, q: float) -> float:
    """The ``q``-th percentile read as the mean of the interpolated
    percentiles from ``q - QUANTILE_BAND`` to ``q + QUANTILE_BAND`` in
    one-point steps.

    A single order statistic jumps whenever one sample crosses it, and a
    latency tail holds few samples; averaging the neighbourhood (a
    uniform-kernel quantile estimator) keeps the p50/p90 of a few hundred
    samples, or of a short list of per-entry medians, from moving with
    whichever sample happens to sit at the rank."""
    band = range(-QUANTILE_BAND, QUANTILE_BAND + 1)
    points = [min(100.0, max(0.0, q + d)) for d in band]
    return sum(quantile(values, p) for p in points) / len(points)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def self_peak_rss_mb() -> float:
    """Peak RSS of this process, MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live child process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def git_commit(root: str) -> str:
    """HEAD commit read from ``.git`` inside ``root``, or "unknown" (the
    benchmark may run from an exported tree with no repository)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: str, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
    }


class PhaseCount:
    """Operations attempted and failed in one phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "reasons": self.reasons}
