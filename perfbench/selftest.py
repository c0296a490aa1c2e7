"""Self-tests for the benchmark's own tracing and answer checks.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py

Checks that wrappers patch a function everywhere it is looked up,
including names bound by ``from ... import``; that uninstalling restores
the original objects and leaves no wrapper reachable, so an untraced
run makes zero wrapper calls; that summed per-thread self time never
exceeds wall time times threads; and that an altered answer digest
fails the answer check.  Exits 1 on the first failure.
"""

from __future__ import annotations

import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_patches_every_binding_and_restores() -> None:
    from perfbench import tracing
    from repro.core import layout
    from repro.query import leafscan
    from repro.query.sql import executor, parser
    import repro.query.sql as sql_package

    originals = {
        "parser": parser.parse_sql,
        "executor": executor.parse_sql,
        "package": sql_package.parse_sql,
        "decode": leafscan.decode_leaf_task,
        "serialize": layout.serialize_table,
    }
    check(originals["executor"] is originals["parser"], "executor binds parse_sql by import")
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        check(executor.parse_sql is not originals["parser"], "from-import binding not patched")
        check(sql_package.parse_sql is executor.parse_sql, "package re-export not patched")
        check(parser.parse_sql is executor.parse_sql, "defining module not patched")
        check(leafscan.decode_leaf_task is not originals["decode"], "decode task not patched")
        executor.parse_sql("SELECT 1 AS x FROM CDR")
        check(tracer.calls.get("sql.parse") == 1, "wrapper did not record the call")
    finally:
        tracer.uninstall()
    check(parser.parse_sql is originals["parser"], "parse_sql not restored")
    check(executor.parse_sql is originals["executor"], "executor.parse_sql not restored")
    check(sql_package.parse_sql is originals["package"], "package parse_sql not restored")
    check(leafscan.decode_leaf_task is originals["decode"], "decode task not restored")
    check(layout.serialize_table is originals["serialize"], "serialize_table not restored")
    check(not tracer.verify_clean(), f"wrappers left: {tracer.verify_clean()}")


def test_untraced_run_makes_no_wrapper_calls() -> None:
    from perfbench import tracing
    from repro.core import Spate, SpateConfig
    from repro.telco import TelcoTraceGenerator, TraceConfig

    generator = TelcoTraceGenerator(TraceConfig(scale=0.001, days=1, seed=7))
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        spate = Spate(SpateConfig(codec="gzip-ref", executor="serial"))
        spate.register_cells(generator.cells_table())
        for epoch in range(2):
            spate.ingest(generator.snapshot(epoch))
        spate.sql("SELECT COUNT(*) AS n FROM CDR", 0, 1)
        traced_calls = tracer.wrapper_calls
        check(traced_calls > 0, "traced run recorded nothing")
    finally:
        tracer.uninstall()
    spate.ingest(generator.snapshot(2))
    spate.sql("SELECT COUNT(*) AS n FROM CDR", 0, 2)
    spate.explore("CDR", ("downflux",), None, 0, 2)
    check(
        tracer.wrapper_calls == traced_calls,
        f"{tracer.wrapper_calls - traced_calls} wrapper call(s) after uninstall",
    )


def test_self_time_bounded_by_wall_times_threads() -> None:
    from perfbench import tracing

    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)
        return b"x"

    def parent():
        time.sleep(0.001)
        return [wrapped_leaf() for __ in range(3)]

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_parent = tracer.wrap("parent", parent)

    def worker():
        for __ in range(20):
            wrapped_parent()

    threads = [threading.Thread(target=worker) for __ in range(4)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        check(not thread.is_alive(), "worker thread did not finish")
    wall = time.perf_counter() - start
    total_self = sum(tracer.self_s.values())
    check(
        total_self <= wall * len(tracer.threads) + 1e-6,
        f"self {total_self:.4f}s exceeds wall {wall:.4f}s x {len(tracer.threads)} threads",
    )
    check(
        tracer.total_s["parent"] >= tracer.self_s["parent"] + tracer.self_s["leaf"] - 1e-6,
        "parent inclusive time must cover its own and its children's self time",
    )
    check(tracer.calls["leaf"] == 4 * 20 * 3, "nested calls miscounted")


def test_altered_digest_fails_answer_check() -> None:
    from perfbench import common

    answer = common.digest(["a", "b"], [[1, "x"], [2, "y"]])
    book = common.AnswerBook()
    book.record("q", answer)
    book.check_against({"q": answer}, "reference")
    check(not book.mismatches, "identical digests must pass")

    altered = (answer[0][:-1] + ("0" if answer[0][-1] != "0" else "1"), answer[1])
    book = common.AnswerBook()
    book.record("q", altered)
    book.check_against({"q": answer}, "reference")
    check(book.mismatches, "an altered digest must fail the answer check")

    reordered = common.digest(["a", "b"], [[2, "y"], [1, "x"]])
    book = common.AnswerBook()
    book.record("q", reordered)
    book.check_against({"q": answer}, "reference", exact_order=True)
    check(book.mismatches, "row order counts when the contract is byte identity")
    book = common.AnswerBook()
    book.record("q", reordered)
    book.check_against({"q": answer}, "reference", exact_order=False)
    check(not book.mismatches and book.order_differs == ["q"], "multiset check")

    changed = common.digest(["a", "b"], [[2, "y"], [1, "z"]])
    book = common.AnswerBook()
    book.record("q", changed)
    book.check_against({"q": answer}, "reference", exact_order=False)
    check(book.mismatches, "changed rows must fail even when order is free")


TESTS = [
    test_patches_every_binding_and_restores,
    test_untraced_run_makes_no_wrapper_calls,
    test_self_time_bounded_by_wall_times_threads,
    test_altered_digest_fails_answer_check,
]


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
