"""SPATE benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload store --seed 2017 --seconds 20 --trace 0

Workloads: ``store`` (one warehouse on SpateConfig defaults), ``cluster``
(3 socket shards) and ``serve_live`` (the asyncio service with live
ingest and open-loop queries); see BENCHMARK.json for why each exists.
``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` also makes a traced run and prints the per-layer split,
including tracing overhead (traced minus untraced end-to-end values).

The full run record goes to standard output as one JSON object; the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Any answer-digest mismatch prints the mismatches to standard error and
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json
    declares them; the result carries exactly these metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no SPATE sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench import common, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    end_to_end, per_layer = declared_units()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    values, units = (outcome.layers, per_layer) if args.trace else (outcome.metrics, end_to_end)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = not outcome.mismatches
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.host_record(ROOT, args.seed),
        "config": outcome.config,
        "phases": outcome.phases,
        "end_to_end": outcome.metrics,
        "per_layer": outcome.layers,
        "notes": outcome.notes,
        "mismatches": outcome.mismatches,
    }
    print(json.dumps({"run_record": record}, sort_keys=True, default=repr))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    if not correct:
        print("ANSWER CHECK FAILED:", file=sys.stderr)
        for line in outcome.mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
