"""The repository benchmark: one seeded command, three workloads.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload fig9-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched, every time at reference host speed (``harness.SpeedMonitor``);
``--trace 1`` wraps each layer's public entry points in spans, prints a
per-layer self-time table and reports the per-layer metrics.  Every
workload reports every end-to-end metric, each in its own terms (see
``BENCHMARK.json``); a per-layer metric of a layer the workload does
not call reads 0, and the result file lists those as
``not_exercised``.  Either way the outputs pass a correctness gate, a
fingerprint, the raw wall-time metrics and the samples go to
``.bench_out/results/``, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the checkout has no
``src/``, and 1 without one when a run measured too little to report
every metric (or a traced run measured nothing).

Workloads, metric names, units and bounds come from ``BENCHMARK.json``
at the root of the checkout; ``catalog.py`` adds the layer of each
per-layer metric and the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import catalog
import harness


def load_spec() -> dict:
    """``BENCHMARK.json`` of the checkout."""
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_module(name: str):
    if name == "fig9-sweep":
        import fig9_sweep as module
    elif name == "service-mix":
        import service_mix as module
    else:
        import grape_cold as module
    return module


def layer_table(tracer, metrics: dict, units: dict) -> str:
    """Per-layer self time, then each per-layer metric with its layer
    and the end-to-end metric it should move."""
    lines = [f"{'layer':22s} {'calls':>9s} {'total s':>10s} {'self s':>10s}"]
    totals = tracer.layer_totals()
    for layer, row in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{layer:22s} {row['calls']:9d} {row['total_s']:10.3f} {row['self_s']:10.3f}"
        )
    lines.append("")
    lines.append(f"{'metric':28s} {'value':>14s} {'layer':22s} moves")
    for name, value in metrics.items():
        layer, moves = catalog.PER_LAYER[name]
        lines.append(f"{name:28s} {value:14.6g} {layer:22s} {moves}  [{units[name]}]")
    return "\n".join(lines)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    harness.require_sources()
    module = workload_module(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(catalog.span_layer)
        outcome = module.run_traced(args.seed, args.seconds, tracer)
    else:
        outcome = module.run(args.seed, args.seconds)

    digest = harness.source_digest()
    if args.trace:
        mismatched = harness.check_counts(
            args.workload, args.seed, digest, outcome.counts
        )
        for name in mismatched:
            outcome.problems.append(
                f"deterministic count {name} differs from an earlier traced "
                f"run of seed {args.seed} on the same sources"
            )
    manifest = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in manifest}
    if args.trace and outcome.metrics:
        outcome.info["not_exercised"] = [
            name for name in units if name not in outcome.metrics
        ]
        outcome.metrics = {name: outcome.metrics.get(name, 0.0) for name in units}
    missing = [
        name for name in units if not math.isfinite(outcome.metrics.get(name, math.nan))
    ]
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
        if name not in missing
    }
    fingerprint = harness.fingerprint(
        outcome.info.get("executor", "thread"), outcome.info.get("workers", 0)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "metrics": metrics,
        "counts": outcome.counts,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "errors": outcome.errors,
        "info": outcome.info,
    }
    results = harness.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        traces = harness.OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{stem}.json.gz")
        print(layer_table(tracer, outcome.metrics, units))
    for message in outcome.errors:
        print(f"OPERATION FAILED: {message}")
    for problem in outcome.problems:
        print(f"GATE FAILED: {problem}")
    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")
    if missing:
        sys.stderr.write(
            f"benchmark: {args.workload} measured no {', '.join(missing)}; "
            f"see {results / (stem + '.json')}\n"
        )
        return 1
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
