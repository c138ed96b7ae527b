"""What the benchmark's names mean beyond ``BENCHMARK.json``.

``BENCHMARK.json`` holds the workloads, the metric names, units and
bounds; its schema has no room for a per-layer metric's layer or for
the end-to-end metric it should move, so they live here and the traced
run prints them beside each value.
"""

from __future__ import annotations

_PASS_MOVES = "jobs_per_s (fig9-sweep), jobs_per_s (service-mix)"
PASSES = (
    "LowerPass",
    "DetectDiagonalsPass",
    "LogicalSchedulePass",
    "PlaceAndRoutePass",
    "HandOptimizePass",
    "AggregatePass",
    "FinalSchedulePass",
)

_BATCH_EXECUTOR = "jobs_per_s (fig9-sweep), jobs_per_s (grape-cold)"
_SERVICE = "jobs_per_s (service-mix)"
_COLD_CONTROL = "cold_jobs_per_s in the fig9-sweep result file, jobs_per_s (grape-cold)"

#: Per-layer metric -> (layer, end-to-end metric it should move).
PER_LAYER = {
    "pulse_speedup_geomean": (
        "aggregation",
        "none: output quality (ISA over cls+aggregation pulse latency), fixed per seed",
    ),
    **{f"pass.{name}.s": ("compiler.passes", _PASS_MOVES) for name in PASSES},
    "aggregation.rounds": ("aggregation", "jobs_per_s (fig9-sweep)"),
    "aggregation.merges": (
        "aggregation",
        "jobs_per_s (fig9-sweep), pulse_speedup_geomean (every workload)",
    ),
    "dag.topological_orders": ("circuit.dag", "jobs_per_s (fig9-sweep)"),
    "control.ocu_calls": ("control", _COLD_CONTROL),
    "control.ocu_s": ("control", _COLD_CONTROL),
    "control.model_evals": ("control", _COLD_CONTROL),
    "control.cache_hit_ratio": ("control", "jobs_per_s (fig9-sweep)"),
    "control.grape_calls": ("control", "jobs_per_s (grape-cold)"),
    "control.grape_evals": ("control", "jobs_per_s (grape-cold)"),
    "control.grape_s": ("control", "jobs_per_s (grape-cold)"),
    "pulse_cache.hits": ("control.cache", "jobs_per_s (fig9-sweep)"),
    "pulse_cache.misses": ("control.cache", "jobs_per_s (fig9-sweep)"),
    "pulse_cache.lookup_s": ("control.cache", "jobs_per_s (fig9-sweep)"),
    "batch.prewarm_synthesized": ("compiler.batch", "jobs_per_s (grape-cold)"),
    "batch.prewarm_dedup_ratio": ("compiler.batch", "jobs_per_s (grape-cold)"),
    "batch.prewarm_plan_s": ("compiler.batch", "jobs_per_s (grape-cold)"),
    "batch.parallel_efficiency": ("compiler.batch", _BATCH_EXECUTOR),
    "batch.serial_over_default": ("compiler.batch", _BATCH_EXECUTOR),
    "result_cache.hits": ("compiler.result_cache", _SERVICE),
    "result_cache.misses": ("compiler.result_cache", _SERVICE),
    "ir.dumps_ms": ("ir", _SERVICE),
    "ir.loads_ms": ("ir", _SERVICE),
    "ir.result_kb": ("ir", _SERVICE),
    "service.submit_rpc_ms": ("service", _SERVICE),
    "service.status_rpc_ms": ("service", _SERVICE),
    "service.result_rpc_ms": ("service", _SERVICE),
    "service.queue_wait_ms": ("service", _SERVICE),
    "service.run_ms": ("service", _SERVICE),
    "service.coalesced": ("service", _SERVICE),
    "service.rejected_busy": ("service", _SERVICE),
    "service.journal_kb": ("service", _SERVICE),
    "verify.ms_per_job": (
        "verification",
        "no timed metric: runs only in the correctness gate",
    ),
    "trace.overhead_frac": ("trace", "none: cost of the traced run itself"),
}

#: Counts that two traced runs of one seed on the same sources must
#: reproduce exactly (the deterministic-count check).
DETERMINISTIC = (
    "pulse_speedup_geomean",
    "aggregation.rounds",
    "aggregation.merges",
    "dag.topological_orders",
    "control.model_evals",
    "result_cache.hits",
    "service.coalesced",
)

#: Span-name prefix -> layer (longest prefix wins).
_SPAN_LAYERS = {
    "batch.": "compiler.batch",
    "job": "compiler.job",
    "pass.": "compiler.passes",
    "control.ocu": "control",
    "control.grape": "control",
    "dag.": "circuit.dag",
    "ir.": "ir",
    "verify": "verification",
    "rpc.": "service",
    "stream": "service-mix stream",
}


def span_layer(name: str) -> str:
    """The layer a span name belongs to."""
    best = ""
    for prefix in _SPAN_LAYERS:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return _SPAN_LAYERS.get(best, name)
