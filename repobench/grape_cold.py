"""grape-cold: a cold six-job GRAPE batch on the default GRAPE engine.

A fixed 3-qubit chain circuit and a fixed 2-qubit block circuit, each
compiled under isa, cls and cls+aggregation (three copies of each
circuit), in an order the seed draws.  Every sample builds a fresh
``BatchCompiler(backend="grape")`` with an empty pulse cache, so every
sample runs the pre-warm planner, the minimal-time search and GRAPE on
the same distinct control problems.  The circuits are fixed because
GRAPE's cost depends strongly on the target unitaries: seeded angles
would make the work, not the host, decide the spread between runs.
"""

from __future__ import annotations

import random
import time

import harness
from stats import median

STRATEGIES = ("isa", "cls", "cls+aggregation")
#: Samples each kind takes at least.  A cold batch takes 4-7 s on a
#: 2-vCPU host, so the 30 s window takes four to six and these floors
#: lengthen a run only on a slow host.
MINIMUM = {"cold": 4, "setup": 5}


def make_jobs(seed: int):
    from repro.circuit.circuit import Circuit
    from repro.compiler import BatchJob

    chain = Circuit(3, name="chain-3")
    chain.cnot(0, 1)
    chain.rz(0.7, 1)
    chain.cnot(1, 2)
    chain.rx(1.3, 2)
    block = Circuit(2, name="block-2")
    block.ry(0.9, 0)
    block.cnot(0, 1)
    block.rz(1.1, 1)
    block.cnot(0, 1)
    jobs = [
        BatchJob(circuit=circuit, strategy=strategy, label=f"{circuit.name}/{strategy}")
        for circuit in (chain, block)
        for strategy in STRATEGIES
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


class GrapeCold:
    def __init__(self, seed: int) -> None:
        self.jobs = make_jobs(seed)
        self.outcome = harness.Outcome()
        self.batches = harness.BatchCheck(self.jobs, self.outcome)
        #: Kind -> ``Interval`` per sample.
        self.samples = {kind: [] for kind in MINIMUM}

    def batch(self, **engine_options):
        """One cold batch on a fresh GRAPE engine: ``(report, interval)``,
        ``(None, None)`` when the batch raised."""
        from repro.compiler import BatchCompiler

        return self.batches.run(BatchCompiler(backend="grape", **engine_options))

    def cold(self) -> None:
        report, interval = self.batch()
        if report is not None:
            self.samples["cold"].append(interval)

    def setup(self) -> None:
        self.samples["setup"].append(harness.timed(harness.setup_sample, "grape")[1])

    def metrics(self, seconds) -> dict[str, float]:
        """The timed metrics, each sample's time taken by ``seconds``."""
        return {
            "setup_s": median(seconds(interval) for interval in self.samples["setup"]),
            "jobs_per_s": median(
                len(self.jobs) / seconds(interval) for interval in self.samples["cold"]
            ),
        }


def run(seed: int, seconds: float) -> harness.Outcome:
    """The timed run: end-to-end metrics, tracing off."""
    grape = GrapeCold(seed)
    with harness.SpeedMonitor() as monitor:
        harness.interleave(
            seconds, [("cold", grape.cold), ("setup", grape.setup)], MINIMUM, monitor
        )
    outcome = grape.outcome
    first = grape.batches.first
    if first is None:
        return outcome
    outcome.metrics = grape.metrics(monitor.seconds)
    grape.batches.verify()
    outcome.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    outcome.info.update(
        raw_metrics=grape.metrics(monitor.raw_seconds),
        host_slowdown=monitor.median_slowdown(),
        samples={
            kind: [[*interval, monitor.seconds(interval)] for interval in intervals]
            for kind, intervals in grape.samples.items()
        },
        calibrations=monitor.calibrations(),
        executor=first.executor,
        workers=first.workers,
    )
    return outcome


def run_traced(seed: int, seconds: float, tracer) -> harness.Outcome:
    """The traced run: per-layer metrics from spans and counters."""
    grape = GrapeCold(seed)
    outcome = grape.outcome
    window_end = time.perf_counter() + seconds
    aggregation = {"rounds": 0, "merges": 0}
    tracer.install(harness.trace_targets())
    try:
        mark = tracer.mark()
        serial, serial_interval = grape.batch(
            max_workers=1, pass_callbacks=[harness.aggregation_counter(aggregation)]
        )
        serial_spans = tracer.since(mark)
        mark = tracer.mark()
        default, default_interval = grape.batch()
        default_spans = tracer.since(mark)
    finally:
        tracer.uninstall()
    if serial is None or default is None:
        return outcome

    def cold_batch(traced: bool, pair: int):
        report, interval = grape.batch()
        return None if report is None else interval.wall

    overhead, pairs = harness.trace_overhead(tracer, cold_batch, window_end, pairs=2)
    verify_seconds = grape.batches.verify()
    layers = tracer.layer_totals(default_spans)
    prewarm = default.prewarm
    outcome.metrics = {
        "pulse_speedup_geomean": harness.pulse_speedup(grape.jobs, serial.results),
        "aggregation.rounds": aggregation["rounds"],
        "aggregation.merges": aggregation["merges"],
        "dag.topological_orders": len(
            [span for span in serial_spans if span[1].startswith("dag.")]
        ),
        "control.model_evals": serial.cache_info["model_evals"],
        "control.grape_calls": default.cache_info["grape_calls"],
        "control.grape_evals": default.cache_info["grape_evals"],
        "control.grape_s": sum(tracer.durations("control.grape", default_spans)),
        "batch.prewarm_synthesized": prewarm["synthesized"],
        "batch.prewarm_dedup_ratio": prewarm["dedup_ratio"],
        "batch.prewarm_plan_s": layers["compiler.batch"]["total_s"],
        "batch.parallel_efficiency": tracer.worker_busy(default_spans)
        / (default_interval.wall * default.workers),
        "batch.serial_over_default": serial_interval.wall / default_interval.wall,
        "verify.ms_per_job": median(verify_seconds) * 1e3,
        "trace.overhead_frac": overhead,
    }
    outcome.counts = {
        "pulse_speedup_geomean": outcome.metrics["pulse_speedup_geomean"],
        "aggregation.rounds": aggregation["rounds"],
        "aggregation.merges": aggregation["merges"],
        "dag.topological_orders": outcome.metrics["dag.topological_orders"],
        "control.model_evals": outcome.metrics["control.model_evals"],
    }
    outcome.info.update(
        executor=default.executor, workers=default.workers, overhead_pairs=pairs
    )
    return outcome
