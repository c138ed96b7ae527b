"""fig9-sweep: the paper's Figure 9 sweep on the default engine.

Four circuits (maxcut-line-6, ising-6, sqrt-9, uccsd-4) under the five
Figure 9 strategies make a 20-job batch.  The seed draws the QAOA,
Ising and UCCSD angles and the job order.  Each job is compiled once,
in that order, on a fresh default ``BatchCompiler()``, which warms its
pulse cache.  Then warm compiles of one job each on that engine, job
after job, alternate with fresh-process set-ups through the window.
``jobs_per_s`` is the sweep's 20 jobs over the sum of the jobs' median
compile times, at reference host speed (``harness.SpeedMonitor``).  A
warm batch of the whole sweep takes 6-10 s: too long for the speed
monitor's calibrations beside it to describe it, and too few fit in a
run for a steady median; one job takes 2 ms to 1.5 s (sqrt-9 under
the aggregation strategies is about two thirds of the sweep).  The
cold pass's throughput, the raw wall-time metrics, every sample and
every calibration go to the result file.
"""

from __future__ import annotations

import random
import time

import harness
from catalog import PASSES
from stats import median

#: Seeded angles and Ising parameters are the suite's values scaled by a
#: factor from this range.  The maxcut ISA/aggregated latency ratio is
#: sensitive to the angles (4.7 to 5.7 over +-10%), so the across-seed
#: spread of ``pulse_speedup_geomean`` would measure the draw instead of
#: the compiler: its quartile spread over ten seeds is 2.7% at +-5% and
#: 1.2% at +-2%.
SPREAD = (0.98, 1.02)
#: Warm compiles each job takes at least, and set-ups.  One pass over
#: the sweep's jobs takes 4-6 s on a 2-vCPU host, with the speed
#: monitor's calibrations and two set-ups 7-10 s, so the 30 s window
#: takes three or four passes and these floors never lengthen a run.
WARM_MINIMUM = 2
SETUP_MINIMUM = 5


def make_inputs(seed: int):
    """The 20 sweep jobs in seeded order."""
    from repro.benchmarks.grover import grover_sqrt_circuit
    from repro.benchmarks.ising import ising_model_circuit
    from repro.benchmarks.qaoa import (
        PAPER_BETA,
        PAPER_GAMMA,
        line_graph,
        maxcut_qaoa_circuit,
    )
    from repro.benchmarks.uccsd import uccsd_ansatz_circuit
    from repro.compiler import BatchJob, all_strategies

    rng = random.Random(seed)
    circuits = [
        maxcut_qaoa_circuit(
            line_graph(6),
            gamma=PAPER_GAMMA * rng.uniform(*SPREAD),
            beta=PAPER_BETA * rng.uniform(*SPREAD),
            name="maxcut-line-6",
        ),
        ising_model_circuit(6, **ising_parameters(rng), name="ising-6"),
        grover_sqrt_circuit(2, name="sqrt-9"),
        uccsd_ansatz_circuit(4, seed=rng.randrange(2**31), name="uccsd-4"),
    ]
    jobs = [
        BatchJob(circuit=circuit, strategy=strategy, label=f"{circuit.name}/{strategy.key}")
        for circuit in circuits
        for strategy in all_strategies()
    ]
    rng.shuffle(jobs)
    return jobs


def ising_parameters(rng: random.Random) -> dict:
    """Seeded coupling, field and time step near the suite's defaults."""
    return {
        "coupling": 1.0 * rng.uniform(*SPREAD),
        "field": 0.8 * rng.uniform(*SPREAD),
        "dt": 0.5 * rng.uniform(*SPREAD),
    }


class Fig9Sweep:
    """One timed run's state: inputs, the default engine and the samples."""

    def __init__(self, seed: int) -> None:
        self.jobs = make_inputs(seed)
        self.outcome = harness.Outcome()
        #: Job label -> the ``BatchCheck`` of its one-job compiles.
        self.checks = {job.label: harness.BatchCheck([job], self.outcome) for job in self.jobs}
        #: Kind (a job's label, or "setup") -> ``Interval`` per sample.
        self.samples = {kind: [] for kind in [*self.checks, "setup"]}
        self.engine = None
        #: ``Interval`` of each job's cold compile.
        self.cold_intervals = []

    # -- samples ---------------------------------------------------------

    def cold(self) -> bool:
        """Compile every job once, in seeded order, on a fresh default
        engine: the results the gate verifies and every warm compile
        must reproduce.  False when a compile raised."""
        from repro.compiler import BatchCompiler

        self.engine = BatchCompiler()
        for check in self.checks.values():
            report, interval = check.run(self.engine)
            if report is None:
                return False
            self.cold_intervals.append(interval)
        return True

    def warm(self, label: str) -> None:
        """One warm compile of a job, held to its cold result."""
        report, interval = self.checks[label].run(self.engine)
        if report is not None:
            self.samples[label].append(interval)

    def setup(self) -> None:
        self.samples["setup"].append(harness.timed(harness.setup_sample, "model")[1])

    def steps(self):
        """Each job's warm compile in turn, a set-up after every ten."""
        steps = []
        for index, label in enumerate(self.checks):
            steps.append((label, lambda label=label: self.warm(label)))
            if index % 10 == 9:
                steps.append(("setup", self.setup))
        return steps

    def minimum(self) -> dict[str, int]:
        return {**dict.fromkeys(self.checks, WARM_MINIMUM), "setup": SETUP_MINIMUM}

    def metrics(self, seconds) -> dict[str, float]:
        """The timed metrics, each sample's time taken by ``seconds``
        (``SpeedMonitor.seconds`` or ``SpeedMonitor.raw_seconds``)."""
        sweep_s = sum(
            median(seconds(interval) for interval in self.samples[label])
            for label in self.checks
        )
        return {
            "setup_s": median(seconds(interval) for interval in self.samples["setup"]),
            "jobs_per_s": len(self.jobs) / sweep_s,
            "cold_jobs_per_s": len(self.jobs)
            / sum(seconds(interval) for interval in self.cold_intervals),
        }


def run(seed: int, seconds: float) -> harness.Outcome:
    """The timed run: end-to-end metrics, tracing off."""
    sweep = Fig9Sweep(seed)
    with harness.SpeedMonitor() as monitor:
        monitor.calibrate()
        if not sweep.cold():
            return sweep.outcome
        harness.interleave(seconds, sweep.steps(), sweep.minimum(), monitor)
    outcome = sweep.outcome
    timed = sweep.metrics(monitor.seconds)
    outcome.metrics = {"setup_s": timed["setup_s"], "jobs_per_s": timed["jobs_per_s"]}
    for check in sweep.checks.values():
        check.verify()
    outcome.metrics["peak_rss_mb"] = harness.peak_rss_mb()
    first = sweep.checks[sweep.jobs[0].label].first
    outcome.info.update(
        cold_jobs_per_s=timed["cold_jobs_per_s"],
        raw_metrics=sweep.metrics(monitor.raw_seconds),
        host_slowdown=monitor.median_slowdown(),
        samples={
            kind: [[*interval, monitor.seconds(interval)] for interval in intervals]
            for kind, intervals in sweep.samples.items()
        },
        calibrations=monitor.calibrations(),
        executor=first.executor,
        workers=first.workers,
    )
    return outcome


def run_traced(seed: int, seconds: float, tracer) -> harness.Outcome:
    """The traced run: per-layer metrics from spans and counters."""
    from repro.compiler import BatchCompiler

    jobs = make_inputs(seed)
    outcome = harness.Outcome()
    batches = harness.BatchCheck(jobs, outcome)
    aggregation = {"rounds": 0, "merges": 0}
    serial = BatchCompiler(
        max_workers=1, pass_callbacks=[harness.aggregation_counter(aggregation)]
    )
    engine = BatchCompiler()
    window_end = time.perf_counter() + seconds
    tracer.install(harness.trace_targets())
    try:
        # Serial cold batch: the deterministic counts.
        mark = tracer.mark()
        serial_cold, _ = batches.run(serial)
        serial_spans = tracer.since(mark)
        # Default cold batch: optimal-control cost.
        mark = tracer.mark()
        default_cold, _ = batches.run(engine)
        cold_layers = tracer.layer_totals(tracer.since(mark))
        serial_warm, serial_interval = batches.run(serial)
        stats_before = engine.cache.stats()
        mark = tracer.mark()
        default_warm, default_interval = batches.run(engine)
        warm_spans = tracer.since(mark)
        stats_after = engine.cache.stats()
    finally:
        tracer.uninstall()
    if None in (serial_cold, default_cold, serial_warm, default_warm):
        return outcome
    # The overhead's unit of work: one warm serial compile of the
    # sweep's largest job under cls+aggregation, alternating the CPUs.
    probe = max(
        (job for job in jobs if job.label.endswith("/cls+aggregation")),
        key=lambda job: len(job.circuit.gates),
    )
    cpus = harness.cpus()

    def probe_compile(traced: bool, pair: int):
        from repro.errors import ReproError

        outcome.attempted += 1
        try:
            _, interval = harness.timed(
                serial.compile, probe.circuit, probe.strategy, cpu=cpus[pair % len(cpus)]
            )
        except ReproError as error:
            outcome.error(1, f"{probe.label} overhead compile raised {error!r}")
            return None
        return interval.wall

    overhead, pairs = harness.trace_overhead(tracer, probe_compile, window_end, pairs=4)
    verify_seconds = batches.verify()
    info = default_warm.cache_info
    queries = info["cache_hits"] + info["model_evals"]
    outcome.metrics = {
        "pulse_speedup_geomean": harness.pulse_speedup(jobs, serial_cold.results),
        **{
            f"pass.{name}.s": sum(tracer.durations(f"pass.{name}", warm_spans))
            for name in PASSES
        },
        "aggregation.rounds": aggregation["rounds"],
        "aggregation.merges": aggregation["merges"],
        "dag.topological_orders": len(
            [span for span in serial_spans if span[1].startswith("dag.")]
        ),
        "control.ocu_calls": cold_layers["control"]["calls"],
        "control.ocu_s": cold_layers["control"]["total_s"],
        "control.model_evals": serial_cold.cache_info["model_evals"],
        "control.cache_hit_ratio": info["cache_hits"] / queries if queries else 0.0,
        "pulse_cache.hits": stats_after["store_hits"] - stats_before["store_hits"],
        "pulse_cache.misses": stats_after["store_misses"] - stats_before["store_misses"],
        "pulse_cache.lookup_s": stats_after["lookup_seconds"] - stats_before["lookup_seconds"],
        "batch.parallel_efficiency": tracer.worker_busy(warm_spans)
        / (default_interval.wall * default_warm.workers),
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
        executor=default_warm.executor,
        workers=default_warm.workers,
        overhead_pairs=pairs,
    )
    return outcome
