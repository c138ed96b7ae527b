"""Plumbing shared by the workloads: locating the sources, interleaved
sampling, host-speed normalization, checked batches and the correctness
gate, the tracing-overhead pairs, fresh-process set-up timing,
fingerprints and the deterministic-count store."""

from __future__ import annotations

import bisect
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
import typing
from pathlib import Path

from stats import geomean, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (traces, results, counts, service state).
OUT = ROOT / ".bench_out"


def require_sources() -> None:
    """Make ``src/`` importable, or exit 2 when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmark: no program sources at {SRC}; run from a full "
            f"checkout of the repository\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    #: Operations that raised, were rejected or timed out.
    failed: int = 0
    #: Correctness-gate failures, one line each; any fails the run.
    problems: list[str] = dataclasses.field(default_factory=list)
    #: What the failed operations reported, one line each.
    errors: list[str] = dataclasses.field(default_factory=list)
    #: Deterministic counts of a traced run (``catalog.DETERMINISTIC``).
    counts: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Sample counts, executor, workers and anything else worth keeping
    #: beside the metrics in the result file.
    info: dict = dataclasses.field(default_factory=dict)

    def fail(self, operations: int, problem: str) -> None:
        """Operations whose output failed the correctness gate."""
        self.failed += operations
        self.problems.append(problem)

    def error(self, operations: int, message: str) -> None:
        """Operations that raised, were rejected or timed out."""
        self.failed += operations
        self.errors.append(message)


def trace_targets():
    """The layer entry points a traced run wraps in spans:
    ``(owner, attribute, span name)``."""
    from repro.circuit.dag import GateDependenceGraph
    from repro.compiler import BatchCompiler, PassManager, passes
    from repro.control.grape import GrapeOptimizer
    from repro.control.unit import OptimalControlUnit
    from repro.service.client import ServiceClient

    from catalog import PASSES

    targets = [
        (BatchCompiler, "plan_prewarm", "batch.prewarm_plan"),
        (PassManager, "run", "job"),
        (GrapeOptimizer, "optimize", "control.grape"),
    ]
    targets += [(getattr(passes, name), "run", f"pass.{name}") for name in PASSES]
    targets += [
        (OptimalControlUnit, method, f"control.ocu.{method}")
        for method in ("latency", "model_latency", "synthesize_pulse")
    ]
    targets += [
        (GateDependenceGraph, method, f"dag.{method}")
        for method in ("topological_order", "stable_topological_order")
    ]
    targets += [
        (ServiceClient, method, f"rpc.{op}")
        for method, op in (("submit_job", "submit"), ("status", "status"), ("result", "result"))
    ]
    return targets


def child_env() -> dict:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# ----------------------------------------------------------------------
# Interleaved sampling


def interleave(seconds: float, steps, minimum: dict[str, int], monitor) -> None:
    """Run ``steps`` round-robin until ``seconds`` have passed.

    ``steps`` is a list of ``(kind, callable)`` pairs, each call taking
    one sample of its kind.  The host's speed drifts over minutes, so
    kinds alternate through the whole window and every kind sees the
    same mix of fast and slow periods.  A step starts while its kind has
    fewer than ``minimum[kind]`` samples, or when its slowest duration
    so far still fits in the window; the run ends once no step fits.
    ``monitor.calibrate()`` runs before the first step and after every
    step, so each sample lies between two calibrations and none runs
    during one.
    """
    deadline = time.perf_counter() + seconds
    slowest: dict[str, float] = {}
    taken: dict[str, int] = {}
    gc.collect()
    monitor.calibrate()
    while True:
        ran = False
        for kind, step in steps:
            needed = taken.get(kind, 0) < minimum.get(kind, 1)
            fits = time.perf_counter() + slowest.get(kind, 0.0) <= deadline
            if not (needed or fits):
                continue
            begun = time.perf_counter()
            step()
            gc.collect()
            monitor.calibrate()
            elapsed = time.perf_counter() - begun
            slowest[kind] = max(slowest.get(kind, 0.0), elapsed)
            taken[kind] = taken.get(kind, 0) + 1
            ran = True
        if not ran:
            return


# ----------------------------------------------------------------------
# Host speed


class Interval(typing.NamedTuple):
    """When a sample ran, in ``time.monotonic`` seconds."""

    start: float
    end: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def cpus() -> list[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def timed(function, *args, cpu: int | None = None):
    """``(function(*args), Interval)``, run pinned to ``cpu`` if given."""
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.monotonic()
        result = function(*args)
        end = time.monotonic()
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)
    return result, Interval(start, end)


class SpeedMonitor:
    """Measures how fast the host runs between samples, and reports
    each sample's time at a fixed reference speed.

    A shared cloud host runs the same code at speeds up to 1.7x apart:
    the vCPU itself slows (``thread_time`` tracks wall time, so no clock
    choice removes it), and a run is too short to average it out.  A
    helper process (``speed_probe.py``) holds a ring of objects and
    waits; each :meth:`calibrate` call has it time fixed work
    (``calibration.loop``) ``READINGS`` times on each CPU while the
    benchmark waits for the answer.  Calibrations run only between
    samples, never during one, so nothing the measured program does can
    move the readings its times are divided by.  A calibration's speed
    is its fastest CPU's: a neighbour that takes one vCPU slows the loop
    pinned there up to fourfold while the program's busy thread runs on
    the other one.  Over six seeds of a noisy hour the fastest CPU cut
    the spread of fig9-sweep's jobs_per_s to 5.8% and grape-cold's to
    7.6%, against 7.8% and 13.2% with the mean of the CPUs and 15.3%
    and 16.0% undivided.

    The speed swings fast: on a 2-vCPU host, calibrations about two
    seconds apart were nearly uncorrelated (lag-one autocorrelation
    0.15).  So the calibrations just before and just after a short
    sample describe it, and dividing by them halved the spread of the
    1 s probes of one 150 s trace (17.6% to 8.9%).  A sample longer than
    ``SHORT_S`` averages the swings itself; two snapshots beside it only
    add their own noise (warm batches: 6.6% raw, 9.9% divided), so it is
    divided by every calibration within its own length before and after
    it, which tracks the slower drift it shares (6.8%).
    """

    #: Readings per CPU in one calibration; their median is kept.
    READINGS = 3
    #: Seconds of one ``calibration.loop`` reading at reference speed:
    #: about the median reading on a 2-vCPU x86-64 cloud host under
    #: CPython 3.11.
    REFERENCE_LOOP_S = 0.0105
    #: Samples up to this long are divided by the calibrations beside
    #: them only.
    SHORT_S = 2.0

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed_probe.py"), str(self.READINGS)],
            cwd=BENCH_DIR,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        #: ``(time.monotonic(), {cpu: loop seconds})`` per calibration.
        self.readings: list[tuple[float, dict[int, float]]] = []
        #: ``(start, end)`` of each calibration, in ``time.monotonic``.
        self.pauses: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        # The helper builds its ring first and then says so.
        if self.process.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed monitor did not start")

    def __enter__(self) -> "SpeedMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """End the helper (idempotent)."""
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout and not self.process.stdout.closed:
            self.process.stdout.close()

    def calibrate(self) -> None:
        """Take one calibration now; the caller waits until it is done."""
        with self._lock:
            started = time.monotonic()
            self.process.stdin.write("\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("the speed monitor stopped")
            readings = {
                int(cpu): float(seconds)
                for cpu, seconds in (field.split(":") for field in line.split())
            }
            ended = time.monotonic()
            self.readings.append((ended, readings))
            self.pauses.append((started, ended))

    def slowdown(self, interval: Interval) -> float:
        """Mean slowdown against the reference over the calibrations
        from the last one at or before ``interval.start`` to the first
        one at or after ``interval.end``, widened by the interval's own
        length each side when it is longer than ``SHORT_S``."""
        if not self.readings:
            raise RuntimeError("the speed monitor took no readings")
        times = [at for at, _ in self.readings]
        reach = interval.wall if interval.wall > self.SHORT_S else 0.0
        first = min(
            bisect.bisect_right(times, interval.start) - 1,
            bisect.bisect_left(times, interval.start - reach),
        )
        last = max(
            bisect.bisect_left(times, interval.end),
            bisect.bisect_right(times, interval.end + reach) - 1,
        )
        loops = [
            min(readings.values())
            for _, readings in self.readings[max(first, 0) : min(last, len(times) - 1) + 1]
        ]
        return sum(loops) / len(loops) / self.REFERENCE_LOOP_S

    def calibrations(self) -> list[list]:
        """``[time.monotonic(), {cpu: loop seconds}]`` per calibration."""
        return [[at, readings] for at, readings in self.readings]

    def median_slowdown(self) -> float:
        """The run's median calibration over the reference."""
        loops = sorted(min(readings.values()) for _, readings in self.readings)
        return loops[len(loops) // 2] / self.REFERENCE_LOOP_S

    def raw_seconds(self, interval: Interval) -> float:
        """The interval's wall time less the calibrations inside it (a
        service stream pauses for them at its phase barriers)."""
        paused = sum(
            max(0.0, min(end, interval.end) - max(start, interval.start))
            for start, end in self.pauses
        )
        return interval.wall - paused

    def seconds(self, interval: Interval) -> float:
        """``raw_seconds`` at reference speed."""
        return self.raw_seconds(interval) / self.slowdown(interval)


# ----------------------------------------------------------------------
# Batches and the correctness gate


class BatchCheck:
    """Times batches of one job list and holds every batch to the first
    one's results.

    The first batch is kept for :meth:`verify` after the window; every
    later batch is compared with its canonical form as soon as it is
    timed and then dropped, so the heap the garbage collector walks does
    not grow through the run.
    """

    def __init__(self, jobs, outcome: Outcome) -> None:
        self.jobs = jobs
        self.outcome = outcome
        self.first = None
        self.expected: list[dict] = []

    def run(self, engine):
        """One timed batch: ``(report, Interval)``, or ``(None, None)``
        when the batch raised."""
        from repro.errors import ReproError
        from repro.ir import canonical_result_dict

        self.outcome.attempted += len(self.jobs)
        try:
            report, interval = timed(engine.compile_batch, self.jobs)
        except ReproError as error:
            self.outcome.error(len(self.jobs), f"batch raised {error!r}")
            return None, None
        canonical = [canonical_result_dict(result) for result in report.results]
        if self.first is None:
            self.first, self.expected = report, canonical
        for job, expected, got in zip(self.jobs, self.expected, canonical):
            if got != expected:
                self.outcome.fail(1, f"{job.label} differs from the first batch")
        return report, interval

    def verify(self, extra=()) -> list[float]:
        """``verify_results`` over the first batch's results and
        ``extra``."""
        items = list(extra)
        if self.first is not None:
            items += [
                (job.label, result, {})
                for job, result in zip(self.jobs, self.first.results)
            ]
        return verify_results(self.outcome, items)


def verify_results(outcome: Outcome, items) -> list[float]:
    """Check each ``(label, result, verify options)`` against its source
    with ``verify_equivalence``; a failure fails the gate.  Returns the
    seconds each call took."""
    seconds: list[float] = []
    for label, result, options in items:
        started = time.perf_counter()
        report = result.verify_equivalence(**options)
        seconds.append(time.perf_counter() - started)
        if not report:
            outcome.fail(1, f"{label} not equivalent: {report.summary()}")
    return seconds


def pulse_speedup(jobs, results) -> float:
    """Geomean over the batch's circuits of ISA latency over
    cls+aggregation latency (job labels are ``<circuit>/<strategy>``)."""
    latency = {job.label: result.latency_ns for job, result in zip(jobs, results)}
    names = sorted({job.circuit.name for job in jobs})
    return geomean(
        latency[f"{name}/isa"] / latency[f"{name}/cls+aggregation"] for name in names
    )


def aggregation_counter(totals: dict):
    """A pass callback summing ``AggregatePass`` rounds and merges into
    ``totals``."""

    def callback(pass_, context, elapsed) -> None:
        if pass_.name == "AggregatePass":
            metrics = context.metrics.get("AggregatePass", {})
            totals["rounds"] += metrics.get("rounds", 0)
            totals["merges"] += metrics.get("merges", 0)

    return callback


def trace_overhead(tracer, sample, window_end: float, pairs: int) -> tuple[float, int]:
    """``((traced - untraced) / untraced median wall time, pairs run)``.

    ``sample(traced, pair)`` runs one unit of work and returns its wall
    seconds, or None when it failed (the fraction is then NaN).  An
    untraced and a traced call make a pair, which goes first alternates
    from pair to pair, and pairs run until ``window_end`` with at least
    ``pairs`` of them.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    targets = trace_targets()
    pair = 0
    while pair < pairs or time.perf_counter() < window_end:
        first = pair % 2 == 0
        for traced in (first, not first):
            gc.collect()
            if traced:
                tracer.install(targets)
            try:
                seconds = sample(traced, pair)
            finally:
                tracer.uninstall()
            if seconds is None:
                return float("nan"), pair
            walls[traced].append(seconds)
        pair += 1
    plain = median(walls[False])
    return (median(walls[True]) - plain) / plain, pair


def setup_sample(backend: str) -> None:
    """A fresh interpreter imports the compiler and builds a default
    engine (``setup_probe.py``); time it spawn to exit."""
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), backend],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Fingerprint and deterministic counts


def source_digest() -> str:
    """sha256 over ``src/`` and the benchmark's own files."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else "unknown"


def fingerprint(executor: str, workers: int) -> dict:
    """Machine and source identity recorded with every result."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "executor": executor,
        "workers": workers,
    }


def check_counts(workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare ``counts`` with the record of an earlier traced run of
    the same seed on the same sources; store them when there is none.

    Returns the names of counts that differ (empty when they repeat or
    this is the first record).
    """
    directory = OUT / "counts"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-seed{seed}-{digest[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    stored = json.loads(path.read_text())
    return sorted(
        name
        for name in set(stored) | set(counts)
        if stored.get(name) != counts.get(name)
    )
