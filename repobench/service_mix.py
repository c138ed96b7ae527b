"""service-mix: a seeded stream against ``python -m repro.service``.

Each stream starts a fresh server subprocess (journal and result cache
on, every other setting at its default) and runs a closed loop of two
client connections, one thread each: a client sends its next
submission only after the previous artifact arrived.

The traffic follows the repository's own service clients.  The runner's
``--submit-url`` sends a figure-9 table (benchmarks under strategies),
and the CI service job sends maxcut-line-6 and ising-6 and then
resubmits the same table in full.  So in every block each client sends
a table of two random circuits shaped like those two benchmarks at
small scale (6 qubits, 27 and 21 gates) under isa, cls and
cls+aggregation, and then resubmits the table in full, which the result
cache serves: half the stream is hits.  One more job per block, a third
circuit under cls+aggregation, is sent by both clients at once, so the
second submission coalesces onto the first; that one pair per client
per block is a choice of this benchmark, not taken from a client.  The
stream length is fixed because the journal rewrites its whole manifest
on every transition, so per-job cost grows with stream length; the run
repeats the same stream on fresh servers, alternating with bare server
set-ups, until the window closes.

``jobs_per_s`` is completed submissions per second of stream wall
time, at reference host speed (``harness.SpeedMonitor``, calibrated
while both clients wait at the block's phase barriers); the traced
run's ``pulse_speedup_geomean`` is taken over the table circuits.  The
result file also keeps client-timed latencies from submit to the
received artifact, polling every ``POLL_SECONDS`` (far below the
compile times, unlike the client's default 100 ms poll): compiling
submissions and cache-served repeats apart, so no percentile falls on
the boundary between their two latency bands.  The resubmissions run
in a phase of their own, after both clients' compiles, so a hit
measures the wire, the result cache and serialization rather than the
server's interpreter lock held by the other client's compile.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

import harness
from catalog import PASSES
from stats import MIN_TAIL, median, percentile

#: Blocks per stream: 14 compiling submissions each.
BLOCKS = 3
#: ``(qubits, gates)`` of maxcut-line-6 and ising-6 in the small-scale
#: figure-9 table: the shapes of each client's own table.
TABLE_SHAPES = ((6, 27), (6, 21))
STRATEGIES = ("isa", "cls", "cls+aggregation")
#: The coalesced pair's circuit and strategy (slow enough to be in
#: flight when the second client submits it).
PAIR_SHAPE = (6, 27)
PAIR_STRATEGY = "cls+aggregation"
POLL_SECONDS = 0.01
#: A submission with no artifact after this long counts as failed.
SUBMISSION_TIMEOUT = 60.0
#: Samples each kind takes at least.  A stream takes 7-10 s on a 2-vCPU
#: host and a set-up about 1 s, so the 30 s window takes two or three
#: streams; the third stream's floor keeps the run's 126 compiling
#: submissions and its spread (1.7% over ten seeds with three streams,
#: 7.8% when some runs took two), at up to 15 s more on a slow host.
MINIMUM = {"stream": 3, "setup": 5}


class Action:
    """One submission of the stream."""

    __slots__ = ("kind", "key", "envelope", "pair", "sync")

    def __init__(self, kind: str, key: str, envelope: dict, pair=None, sync=None):
        self.kind = kind  # "fresh", "pair" or "repeat"
        self.key = key
        self.envelope = envelope
        #: The block of a pair submission.
        self.pair = pair
        #: None, or the barrier both clients meet at before sending it:
        #: "phase" (start of a block's compile or resubmission phase) or
        #: "pair".
        self.sync = sync


def make_stream(seed: int):
    """Per-client action lists and the distinct jobs they submit."""
    from repro.compiler import BatchJob
    from repro.ir.serialize import batch_job_to_dict
    from repro.testing.generators import layered_circuit

    rng = random.Random(seed)
    jobs: dict[str, object] = {}

    def table_row(shape, name, strategies):
        """Actions of one circuit under ``strategies``."""
        qubits, gates = shape
        circuit = layered_circuit(qubits, gates, seed=rng.randrange(2**31), name=name)
        row = []
        for strategy in strategies:
            key = f"{name}/{strategy}"
            jobs[key] = BatchJob(circuit=circuit, strategy=strategy, label=key)
            row.append(Action("fresh", key, batch_job_to_dict(jobs[key])))
        return row

    actions: list[list[Action]] = [[], []]
    for block in range(BLOCKS):
        (pair,) = table_row(PAIR_SHAPE, f"pair-{block}", (PAIR_STRATEGY,))
        for client in (0, 1):
            sequence = [
                action
                for index, shape in enumerate(TABLE_SHAPES)
                for action in table_row(shape, f"c{client}-b{block}-t{index}", STRATEGIES)
            ]
            rng.shuffle(sequence)
            sequence.insert(
                len(sequence) // 2,
                Action("pair", pair.key, pair.envelope, pair=block, sync="pair"),
            )
            sequence[0].sync = "phase"
            resubmission = [
                Action("repeat", action.key, action.envelope) for action in sequence
            ]
            resubmission[0].sync = "phase"
            actions[client] += sequence + resubmission
    return actions, jobs


class ServerProcess:
    """One ``python -m repro.service`` subprocess on a free port."""

    def __init__(self, directory) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.journal = os.path.join(directory, "journal")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--port",
                "0",
                "--journal",
                self.journal,
                "--result-cache",
                os.path.join(directory, "results"),
            ],
            env=harness.child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.url = self._listening_url(timeout=60.0)
            from repro.service.client import ServiceClient

            with ServiceClient(self.url) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise

    def _listening_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError("compile service did not start")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def journal_kb(self) -> float:
        return os.path.getsize(os.path.join(self.journal, "journal.json")) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        shutil.rmtree(self.directory, ignore_errors=True)


class ServiceMix:
    def __init__(self, seed: int, monitor=None) -> None:
        self.actions, jobs = make_stream(seed)
        self.outcome = harness.Outcome()
        #: Calibrated at every phase barrier of a stream, when set.
        self.monitor = monitor
        #: Per stream: a dict of its records (see :meth:`stream`).
        self.streams: list[dict] = []
        #: ``Interval`` of each set-up (spawn to first answered ping).
        self.setups: list = []
        self.base = harness.OUT / "service" / f"run-{os.getpid()}"
        self.expected, self.verify_seconds = self._reference(jobs)

    def _reference(self, jobs) -> tuple[dict[str, dict], list[float]]:
        """Compile every distinct job in-process and verify it against
        its source: the canonical form each service artifact must equal,
        and the seconds each verify call took.  Also sets
        ``self.speedup``, the pulse speedup over the table circuits that
        compiled."""
        from repro.compiler import BatchCompiler
        from repro.errors import ReproError
        from repro.ir import canonical_result_dict

        engine = BatchCompiler(max_workers=1)
        expected: dict[str, dict] = {}
        results = {}
        for key, job in jobs.items():
            self.outcome.attempted += 1
            try:
                results[key] = engine.run_job(job)[0]
            except ReproError as error:
                self.outcome.error(1, f"{key} failed to compile in-process: {error}")
                expected[key] = None
        verify_seconds = harness.verify_results(
            self.outcome, [(key, result, {}) for key, result in results.items()]
        )
        expected.update(
            (key, canonical_result_dict(result)) for key, result in results.items()
        )
        # The table circuits (the ones also submitted under isa) whose
        # in-process compiles all succeeded.
        tables = {key.split("/")[0] for key in jobs if key.endswith("/isa")}
        tables -= {key.split("/")[0] for key in jobs if key not in results}
        keys = [key for key in results if key.split("/")[0] in tables]
        self.speedup = harness.pulse_speedup(
            [jobs[key] for key in keys], [results[key] for key in keys]
        )
        return expected, verify_seconds

    def _start(self, name: str):
        """A fresh server, its set-up timed; None when it failed."""
        from repro.errors import ServiceError

        self.outcome.attempted += 1
        try:
            server, interval = harness.timed(ServerProcess, self.base / name)
        except (RuntimeError, OSError, ServiceError) as error:
            self.outcome.error(1, f"server start failed: {error}")
            return None
        self.setups.append(interval)
        return server

    def setup(self) -> None:
        """One bare set-up sample: start a server, then stop it."""
        server = self._start(f"setup-{len(self.setups)}")
        if server is not None:
            server.stop()

    def stream(self, status: bool = False, keep: bool = False) -> dict | None:
        """Start a fresh server, run the stream on it, stop it, and check
        every artifact against the in-process compile of its job.

        The record holds the ``Interval`` of the whole stream and of
        every submission (submit to received artifact).  ``status`` also
        fetches each compiled job's server-side status after its
        artifact arrived (the traced run's queue and run times).
        Artifacts are dropped once checked unless ``keep`` is set, so
        the client's heap does not grow from stream to stream.
        """
        from repro.ir import canonical_result_dict
        from repro.service.client import ServiceClient

        number = len(self.streams)
        server = self._start(f"stream-{number}")
        if server is None:
            return None
        record = {"errors": [], "failures": [], "statuses": []}
        try:
            samples, record["wall"] = harness.timed(
                self._clients, server.url, status, record
            )
            with ServiceClient(server.url) as client:
                record["stats"] = client.stats()
            record["peak_rss_mb"] = server.peak_rss_mb()
            record["journal_kb"] = server.journal_kb()
        finally:
            server.stop()
        record["samples"] = samples
        submitted = sum(len(actions) for actions in self.actions)
        self.outcome.attempted += submitted
        failures = record["failures"]
        if failures:
            self.outcome.error(
                len(failures), f"stream {number}: submissions failed: {failures}"
            )
        missing = submitted - len(record["samples"]) - len(failures)
        if missing or record["errors"]:
            self.outcome.error(missing, f"stream {number}: {record['errors']}")
        for _, key, _, artifact in record["samples"]:
            if canonical_result_dict(artifact) != self.expected[key]:
                self.outcome.fail(
                    1, f"stream {number}: artifact of {key} differs from a local compile"
                )
        if not keep:
            record["samples"] = [sample[:3] + (None,) for sample in record["samples"]]
        self.streams.append(record)
        return record

    def _clients(self, url: str, status: bool, record: dict) -> list[tuple]:
        """Run both clients' actions against the server at ``url``;
        returns ``(kind, key, Interval, artifact)`` per completed
        submission.  A submission the server rejects, fails or does not
        finish within ``SUBMISSION_TIMEOUT`` goes to ``record["failures"]``
        and the client carries on; an error that stops a client goes to
        ``record["errors"]``."""
        from repro.errors import ReproError, ServiceError
        from repro.service.client import ServiceClient

        samples: list[tuple] = []
        calibrate = self.monitor.calibrate if self.monitor is not None else None
        barriers = {
            "phase": threading.Barrier(2, action=calibrate),
            "pair": threading.Barrier(2),
        }
        pair_sent = [threading.Event() for _ in range(BLOCKS)]
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            with ServiceClient(url) as client:
                try:
                    for action in self.actions[index]:
                        leads_pair = action.kind == "pair" and index == 0
                        if action.sync is not None:
                            barriers[action.sync].wait(timeout=60)
                            if action.kind == "pair" and index == 1:
                                pair_sent[action.pair].wait(timeout=60)
                        started = time.monotonic()
                        try:
                            job_id = client.submit_job(action.envelope)
                            if leads_pair:
                                pair_sent[action.pair].set()
                            artifact = await_artifact(client, job_id)
                        except ServiceError as error:
                            with lock:
                                record["failures"].append(f"{action.key}: {error}")
                            continue
                        finally:
                            if leads_pair:
                                pair_sent[action.pair].set()
                        interval = harness.Interval(started, time.monotonic())
                        job_status = None
                        if status and action.kind != "repeat":
                            job_status = client.status(job_id)
                        with lock:
                            samples.append((action.kind, action.key, interval, artifact))
                            if job_status is not None:
                                record["statuses"].append((action.kind, job_status))
                except (ReproError, OSError, threading.BrokenBarrierError) as error:
                    for barrier in barriers.values():
                        barrier.abort()
                    for event in pair_sent:
                        event.set()
                    with lock:
                        record["errors"].append(f"client {index}: {error!r}")

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"client-{index}")
            for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples

    def metrics(self, seconds) -> dict[str, float]:
        """The timed metrics of the streams that ran to the end, each
        interval's time taken by ``seconds``, and the latencies for the
        result file (the p90 once 100 compiling submissions give it ten
        samples beyond it)."""
        streams = [record for record in self.streams if not record["errors"]]
        compiling = []
        hits = []
        for record in streams:
            for kind, _, interval, _ in record["samples"]:
                (hits if kind == "repeat" else compiling).append(seconds(interval) * 1e3)
        completed = sum(len(record["samples"]) for record in streams)
        metrics = {
            "setup_s": median(seconds(interval) for interval in self.setups),
            "jobs_per_s": completed
            / sum(seconds(record["wall"]) for record in streams),
            "done_ms_p50": median(compiling),
            "hit_ms_p50": median(hits),
        }
        if len(compiling) * 0.1 >= MIN_TAIL:
            metrics["done_ms_p90"] = percentile(compiling, 90.0)
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def await_artifact(client, job_id: str):
    """Poll every ``POLL_SECONDS`` for the job's artifact; raises
    ``ServiceError`` when the job failed or ``SUBMISSION_TIMEOUT``
    passed."""
    from repro.errors import ServiceError

    deadline = time.monotonic() + SUBMISSION_TIMEOUT
    artifact = client.result(job_id)
    while artifact is None:
        if time.monotonic() > deadline:
            raise ServiceError(f"job {job_id} timed out after {SUBMISSION_TIMEOUT:.0f}s")
        time.sleep(POLL_SECONDS)
        artifact = client.result(job_id)
    return artifact


def run(seed: int, seconds: float) -> harness.Outcome:
    """The timed run: end-to-end metrics, tracing off."""
    with harness.SpeedMonitor() as monitor:
        mix = ServiceMix(seed, monitor)
        harness.interleave(
            seconds, [("stream", mix.stream), ("setup", mix.setup)], MINIMUM, monitor
        )
    mix.close()
    outcome = mix.outcome
    streams = [record for record in mix.streams if not record["errors"]]
    if not streams:
        return outcome
    timed = mix.metrics(monitor.seconds)
    outcome.metrics = {
        "setup_s": timed.pop("setup_s"),
        "jobs_per_s": timed.pop("jobs_per_s"),
        "peak_rss_mb": median(record["peak_rss_mb"] for record in streams),
    }
    kinds = [kind for record in streams for kind, *_ in record["samples"]]
    outcome.info.update(
        latencies_ms=timed,
        raw_metrics=mix.metrics(monitor.raw_seconds),
        host_slowdown=monitor.median_slowdown(),
        streams=len(mix.streams),
        samples={
            "setup": len(mix.setups),
            "compiling": sum(kind != "repeat" for kind in kinds),
            "hits": kinds.count("repeat"),
        },
        executor="thread",
        workers=streams[0]["stats"]["workers"],
    )
    return outcome


def run_traced(seed: int, seconds: float, tracer) -> harness.Outcome:
    """The traced run: per-layer metrics from spans, server status and
    stats; traced and untraced streams alternate for the overhead."""
    from repro.ir import serialize

    mix = ServiceMix(seed)
    outcome = mix.outcome
    window_end = time.perf_counter() + seconds
    traced_records: list[dict] = []

    def stream(traced: bool, pair: int):
        if not traced:
            record = mix.stream(status=True)
        else:
            record = tracer.call("stream", mix.stream, True, not traced_records)
            if record is not None:
                traced_records.append(record)
        return None if record is None else record["wall"].wall

    overhead, pairs = harness.trace_overhead(tracer, stream, window_end, pairs=2)
    mix.close()
    if not traced_records:
        return outcome
    first = traced_records[0]
    distinct = {}
    for kind, key, _, artifact in first["samples"]:
        if kind != "repeat":
            distinct.setdefault(key, artifact)
    rpc = {
        op: [seconds * 1e3 for seconds in tracer.durations(f"rpc.{op}")]
        for op in ("submit", "status", "result")
    }
    sizes_kb = []
    for artifact in distinct.values():
        text = tracer.call("ir.dumps", serialize.dumps, artifact)
        tracer.call("ir.loads", serialize.loads, text)
        sizes_kb.append(len(text.encode()) / 1024.0)
    statuses = [
        status
        for record in traced_records
        for _, status in record["statuses"]
        if status.get("started_at") is not None
    ]
    stats = first["stats"]
    outcome.metrics = {
        "pulse_speedup_geomean": mix.speedup,
        **{
            f"pass.{name}.s": sum(
                artifact.pass_seconds.get(name, 0.0) for artifact in distinct.values()
            )
            for name in PASSES
        },
        "result_cache.hits": stats["result_cache"]["hits"],
        "result_cache.misses": stats["result_cache"]["misses"],
        "ir.dumps_ms": median(tracer.durations("ir.dumps")) * 1e3,
        "ir.loads_ms": median(tracer.durations("ir.loads")) * 1e3,
        "ir.result_kb": median(sizes_kb),
        "service.submit_rpc_ms": median(rpc["submit"]),
        "service.status_rpc_ms": median(rpc["status"]),
        "service.result_rpc_ms": median(rpc["result"]),
        "service.queue_wait_ms": median(
            (status["started_at"] - status["submitted_at"]) * 1e3 for status in statuses
        ),
        "service.run_ms": median(
            (status["finished_at"] - status["started_at"]) * 1e3 for status in statuses
        ),
        "service.coalesced": stats["coalesced_submissions"],
        "service.rejected_busy": stats["rejected_busy"],
        "service.journal_kb": first["journal_kb"],
        "verify.ms_per_job": median(mix.verify_seconds) * 1e3,
        "trace.overhead_frac": overhead,
    }
    outcome.counts = {
        "pulse_speedup_geomean": mix.speedup,
        "result_cache.hits": outcome.metrics["result_cache.hits"],
        "service.coalesced": outcome.metrics["service.coalesced"],
    }
    outcome.info.update(
        streams=len(mix.streams),
        overhead_pairs=pairs,
        executor="thread",
        workers=stats["workers"],
    )
    return outcome
