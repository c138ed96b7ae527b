"""Fleet-shared pulse cache: a server and two independent clients.

Starts an in-process cache server (the same one ``python -m
repro.control.cache`` runs standalone), then compiles a small
GRAPE-backed batch through two *separate* client engines, each with its
own empty local cache, both pointed at the server.  The first client
pays for every pulse synthesis; its results are pushed to the server as
a delta, so the second client compiles the same batch without running
the optimal-control stack at all — the fleet synthesizes each distinct
signature exactly once.

Run:  python examples/shared_cache.py
"""

from __future__ import annotations

import time

from repro.circuit.circuit import Circuit
from repro.compiler import BatchCompiler, BatchJob
from repro.control.cache import (
    CacheServer,
    PulseCache,
    RemotePulseCache,
    cache_summary,
)


def build_jobs() -> list[BatchJob]:
    """A small batch with repeated structure across jobs."""
    jobs: list[BatchJob] = []
    for i in range(2):
        chain = Circuit(3, name=f"chain{i}")
        chain.h(0)
        chain.cnot(0, 1)
        chain.cnot(1, 2)
        chain.rz(0.3, 2)
        jobs.append(
            BatchJob(circuit=chain, strategy="aggregation", label=f"chain{i}")
        )
    return jobs


def run_client(name: str, url: str, jobs: list[BatchJob]):
    """One fleet member: fresh engine, fresh local cache, shared server."""
    cache = RemotePulseCache(url)
    engine = BatchCompiler(backend="grape", cache=cache)
    started = time.perf_counter()
    report = engine.compile_batch(jobs)
    elapsed = time.perf_counter() - started
    engine.save_cache()  # push the pending delta to the server
    info = report.cache_info
    print(f"{name}: {elapsed:5.2f}s wall, {info['grape_calls']:2d} GRAPE "
          f"calls, {info['model_evals']:3d} model evals")
    print(f"{name}: {cache_summary(engine.cache_stats())}")
    cache.close()
    return report


def main() -> int:
    jobs = build_jobs()
    with CacheServer(PulseCache()) as server:
        print(f"cache server listening on {server.url}")
        first = run_client("client 1 (cold)", server.url, jobs)
        second = run_client("client 2 (warm)", server.url, jobs)
        stats = server.stats()
        print(f"server: {stats['latency_entries']} latencies + "
              f"{stats['pulse_entries']} pulses, "
              f"{stats['server_requests']} requests")

    parity = all(
        a.latency_ns == b.latency_ns for a, b in zip(first, second)
    )
    warm_info = second.cache_info
    if not parity:
        print("FAIL: clients disagreed on compiled latencies")
        return 1
    if warm_info["grape_calls"] or warm_info["model_evals"]:
        print("FAIL: the second client re-ran optimal control the fleet "
              "already paid for")
        return 1
    print(f"OK: second client reused all "
          f"{first.cache_info['grape_calls']} pulses from the shared "
          f"server and ran zero optimal-control work")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
