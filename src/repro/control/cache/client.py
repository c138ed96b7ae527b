"""Client side of the shared cache: read-through, write-behind.

:class:`RemotePulseCache` subclasses :class:`PulseCache`, so the whole
compiler stack mounts it unchanged: the in-memory base acts as the local
L1, remote round trips happen only on L1 misses, and writes are buffered
into a pending :class:`CacheDelta` that uploads in batches (amortizing
one socket round trip over many entries).  The fleet-wide exactly-once
guarantee comes from :meth:`exclusive`, which holds a server-side lease
for the signature being synthesized and publishes the finished pulse
before releasing it.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time

from repro.control.cache.protocol import (
    ProtocolError,
    WireConnection,
    encode_latency_key,
    encode_pulse_key,
)
from repro.control.cache.store import CacheDelta, PulseCache
from repro.control.grape import GrapeResult

#: Entries buffered locally before a background ``push_delta`` upload.
DEFAULT_FLUSH_THRESHOLD = 32

#: Lease poll cadence while another client synthesizes our signature.
_LEASE_POLL_SECONDS = 0.05
_LEASE_POLL_MAX_SECONDS = 1.0


class RemotePulseCache(PulseCache):
    """A :class:`PulseCache` backed by a shared cache server.

    Args:
        url: Server address, ``host:port`` or ``tcp://host:port``.
        max_bytes: Optional LRU budget for the *local* L1 (the server
            enforces its own budget fleet-wide).
        flush_threshold: Buffered entries that trigger an upload; 0
            writes through on every put.
        timeout: Socket timeout per round trip, seconds.
        lock_ttl: Optional lease length (seconds) requested with each
            ``lock`` op; ``None`` accepts the server's default.  Raise
            it for syntheses that may outlive the server-side default —
            the server clamps the request to its own ceiling.
    """

    def __init__(
        self,
        url: str,
        max_bytes: int | None = None,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        timeout: float = 30.0,
        lock_ttl: float | None = None,
    ) -> None:
        super().__init__(max_bytes=max_bytes)
        self.url = url
        self._wire = WireConnection(url, timeout)
        self.flush_threshold = max(0, int(flush_threshold))
        self.lock_ttl = lock_ttl
        self.owner = f"{socket.gethostname()}:{os.getpid()}:{id(self):x}"
        self._pending = CacheDelta()
        #: Serializes the pending delta and the request counters across
        #: the batch engine's thread-pool workers, which all read through
        #: one shared client.  Reentrant because ``flush`` calls
        #: ``_request`` while holding it.  (The inherited ``_lock``
        #: covers only the in-memory L1.)
        self._io_lock = threading.RLock()
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_requests = 0
        self.remote_seconds = 0.0
        self.flushes = 0
        self.flushed_entries = 0
        self.lease_wait_seconds = 0.0

    # -- pickling: the connection travels without its socket ------------

    def __getstate__(self):
        self.flush()
        state = super().__getstate__()
        del state["_io_lock"]
        return state

    def __setstate__(self, state) -> None:
        super().__setstate__(state)
        self._io_lock = threading.RLock()
        # A forked/unpickled copy is a distinct lease holder.
        self.owner = f"{socket.gethostname()}:{os.getpid()}:{id(self):x}"

    # -- transport -------------------------------------------------------

    def _request(self, payload: dict) -> dict:
        """One round trip (see :class:`WireConnection`), counted."""
        with self._io_lock:
            started = time.perf_counter()
            response = self._wire.request(payload)
            self.remote_requests += 1
            self.remote_seconds += time.perf_counter() - started
        if not response.get("ok"):
            raise ProtocolError(
                f"cache server {self.url}: {response.get('error', 'unknown error')}"
            )
        return response

    # -- lookups: L1 first, then the server ------------------------------

    def get_latency(self, key: tuple) -> float | None:
        value = super().get_latency(key)
        if value is not None:
            return value
        response = self._request(
            {"op": "get_latency", "key": encode_latency_key(key)}
        )
        if not response["found"]:
            self.remote_misses += 1
            return None
        self.remote_hits += 1
        value = float(response["value"])
        with self._lock:
            self._set_latency(key, value)
            self._evict_over_budget(protect=("latency", key))
        return value

    def get_pulse(self, key: tuple) -> GrapeResult | None:
        result = super().get_pulse(key)
        if result is not None:
            return result
        response = self._request({"op": "get_pulse", "key": encode_pulse_key(key)})
        if not response["found"]:
            self.remote_misses += 1
            return None
        from repro.ir.serialize import grape_result_from_dict

        self.remote_hits += 1
        result = grape_result_from_dict(response["result"])
        with self._lock:
            self._set_pulse(key, result)
            self._evict_over_budget(protect=("pulse", key))
        return result

    # -- writes: L1 immediately, server in batches -----------------------

    def put_latency(self, key: tuple, value: float) -> None:
        super().put_latency(key, value)
        with self._io_lock:
            self._pending.latencies[key] = float(value)
            self._maybe_flush()

    def put_pulse(self, key: tuple, result: GrapeResult) -> None:
        super().put_pulse(key, result)
        with self._io_lock:
            self._pending.pulses[key] = result
            self._maybe_flush()

    def merge_delta(self, delta: CacheDelta) -> int:
        """Merge locally and forward the whole delta upstream.

        The batch engine merges each finished job's session delta here;
        forwarding it (rather than only the locally-new slice) is safe —
        the server's own ``merge_delta`` is idempotent — and keeps the
        server warm even for entries this client learned remotely.
        """
        added = super().merge_delta(delta)
        with self._io_lock:
            self._pending.extend(delta)
            self._maybe_flush()
        return added

    def _maybe_flush(self) -> None:
        if len(self._pending) > self.flush_threshold:
            self.flush()

    def flush(self) -> int:
        """Upload the pending delta now; returns entries uploaded.

        On upload failure the swapped-out delta is restored, so buffered
        entries survive a dropped server and ride the next flush.
        """
        with self._io_lock:
            if not len(self._pending):
                return 0
            from repro.ir.serialize import cache_delta_to_dict

            delta, self._pending = self._pending, CacheDelta()
            try:
                self._request(
                    {"op": "push_delta", "delta": cache_delta_to_dict(delta)}
                )
            except Exception:
                delta.extend(self._pending)
                self._pending = delta
                raise
            self.flushes += 1
            self.flushed_entries += len(delta)
            return len(delta)

    def save(self) -> int:
        """For the remote backend, persisting means flushing upstream."""
        return self.flush()

    def close(self) -> None:
        with self._io_lock:
            self.flush()
            self._wire.close()

    def __enter__(self) -> RemotePulseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single-flight ----------------------------------------------------

    @contextlib.contextmanager
    def exclusive(self, key: tuple):
        """Fleet-wide single flight via a server-side lease.

        Polls until the lease for ``key`` is granted (another client
        holding it is synthesizing the same signature; when it publishes
        and releases, our caller's re-check inside the guard finds the
        pulse remotely).  The pending delta is flushed *before* the lease
        is released, so the publish-before-release contract holds across
        the network too.

        When :attr:`lock_ttl` is set it rides the ``lock`` op, so long
        syntheses can request a lease that outlives the server default
        (re-sending ``lock`` as the holder would likewise renew it).
        """
        wire = encode_pulse_key(key)
        acquire = {"op": "lock", "key": wire, "owner": self.owner}
        if self.lock_ttl is not None:
            acquire["ttl"] = float(self.lock_ttl)
        delay = _LEASE_POLL_SECONDS
        started = time.perf_counter()
        while not self._request(acquire)["granted"]:
            time.sleep(delay)
            delay = min(delay * 2, _LEASE_POLL_MAX_SECONDS)
        self.lease_wait_seconds += time.perf_counter() - started
        try:
            yield
            self.flush()
        finally:
            self._request({"op": "unlock", "key": wire, "owner": self.owner})

    # -- metrics ---------------------------------------------------------

    def server_stats(self) -> dict:
        """The server's own stats() (store + request counters)."""
        from repro.ir.serialize import cache_stats_from_dict

        return cache_stats_from_dict(self._request({"op": "stats"})["stats"])

    def stats(self) -> dict:
        info = super().stats()
        info.update(
            backend="remote",
            url=self.url,
            remote_hits=self.remote_hits,
            remote_misses=self.remote_misses,
            remote_requests=self.remote_requests,
            remote_seconds=self.remote_seconds,
            flushes=self.flushes,
            flushed_entries=self.flushed_entries,
            pending_entries=len(self._pending),
            lease_wait_seconds=self.lease_wait_seconds,
        )
        return info


__all__ = ["DEFAULT_FLUSH_THRESHOLD", "RemotePulseCache"]
