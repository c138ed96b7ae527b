"""The shared cache server: one warm pulse store for a whole fleet.

A :class:`~repro.control.cache.protocol.WireServer` speaking the
cache op vocabulary of :mod:`repro.control.cache.protocol`.  The
server owns one :class:`~repro.control.cache.store.PulseCache`
(optionally disk-backed, optionally byte-budgeted — eviction then
happens server-side, fleet-wide) and answers point lookups, batched
delta uploads, statistics queries, and the per-signature lease that
gives remote clients fleet-wide single-flight synthesis.

Run it standalone with ``python -m repro.control.cache`` or embed
it (tests, examples)::

    server = CacheServer(store=DiskPulseCache("fleet_cache"))
    server.start()                      # background thread
    ... clients connect to server.url ...
    server.stop()                       # drains, saves a disk store
"""

from __future__ import annotations

import threading
import time

from repro.control.cache.protocol import (
    PROTOCOL_FORMAT,
    WireServer,
    decode_latency_key,
    decode_pulse_key,
)
from repro.control.cache.store import PulseCache

#: A crashed client's lease must not wedge its signature forever; after
#: this many seconds an unreleased lease is grantable again.  Far above
#: any real synthesis time at the paper's instruction widths.
DEFAULT_LOCK_TTL_SECONDS = 300.0

#: Server-side clamp on a client-requested lease ``ttl``: whatever the
#: client asks for, a crashed holder's lease still expires within this.
MIN_LOCK_TTL_SECONDS = 1.0
MAX_LOCK_TTL_SECONDS = 3600.0


class _LeaseTable:
    """Per-signature leases with a crash-recovery TTL."""

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl
        self._leases: dict[tuple, tuple[str, float]] = {}
        self._lock = threading.Lock()
        self.expired = 0

    def acquire(self, key: tuple, owner: str, ttl: float | None = None) -> bool:
        """Grant (or renew — same owner re-acquiring) the lease on a key.

        ``ttl`` overrides the table default for this grant; callers are
        expected to clamp it before it gets here.
        """
        now = time.monotonic()
        with self._lock:
            held = self._leases.get(key)
            if held is not None:
                holder, deadline = held
                if holder != owner and now < deadline:
                    return False
                if holder != owner:
                    self.expired += 1
            self._leases[key] = (owner, now + (self.ttl if ttl is None else ttl))
            return True

    def release(self, key: tuple, owner: str) -> bool:
        with self._lock:
            held = self._leases.get(key)
            if held is None or held[0] != owner:
                return False
            del self._leases[key]
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)


class CacheServer(WireServer):
    """The fleet cache: store + lease table + request dispatch.

    Args:
        store: The backing :class:`PulseCache` (any backend; pass a
            :class:`~repro.control.cache.disk.DiskPulseCache` for
            persistence or set its ``max_bytes`` for server-side
            eviction).  A fresh in-memory store when omitted.
        host / port: Bind address; port 0 picks a free port (read it
            back from :attr:`url` after construction).
        lock_ttl: Seconds before an unreleased synthesis lease expires.
    """

    wire_format = PROTOCOL_FORMAT
    ops = (
        "ping",
        "get_latency",
        "get_pulse",
        "push_delta",
        "stats",
        "lock",
        "unlock",
    )

    def __init__(
        self,
        store: PulseCache | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lock_ttl: float = DEFAULT_LOCK_TTL_SECONDS,
    ) -> None:
        self.store = store if store is not None else PulseCache()
        self.leases = _LeaseTable(lock_ttl)
        super().__init__(host, port)

    def stop(self) -> int:
        """Shut down and persist the store; returns entries saved."""
        super().stop()
        return self.store.save()

    # -- op handlers -----------------------------------------------------

    def _op_get_latency(self, request: dict) -> dict:
        key = decode_latency_key(request["key"])
        value = self.store.get_latency(key)
        if value is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "value": value}

    def _op_get_pulse(self, request: dict) -> dict:
        from repro.ir.serialize import grape_result_to_dict

        key = decode_pulse_key(request["key"])
        result = self.store.get_pulse(key)
        if result is None:
            return {"ok": True, "found": False}
        return {"ok": True, "found": True, "result": grape_result_to_dict(result)}

    def _op_push_delta(self, request: dict) -> dict:
        from repro.ir.serialize import cache_delta_from_dict

        delta = cache_delta_from_dict(request["delta"])
        added = self.store.merge_delta(delta)
        return {"ok": True, "added": added, "received": len(delta)}

    def _op_stats(self, request: dict) -> dict:
        from repro.ir.serialize import cache_stats_to_dict

        return {"ok": True, "stats": cache_stats_to_dict(self.stats())}

    def _op_lock(self, request: dict) -> dict:
        key = decode_pulse_key(request["key"])
        ttl = request.get("ttl")
        if ttl is not None:
            ttl = max(MIN_LOCK_TTL_SECONDS, min(float(ttl), MAX_LOCK_TTL_SECONDS))
        granted = self.leases.acquire(key, str(request["owner"]), ttl=ttl)
        return {"ok": True, "granted": granted}

    def _op_unlock(self, request: dict) -> dict:
        key = decode_pulse_key(request["key"])
        released = self.leases.release(key, str(request["owner"]))
        return {"ok": True, "released": released}

    # -- metrics ---------------------------------------------------------

    def stats(self) -> dict:
        """Store stats plus server-side request/lease counters."""
        info = self.store.stats()
        with self._counter_lock:
            requests = {k: v for k, v in self.op_counts.items() if v}
            errors = self.errors
        info.update(
            server_uptime_seconds=time.time() - self.started_at,
            server_requests=requests,
            server_errors=errors,
            server_active_leases=len(self.leases),
            server_expired_leases=self.leases.expired,
        )
        return info
