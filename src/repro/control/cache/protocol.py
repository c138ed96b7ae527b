"""The wire kernel: framing, one TCP server, one client connection.

The shared pulse-cache server and the compile service both run on this
module (:class:`WireServer`, with :class:`WireConnection` as the client
end); each adds only its op handlers, its state and its own shutdown
work.  Every message — request or response — is one JSON object encoded
as UTF-8 and prefixed with its byte length as a 4-byte big-endian
unsigned integer; one connection carries many frames.  Requests are
``{"op": <name>, ...}``; responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": <message>}``.

The cache server's op vocabulary follows.  Values ride the
:mod:`repro.ir` ``repro-ir-v1`` wire format (pulses as ``grape_result``
envelopes, batched uploads as ``cache_delta`` envelopes, statistics as
``cache_stats`` envelopes); cache keys use the disk-cache convention —
structural signatures serialized with :func:`repr` and parsed back with
:func:`ast.literal_eval`, so the round trip is exact.

========== ==================================================== =================
op          request fields                                       response fields
========== ==================================================== =================
ping        —                                                    —
get_latency ``key`` (wire latency key)                           ``found``, ``value``
get_pulse   ``key`` (wire pulse key)                             ``found``, ``result``
push_delta  ``delta`` (``cache_delta`` envelope)                 ``added``
stats       —                                                    ``stats`` (``cache_stats``)
lock        ``key`` (wire pulse key), ``owner``, ``ttl`` (opt.)  ``granted``
unlock      ``key`` (wire pulse key), ``owner``                  ``released``
========== ==================================================== =================

``ttl`` on ``lock`` is an optional requested lease length in seconds;
the server clamps it to its own floor/ceiling (see
:data:`repro.control.cache.server.MAX_LOCK_TTL_SECONDS`) and falls back
to its configured default when absent.  A ``lock`` re-sent by the
current holder renews the lease rather than failing.  The compile
service's vocabulary lives in :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import ast
import contextlib
import json
import signal
import socket
import socketserver
import struct
import threading
import time

from repro.errors import ControlError

PROTOCOL_FORMAT = "repro-pulse-wire-v1"

#: Hard cap on one frame.  A pulse delta for a 3-qubit instruction is a
#: few hundred KB; anything near this size is a protocol error, not a
#: workload.
MAX_MESSAGE_BYTES = 512 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ControlError):
    """A malformed frame, a bad url, or an error response from the cache server."""


def send_message(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(payload).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(data)}-byte frame "
            f"(cap {MAX_MESSAGE_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_MESSAGE_BYTES})"
        )
    data = _recv_exact(sock, length, eof_ok=False)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object frame, got {type(payload).__name__}"
        )
    return payload


def _recv_exact(sock: socket.socket, count: int, eof_ok: bool):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- the server ------------------------------------------------------------


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a stream of request frames until EOF."""

    def handle(self) -> None:
        server: WireServer = self.server.wire  # type: ignore[attr-defined]
        while True:
            try:
                request = recv_message(self.request)
            except Exception:
                return  # torn frame / reset: drop only this connection
            if request is None:
                return
            try:
                response = server.dispatch(request)
            except Exception as error:  # never kill the server thread
                # A raised dispatch is as much a failed request as an
                # unknown op; without this, stats() under-reports.
                server.record_error()
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            try:
                send_message(self.request, response)
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    wire: WireServer


class WireServer:
    """A threaded TCP server dispatching frames over an op table.

    Subclasses set :attr:`wire_format` (the tag ``ping`` answers) and
    :attr:`ops` (the vocabulary, ``ping`` included), and implement
    ``_op_<name>(request) -> response`` for every other op.  Binding
    happens at construction, so :attr:`url` is known before
    :meth:`start`; port 0 picks a free port.
    """

    wire_format: str
    ops: tuple[str, ...]

    def __init__(self, host: str, port: int) -> None:
        self.started_at = time.time()
        self.op_counts: dict[str, int] = dict.fromkeys(self.ops, 0)
        self.errors = 0
        #: Counters are bumped from one handler thread per connected
        #: client; ``n += 1`` is a read-modify-write, so unlocked
        #: concurrent bumps lose counts.
        self._counter_lock = threading.Lock()
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.wire = self
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    @property
    def url(self) -> str:
        """A *connectable* ``host:port`` for this server.

        A wildcard bind address (``0.0.0.0`` / ``::``) is resolved to
        loopback — the wildcard listens everywhere but connects nowhere,
        so advertising it verbatim hands clients a dead address.  Reach
        a wildcard-bound server from another machine by its real
        interface address instead.
        """
        host, port = self.address
        return f"{reachable_host(host)}:{port}"

    def start(self):
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=type(self).__name__, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._tcp.serve_forever()

    def stop(self):
        """Stop serving and close the listening socket."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_until_interrupted(self):
        """The CLI loop: serve here until SIGINT or SIGTERM, then stop.

        Both signals end the loop the same way, so the caller's exit
        report runs either way; returns what :meth:`stop` returns.
        """
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        return self.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request dispatch ------------------------------------------------

    def record_error(self) -> None:
        """Count one failed request (unknown op or raised dispatch)."""
        with self._counter_lock:
            self.errors += 1

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op not in self.ops:
            self.record_error()
            return {"ok": False, "error": f"unknown op {op!r}; known: {self.ops}"}
        with self._counter_lock:
            self.op_counts[op] += 1
        return getattr(self, f"_op_{op}")(request)

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "format": self.wire_format}


# -- the client connection ---------------------------------------------------


class WireConnection:
    """The client end of the wire: one socket, one round trip at a time.

    The socket opens on the first request.  A round trip holds a lock
    for its whole send/receive, so threads sharing one connection never
    interleave frames or receive each other's responses.  A dropped
    connection (a server restart, a reset) is reopened silently once
    per request; a second failure raises.  Pickles without its socket:
    a copy reconnects on first use.

    Args:
        url: Server address, ``host:port`` or ``tcp://host:port``.
        timeout: Socket timeout per round trip, seconds.
    """

    def __init__(self, url: str, timeout: float) -> None:
        self.url = url
        self.host, self.port = parse_cache_url(url)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def __reduce__(self):
        return (type(self), (self.url, self.timeout))

    def request(self, payload: dict) -> dict:
        """One round trip; returns the response, ``ok`` or not."""
        with self._lock:
            for attempt in (0, 1):
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                try:
                    send_message(self._sock, payload)
                    response = recv_message(self._sock)
                    if response is None:
                        raise ProtocolError("server closed the connection")
                    break
                except (OSError, ProtocolError):
                    self._drop()
                    if attempt:
                        raise
        return response

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()


# -- addresses -----------------------------------------------------------


def parse_cache_url(url: str) -> tuple[str, int]:
    """``host:port`` or ``tcp://host:port`` -> (host, port)."""
    spec = url.strip()
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    host, separator, port = spec.rpartition(":")
    if not separator or not host:
        raise ProtocolError(f"url {url!r} is not host:port or tcp://host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(f"url {url!r} has a non-numeric port") from None



def reachable_host(host: str) -> str:
    """A host clients can actually connect to, given a bind address.

    A server bound to a wildcard address (``0.0.0.0``, ``""``, or the
    IPv6 ``::``) listens on every interface, but the wildcard itself is
    not a connectable destination — advertising ``0.0.0.0:PORT`` in a
    ``url`` hands clients a dead address.  Loopback is the one interface
    a wildcard bind is always reachable on from the same machine, so
    that is what servers advertise; fleet operators reaching a wildcard-
    bound server from *other* machines address it by its real interface
    name, which only they know.
    """
    if host in ("0.0.0.0", ""):
        return "127.0.0.1"
    if host in ("::", "::0"):
        return "::1"
    return host


# -- key wire forms ------------------------------------------------------


def encode_latency_key(key: tuple) -> list:
    """(fingerprint, backend, signature) -> JSON-safe triple."""
    fingerprint, backend, signature = key
    return [fingerprint, backend, repr(signature)]


def decode_latency_key(wire: list) -> tuple:
    fingerprint, backend, signature = wire
    return (fingerprint, backend, ast.literal_eval(signature))


def encode_pulse_key(key: tuple) -> list:
    """(fingerprint, signature) -> JSON-safe pair."""
    fingerprint, signature = key
    return [fingerprint, repr(signature)]


def decode_pulse_key(wire: list) -> tuple:
    fingerprint, signature = wire
    return (fingerprint, ast.literal_eval(signature))
