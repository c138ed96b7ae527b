"""Contract of the wire kernel that both TCP servers run on.

A misbehaving connection — a torn frame, an oversized length
announcement, a frame that is not a JSON object — must cost only that
connection: the server drops it and keeps answering every other client,
the ones already connected and the ones that connect afterwards.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.control.cache import CacheServer
from repro.control.cache.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_FORMAT,
    recv_message,
    send_message,
)
from repro.service import CompileService
from repro.service.protocol import SERVICE_FORMAT

SERVERS = {
    "cache-server": (CacheServer, PROTOCOL_FORMAT),
    "compile-service": (lambda: CompileService(workers=0), SERVICE_FORMAT),
}


def _ping(sock: socket.socket) -> dict:
    send_message(sock, {"op": "ping"})
    return recv_message(sock)


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_bad_frames_drop_only_their_own_connection(kind):
    factory, wire_format = SERVERS[kind]
    pong = {"ok": True, "format": wire_format}
    with factory() as server:
        bystander = socket.create_connection(server.address, timeout=5)
        try:
            assert _ping(bystander) == pong

            # A torn frame: 256 bytes announced, 7 sent, then a close.
            with socket.create_connection(server.address, timeout=5) as torn:
                torn.sendall(struct.pack(">I", 256) + b"partial")

            for frame in (
                struct.pack(">I", MAX_MESSAGE_BYTES + 1),  # oversized
                struct.pack(">I", 2) + b"[]",  # not a JSON object
            ):
                with socket.create_connection(server.address, timeout=5) as bad:
                    bad.sendall(frame)
                    assert bad.recv(1) == b""  # the server hung up
                assert _ping(bystander) == pong

            with socket.create_connection(server.address, timeout=5) as fresh:
                assert _ping(fresh) == pong
        finally:
            bystander.close()
        assert server.op_counts["ping"] == 4
        assert server.errors == 0
