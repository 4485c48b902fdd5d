"""The load generator: one thread, one selector, pre-encoded frames.

Connections speak the extended framing of :mod:`repro.net.framing`
(HELLO negotiation, then correlation ids), so requests pipeline and
answers are matched by id.  Requests arrive here already framed; answers
are kept raw with their arrival time and decoded only after a phase, so
the generator's own CPU stays small while it measures.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from typing import Callable, Optional

from repro.net.framing import (
    EVENT_CORRELATION_BIT,
    FrameAssembler,
    frame,
    make_hello,
    parse_hello,
    read_frame,
)

RECV_BYTES = 256 * 1024
#: Selector timeout resolution; the open phase polls inside it.
POLL_SECONDS = 0.001
_CORRELATION = struct.Struct(">I")


class GeneratorError(RuntimeError):
    """The generator lost a connection or its peer broke the protocol."""


class Connection:
    """One non-blocking client connection in extended framing mode."""

    def __init__(self, host: str, port: int, codec: str):
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(frame(make_hello(codec)))
        reply = read_frame(sock)
        if reply is None or parse_hello(reply) != codec:
            sock.close()
            raise GeneratorError(f"server did not accept codec {codec!r}")
        sock.setblocking(False)
        self.sock = sock
        self.assembler = FrameAssembler()
        self.out = bytearray()
        self.in_flight = 0

    def flush(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            except OSError as exc:
                raise GeneratorError(f"send failed: {exc}") from None
            del self.out[:sent]

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Mux:
    """Multiplexes the connections on one selector in this thread.

    ``responses`` maps correlation id to ``(arrival, body)``; pushed
    events are appended to ``events`` as ``(arrival, body)`` while
    ``record_events`` is set, and dropped otherwise.
    """

    def __init__(self, connections: list, clock: Callable[[], float] = time.perf_counter):
        self.connections = connections
        self.clock = clock
        self.selector = selectors.DefaultSelector()
        for index, connection in enumerate(connections):
            self.selector.register(connection.sock, selectors.EVENT_READ, index)
        self.responses: dict = {}
        self.events: list = []
        self.last_event = 0.0
        self.record_events = False
        #: Called as ``on_response(connection_index, arrival)``.
        self.on_response: Optional[Callable] = None

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.close()

    @property
    def in_flight(self) -> int:
        return sum(connection.in_flight for connection in self.connections)

    def send(self, index: int, data: bytes) -> None:
        connection = self.connections[index]
        connection.out += data
        connection.in_flight += 1

    def pump(self, timeout: float) -> None:
        """Flush pending output, then wait up to *timeout* for input."""
        for index, connection in enumerate(self.connections):
            had = bool(connection.out)
            connection.flush()
            if had or connection.out:
                mask = selectors.EVENT_READ
                if connection.out:
                    mask |= selectors.EVENT_WRITE
                self.selector.modify(connection.sock, mask, index)
        for key, mask in self.selector.select(max(0.0, timeout)):
            index = key.data
            if mask & selectors.EVENT_READ:
                self._read(index)

    def _read(self, index: int) -> None:
        connection = self.connections[index]
        try:
            data = connection.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError as exc:
            raise GeneratorError(f"receive failed: {exc}") from None
        if not data:
            raise GeneratorError("server closed the connection")
        arrival = self.clock()
        connection.assembler.feed(data)
        for payload in connection.assembler.drain():
            (correlation,) = _CORRELATION.unpack_from(payload)
            body = payload[_CORRELATION.size:]
            if correlation & EVENT_CORRELATION_BIT:
                self.last_event = arrival
                if self.record_events:
                    self.events.append((arrival, body))
                continue
            connection.in_flight -= 1
            self.responses[correlation] = (arrival, body)
            if self.on_response is not None:
                self.on_response(index, arrival)

    def wait_idle(self, deadline: float) -> bool:
        """Pump until nothing is in flight; False if *deadline* passed."""
        while self.in_flight:
            now = self.clock()
            if now >= deadline:
                return False
            self.pump(min(0.05, deadline - now))
        return True

    def wait_events_quiet(self, quiet: float, deadline: float) -> None:
        """Pump until no event arrived for *quiet* seconds (or deadline)."""
        while True:
            now = self.clock()
            if now >= deadline or now - max(self.last_event, 0.0) >= quiet:
                return
            self.pump(min(quiet, deadline - now))


def run_open(mux: Mux, frames: list, rate: float, start: float,
             grace: float) -> list:
    """Send ``frames[i]`` (``(cid, connection, bytes)``) when it falls due
    at ``start + i / rate``, whatever has been answered; returns the
    actual send times.  Waits at most *grace* seconds after the last due
    time for answers."""
    clock = mux.clock
    count = len(frames)
    sent = [0.0] * count
    index = 0
    last_due = start + (count - 1) / rate if count else start
    deadline = last_due + grace
    while True:
        now = clock()
        while index < count and start + index / rate <= now:
            _, connection, data = frames[index]
            mux.send(connection, data)
            sent[index] = now
            index += 1
        if index >= count:
            if not mux.in_flight or now >= deadline:
                break
            mux.pump(min(0.05, deadline - now))
            continue
        wait = start + index / rate - now
        # epoll rounds timeouts up to whole milliseconds: sleep until a
        # millisecond before the due time, then poll.
        mux.pump(wait - POLL_SECONDS if wait > POLL_SECONDS else 0.0)
    return sent


def run_closed(mux: Mux, queues: list, window: int, duration: float,
               grace: float, probe: Callable[[], float], windows: int) -> dict:
    """Keep *window* requests in flight on every connection with a queue
    until *duration* has passed; returns counts and times.

    ``queues[c]`` lists the frames connection *c* sends, in order.  A
    queue that runs dry ends that connection's share early.  The phase
    is cut into *windows* equal windows: ``samples`` holds ``(time,
    completed, probe())`` at the start and at the end of each.
    """
    clock = mux.clock
    position = [0] * len(queues)
    completed = [0]
    start = clock()
    end = start + duration
    samples = [(start, 0, probe())]

    def issue(index: int) -> None:
        queue = queues[index]
        if position[index] < len(queue):
            mux.send(index, queue[position[index]][2])
            position[index] += 1

    def on_response(index: int, arrival: float) -> None:
        if arrival < end:
            completed[0] += 1
            issue(index)

    for index, queue in enumerate(queues):
        for _ in range(min(window, len(queue))):
            issue(index)
    mux.on_response = on_response
    try:
        while True:
            now = clock()
            boundary = start + len(samples) * duration / windows
            if len(samples) <= windows and now >= boundary:
                samples.append((now, completed[0], probe()))
            if now >= end and not mux.in_flight:
                break
            if now >= end + grace:
                break
            mux.pump(min(0.05, max(0.0, boundary - now)) if now < end else 0.05)
    finally:
        mux.on_response = None
    if samples[-1][0] < end:
        samples.append((clock(), completed[0], probe()))
    return {
        "start": start,
        "end": end,
        "completed": completed[0],
        "issued": list(position),
        "samples": samples,
        "exhausted": any(position[i] >= len(q) for i, q in enumerate(queues) if q),
    }


def request_all(mux: Mux, frames: list, window: int, timeout: float) -> None:
    """Send *frames* keeping at most *window* in flight; wait for all."""
    deadline = mux.clock() + timeout
    pending = list(reversed(frames))
    while pending or mux.in_flight:
        while pending and mux.in_flight < window:
            _, connection, data = pending.pop()
            mux.send(connection, data)
        now = mux.clock()
        if now >= deadline:
            raise GeneratorError(f"{mux.in_flight} requests unanswered after {timeout}s")
        mux.pump(min(0.05, deadline - now))
