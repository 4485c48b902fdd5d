import time

import pytest

from perfbench import loadgen
from repro.net.evloop import EventLoopServer
from repro.net.framing import frame, pack_correlated

STALL = 0.3
SLOW = 0.005
RATE = 200.0


def stalling_handler(peer_address, body):
    """Answers every request at once, except ``stall``, which blocks the
    server's only event loop for STALL seconds, and ``slow``, which
    blocks it for SLOW seconds."""
    if body == b"stall":
        time.sleep(STALL)
    elif body == b"slow":
        time.sleep(SLOW)
    return b"ok:" + body


@pytest.fixture
def mux():
    server = EventLoopServer(stalling_handler, loops=1).start()
    host, port = server.address
    connection_mux = loadgen.Mux([loadgen.Connection(host, port, "xml")])
    try:
        yield connection_mux
    finally:
        connection_mux.close()
        server.stop()


def frames(count, stall_at=None, body=None):
    out = []
    for index in range(count):
        cid = index + 1
        if body is None:
            payload = b"stall" if index == stall_at else b"req%d" % index
        else:
            payload = body
        out.append((cid, 0, frame(pack_correlated(cid, payload))))
    return out


def test_open_phase_times_from_the_due_time_through_a_stall(mux):
    requests = frames(40, stall_at=10)
    start = time.perf_counter() + 0.05
    sent = loadgen.run_open(mux, requests, RATE, start, grace=5.0)
    assert len(mux.responses) == 40
    due = [start + index / RATE for index in range(40)]
    latency = [mux.responses[cid][0] - due[cid - 1] for cid, _, _ in requests]
    lateness = [sent[index] - due[index] for index in range(40)]
    # The generator kept its schedule while the server stalled...
    assert max(lateness) < 0.05
    assert min(lateness) >= 0.0
    # ...so the stall shows in the stalled request and in every request
    # that fell due behind it, each counted from its own due time.
    assert latency[10] >= STALL
    for index in range(11, 40):
        assert latency[index] >= STALL - (index - 10) / RATE - 0.005
    assert max(latency[:10]) < STALL / 2


def test_open_phase_reports_generator_lateness(mux):
    requests = frames(20)
    start = time.perf_counter() - 0.2  # the schedule began 0.2 s ago
    sent = loadgen.run_open(mux, requests, RATE, start, grace=5.0)
    lateness = [sent[index] - (start + index / RATE) for index in range(20)]
    assert lateness[0] >= 0.2
    assert all(late >= 0.2 - index / RATE - 0.001 for index, late in enumerate(lateness))
    assert len(mux.responses) == 20


def test_closed_phase_keeps_its_window(mux):
    # Slow answers: the queue outlasts the phase, so the window is the
    # only thing that limits what is in flight.
    queue = frames(200, body=b"slow")
    most = [0]
    send = mux.send

    def counting_send(index, data):
        send(index, data)
        most[0] = max(most[0], mux.in_flight)

    mux.send = counting_send
    ticks = iter(range(100))
    outcome = loadgen.run_closed(mux, [queue], window=4, duration=0.2, grace=5.0,
                                 probe=lambda: next(ticks), windows=4)
    assert not outcome["exhausted"]
    assert outcome["completed"] >= 4
    assert outcome["issued"][0] == outcome["completed"] + 4
    assert most[0] == 4
    assert mux.in_flight == 0
    assert sorted(mux.responses) == list(range(1, outcome["issued"][0] + 1))
    # One sample at the start and at the end of each window.
    samples = outcome["samples"]
    assert [probe for _, _, probe in samples] == [0, 1, 2, 3, 4]
    times = [at for at, _, _ in samples]
    assert times[0] == outcome["start"] and times[-1] >= outcome["end"]
    assert all(times[k] >= outcome["start"] + k * 0.05 for k in range(5))
    assert [done for _, done, _ in samples] == sorted(done for _, done, _ in samples)
    assert samples[-1][1] == outcome["completed"]


def test_request_all_waits_for_every_answer(mux):
    loadgen.request_all(mux, frames(50), window=8, timeout=10.0)
    assert sorted(mux.responses) == list(range(1, 51))
    assert mux.responses[3][1] == b"ok:req2"
