"""The deterministic fault-injection harness itself."""

import random
import time

import pytest

from repro.errors import (
    EndpointUnreachableError,
    FrameError,
    MessageDroppedError,
    NetworkError,
    ProtocolError,
)
from repro.net import (
    ChaosNetwork,
    ChaosProxy,
    ChaosSchedule,
    Fault,
    Network,
    PipeliningClient,
    TcpClient,
    TcpTransportServer,
)
from repro.protocol import (
    PuzzleRequest,
    PuzzleResponse,
    decode,
    decode_with,
    encode,
    encode_with,
)


class TestFaultSpecs:
    def test_parse_roundtrip(self):
        assert Fault.parse("ok") == Fault("ok")
        assert Fault.parse("delay:0.25") == Fault("delay", delay=0.25)
        assert Fault.parse("torn:0.1:0.3") == Fault("torn", delay=0.1, split=0.3)
        assert Fault.parse("disconnect:0.3") == Fault("disconnect", split=0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("gremlins")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            Fault("delay", delay=-1.0)
        with pytest.raises(ValueError):
            Fault("disconnect", split=1.5)


class TestSchedules:
    def test_scripted_order_then_default(self):
        schedule = ChaosSchedule.parse(response="corrupt,delay:0.1")
        kinds = [schedule.next_fault("response").kind for _ in range(4)]
        assert kinds == ["corrupt", "delay", "ok", "ok"]

    def test_connect_and_response_streams_are_independent(self):
        schedule = ChaosSchedule.parse(response="corrupt", connect="refuse")
        assert schedule.next_fault("connect").kind == "refuse"
        assert schedule.next_fault("response").kind == "corrupt"
        assert schedule.next_fault("connect").kind == "ok"

    def test_injected_counters(self):
        schedule = ChaosSchedule.parse(response="corrupt,corrupt")
        for _ in range(3):
            schedule.next_fault("response")
        assert schedule.injected == {"corrupt": 2, "ok": 1}

    def test_probabilistic_is_deterministic_under_a_seed(self):
        def draw(seed):
            schedule = ChaosSchedule.probabilistic(
                random.Random(seed), rates={"corrupt": 0.3, "refuse": 0.2}
            )
            return [schedule.next_fault("response").kind for _ in range(50)]

        assert draw(42) == draw(42)
        assert draw(42) != draw(43)  # the seed is the schedule


@pytest.fixture
def wire(server):
    """A threaded transport server; tests park a proxy in front."""
    with TcpTransportServer(server.handle_bytes) as transport:
        yield transport


def proxy_for(wire, schedule):
    return ChaosProxy(wire.address, schedule)


class TestChaosProxy:
    def test_clean_schedule_is_transparent(self, wire):
        with proxy_for(wire, ChaosSchedule()) as proxy:
            host, port = proxy.address
            with TcpClient(host, port) as client:
                response = decode(client.request(encode(PuzzleRequest())))
        assert isinstance(response, PuzzleResponse)
        assert proxy.accepted == 1

    def test_refused_connection(self, wire):
        schedule = ChaosSchedule.parse(connect="refuse")
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with pytest.raises((NetworkError, OSError)):
                with TcpClient(host, port, timeout=2.0) as client:
                    client.request(encode(PuzzleRequest()))
            assert proxy.refused == 1

    def test_corrupted_response_fails_decode_but_keeps_framing(self, wire):
        schedule = ChaosSchedule.parse(response="corrupt")
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with TcpClient(host, port, timeout=2.0) as client:
                raw = client.request(encode(PuzzleRequest()))
                with pytest.raises(ProtocolError):
                    decode(raw)
                # The frame length stayed honest: the next round trip
                # on the same connection is unharmed.
                again = decode(client.request(encode(PuzzleRequest())))
        assert isinstance(again, PuzzleResponse)

    def test_mid_frame_disconnect(self, wire):
        schedule = ChaosSchedule.parse(response="disconnect:0.5")
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with TcpClient(host, port, timeout=2.0) as client:
                with pytest.raises((FrameError, EndpointUnreachableError, OSError)):
                    client.request(encode(PuzzleRequest()))

    def test_torn_write_is_reassembled(self, wire):
        schedule = ChaosSchedule.parse(response="torn:0.01:0.3")
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with TcpClient(host, port, timeout=2.0) as client:
                response = decode(client.request(encode(PuzzleRequest())))
        assert isinstance(response, PuzzleResponse)

    def test_stalled_response_still_lands(self, wire):
        schedule = ChaosSchedule.parse(response="stall:0.05")
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with TcpClient(host, port, timeout=2.0) as client:
                response = decode(client.request(encode(PuzzleRequest())))
        assert isinstance(response, PuzzleResponse)

    def test_reordered_pipelined_responses_match_by_correlation_id(self, wire):
        schedule = ChaosSchedule.parse(response="ok,reorder")  # HELLO, then swap
        with proxy_for(wire, schedule) as proxy:
            host, port = proxy.address
            with PipeliningClient(host, port, codec="xml", timeout=5.0) as client:
                first = client.submit(encode_with("xml", PuzzleRequest()))
                second = client.submit(encode_with("xml", PuzzleRequest()))
                replies = [
                    decode_with("xml", first.result(5.0)),
                    decode_with("xml", second.result(5.0)),
                ]
        assert all(isinstance(reply, PuzzleResponse) for reply in replies)
        assert client.orphan_responses == 0

    def test_stop_wakes_an_acceptor_parked_in_accept(self, wire):
        proxy = proxy_for(wire, ChaosSchedule()).start()
        acceptor = proxy._acceptor
        time.sleep(0.3)  # let the acceptor park in accept()
        started = time.perf_counter()
        proxy.stop()
        assert time.perf_counter() - started < 1.0
        assert not acceptor.is_alive()


class TestChaosNetwork:
    def _rig(self, server, schedule):
        network = Network(rng=random.Random(1))
        network.register("server", server.handle_bytes)
        return ChaosNetwork(network, schedule)

    def test_refuse_raises_before_delivery(self, server):
        chaos = self._rig(server, ChaosSchedule.parse(connect="refuse"))
        with pytest.raises(EndpointUnreachableError):
            chaos.request("c", "server", encode(PuzzleRequest()))
        assert chaos.stats.requests == 0  # never reached the network

    def test_lost_reply_is_processed_then_dropped(self, server):
        chaos = self._rig(server, ChaosSchedule.parse(connect="lost_reply"))
        with pytest.raises(MessageDroppedError):
            chaos.request("c", "server", encode(PuzzleRequest()))
        # the server *did* see the request — that is the whole point
        assert chaos.stats.requests == 1

    def test_corrupt_reply_fails_decode(self, server):
        chaos = self._rig(server, ChaosSchedule.parse(connect="corrupt"))
        raw = chaos.request("c", "server", encode(PuzzleRequest()))
        with pytest.raises(ProtocolError):
            decode(raw)

    def test_delegates_to_the_wrapped_network(self, server):
        chaos = self._rig(server, ChaosSchedule())
        assert chaos.is_registered("server")
        response = decode(chaos.request("c", "server", encode(PuzzleRequest())))
        assert isinstance(response, PuzzleResponse)
