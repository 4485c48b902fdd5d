import random

import pytest

from perfbench.tracing import (
    COUNT,
    END,
    HANDLE,
    NAME,
    PARENT,
    REQUEST,
    SPAN_ID,
    START,
    Tracer,
    self_times,
    summarize,
    targets,
)
from repro.clock import SimClock
from repro.errors import AuthenticationError
from repro.protocol import (
    CommentRequest,
    LoginRequest,
    QuerySoftwareRequest,
    VoteRequest,
    decode,
    encode,
)
from repro.server import ReputationServer


def span(span_id, parent, name, start, end, request=1, count=1):
    return [span_id, parent, request, name, start, end, count]


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        span(1, 0, HANDLE, 0.0, 10.0),
        span(2, 1, "protocol.decode", 1.0, 3.0),
        span(3, 1, "core.cast_vote", 4.0, 9.0),
        span(4, 3, "storage.row_read", 5.0, 6.0),
        span(5, 3, "storage.row_read", 7.0, 7.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(5.0 - 1.5)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, 0, HANDLE, 0.0, 10.0),
        span(2, 1, "a", 1.0, 5.0),
        span(3, 1, "b", 4.0, 6.0),
        span(4, 1, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_files_spans_outside_requests_as_background():
    spans = [
        span(1, 0, HANDLE, 0.0, 4.0, request=1),
        span(2, 1, "protocol.encode", 1.0, 2.0, request=1),
        span(3, 0, "protocol.encode", 5.0, 6.0, request=0),
        span(4, 0, HANDLE, 7.0, 8.0, request=2),
    ]
    summary = summarize(spans)
    assert summary["requests"] == 2
    assert summary["encoded_requests"] == 1
    names = summary["names"]
    assert names[HANDLE]["calls"] == 2
    assert names[HANDLE]["self_s"] == pytest.approx(3.0 + 1.0)
    assert names["protocol.encode"]["calls"] == 1
    assert names["protocol.encode@background"]["calls"] == 1


def make_server():
    server = ReputationServer(
        clock=SimClock(), puzzle_difficulty=0, rng=random.Random(3),
        scoring_mode="streaming", flood_burst=1e9,
    )
    for name in ("alice", "bob"):
        token = server.accounts.register(name, "password", f"{name}@example.org")
        server.accounts.activate(name, token)
        server.engine.enroll_user(name)
    return server


def scenario(server) -> list:
    """A small conversation over handle_bytes, errors included."""
    answers = []

    def send(message):
        raw = server.handle_bytes("127.0.0.1", encode(message))
        answers.append(raw)
        return decode(raw)

    sessions = [send(LoginRequest(username=n, password="password")).session
                for n in ("alice", "bob")]
    digest = "ab" * 20
    query = dict(software_id=digest, file_name="a.exe", file_size=10, vendor="V", version="1")
    send(QuerySoftwareRequest(session=sessions[0], **query))
    send(VoteRequest(session=sessions[0], software_id=digest, score=7))
    send(VoteRequest(session=sessions[0], software_id=digest, score=7))  # duplicate
    send(CommentRequest(session=sessions[1], software_id=digest, text="fine"))
    send(QuerySoftwareRequest(session=sessions[1], **query))
    send(QuerySoftwareRequest(session="not-a-session", **query))
    answers.append(server.handle_bytes("127.0.0.1", b"<not xml"))
    with pytest.raises(AuthenticationError) as raised:
        server.accounts.authenticate_session("not-a-session")
    answers.append(str(raised.value))
    return answers


def test_wrappers_are_transparent():
    plain = scenario(make_server())
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    try:
        traced = scenario(make_server())
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.take()
    handles = [s for s in spans if s[NAME] == HANDLE]
    assert len(handles) == 9
    assert len({s[REQUEST] for s in handles}) == 9
    by_id = {s[SPAN_ID]: s for s in spans}
    nested = [s for s in spans if s[PARENT]]
    assert nested
    for child in nested:
        parent = by_id[child[PARENT]]
        assert child[REQUEST] == parent[REQUEST]
        assert parent[START] <= child[START] <= child[END] <= parent[END]
    assert all(s[COUNT] >= 0 for s in spans)


def test_uninstall_restores_every_original():
    rows = targets()
    originals = [vars(owner)[attribute] for owner, attribute, *_ in rows]
    tracer = Tracer()
    tracer.install()
    assert all(vars(owner)[attribute] is not original
               for (owner, attribute, *_), original in zip(rows, originals))
    tracer.uninstall()
    assert all(vars(owner)[attribute] is original
               for (owner, attribute, *_), original in zip(rows, originals))


def test_wrappers_record_only_while_recording():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda value: value * 2, "test.double")
    assert wrapped(2) == 4
    assert tracer.take() == []
    tracer.recording = True
    assert wrapped(3) == 6
    assert [record[NAME] for record in tracer.take()] == ["test.double"]


def test_a_wrapped_exception_still_records_its_span():
    tracer = Tracer()
    tracer.recording = True

    def boom(value):
        raise KeyError(value)

    wrapped = tracer.wrap(boom, "test.boom", opens_request=True)
    with pytest.raises(KeyError):
        wrapped("x")
    (record,) = tracer.take()
    assert record[NAME] == "test.boom"
    assert record[END] >= record[START]
    assert record[REQUEST] != 0
