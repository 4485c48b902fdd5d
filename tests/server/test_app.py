"""Protocol dispatch: the full server request surface."""

import pytest

from repro.crypto.puzzles import Puzzle, solve_puzzle
from repro.protocol import (
    ActivateRequest,
    CommentRequest,
    ErrorResponse,
    LoginRequest,
    LoginResponse,
    OkResponse,
    PuzzleRequest,
    PuzzleResponse,
    QuerySoftwareRequest,
    RegisterRequest,
    RegisterResponse,
    RemarkRequest,
    SearchRequest,
    SearchResponse,
    SoftwareInfoResponse,
    StatsRequest,
    StatsResponse,
    VendorQueryRequest,
    VendorInfoResponse,
    VoteRequest,
    decode,
    encode,
)


def _rpc(server, message, origin="test-host"):
    return decode(server.handle_bytes(origin, encode(message)))


def _signup(server, username="alice", origin="test-host"):
    puzzle_response = _rpc(server, PuzzleRequest(), origin)
    puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
    register_response = _rpc(
        server,
        RegisterRequest(
            username=username,
            password="password",
            email=f"{username}@x.org",
            puzzle_nonce=puzzle.nonce,
            puzzle_solution=solve_puzzle(puzzle),
        ),
        origin,
    )
    assert isinstance(register_response, RegisterResponse)
    assert isinstance(
        _rpc(
            server,
            ActivateRequest(
                username=username, token=register_response.activation_token
            ),
            origin,
        ),
        OkResponse,
    )
    login = _rpc(
        server, LoginRequest(username=username, password="password"), origin
    )
    assert isinstance(login, LoginResponse)
    return login.session


class TestAccountFlow:
    def test_full_signup(self, server):
        session = _signup(server)
        assert session

    def test_register_without_puzzle_fails(self, server):
        response = _rpc(
            server,
            RegisterRequest(
                username="alice",
                password="password",
                email="a@x.org",
                puzzle_nonce=b"made-up",
                puzzle_solution=b"\x00" * 8,
            ),
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "puzzle-failed"

    def test_register_with_wrong_solution_fails(self, server):
        puzzle_response = _rpc(server, PuzzleRequest())
        response = _rpc(
            server,
            RegisterRequest(
                username="alice",
                password="password",
                email="a@x.org",
                puzzle_nonce=puzzle_response.nonce,
                puzzle_solution=b"\xff" * 8,
            ),
        )
        # difficulty 2 means a random guess *may* pass; accept either a
        # refusal or (rarely) success — but a refusal must carry the code.
        if isinstance(response, ErrorResponse):
            assert response.code == "puzzle-failed"

    def test_duplicate_email_code(self, server):
        _signup(server, "alice")
        puzzle_response = _rpc(server, PuzzleRequest(), origin="other")
        puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
        response = _rpc(
            server,
            RegisterRequest(
                username="bob",
                password="password",
                email="alice@x.org",
                puzzle_nonce=puzzle.nonce,
                puzzle_solution=solve_puzzle(puzzle),
            ),
            origin="other",
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "duplicate-account"

    def test_registration_rate_limited_per_origin(self, server):
        codes = []
        for index in range(6):
            puzzle_response = _rpc(server, PuzzleRequest(), origin="one-host")
            if not isinstance(puzzle_response, PuzzleResponse):
                break
            puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
            response = _rpc(
                server,
                RegisterRequest(
                    username=f"u{index}",
                    password="password",
                    email=f"u{index}@x.org",
                    puzzle_nonce=puzzle.nonce,
                    puzzle_solution=solve_puzzle(puzzle),
                ),
                origin="one-host",
            )
            if isinstance(response, ErrorResponse):
                codes.append(response.code)
        assert "rate-limited" in codes

    def test_login_wrong_password_code(self, server):
        _signup(server)
        response = _rpc(
            server, LoginRequest(username="alice", password="nope")
        )
        assert response.code == "auth-failed"

    def test_inactive_login_code(self, server):
        puzzle_response = _rpc(server, PuzzleRequest())
        puzzle = Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
        _rpc(
            server,
            RegisterRequest(
                username="inert",
                password="password",
                email="inert@x.org",
                puzzle_nonce=puzzle.nonce,
                puzzle_solution=solve_puzzle(puzzle),
            ),
        )
        response = _rpc(
            server, LoginRequest(username="inert", password="password")
        )
        assert response.code == "not-active"


class TestSoftwareFlow:
    @pytest.fixture
    def session(self, server):
        return _signup(server)

    def _query(self, server, session, sid="ab" * 20, vendor="V"):
        return _rpc(
            server,
            QuerySoftwareRequest(
                session=session,
                software_id=sid,
                file_name="p.exe",
                file_size=100,
                vendor=vendor,
                version="1.0",
            ),
        )

    def test_query_registers_unknown_software(self, server, session):
        info = self._query(server, session)
        assert isinstance(info, SoftwareInfoResponse)
        assert info.known
        assert info.score is None
        assert server.engine.vendors.is_known("ab" * 20)

    def test_query_requires_session(self, server):
        response = _rpc(
            server,
            QuerySoftwareRequest(
                session="bogus",
                software_id="x",
                file_name="p.exe",
                file_size=1,
            ),
        )
        assert response.code == "auth-failed"

    def test_vote_then_info_after_batch(self, server, session):
        self._query(server, session)
        vote = _rpc(
            server,
            VoteRequest(session=session, software_id="ab" * 20, score=8),
        )
        assert isinstance(vote, OkResponse)
        server.clock.advance(86400)
        server.run_daily_batch()
        info = self._query(server, session)
        assert info.score == pytest.approx(8.0)
        assert info.vote_count == 1
        assert info.vendor_score == pytest.approx(8.0)

    def test_batch_tick_refreshes_sibling_vendor_score(self, server, session):
        """A tick that republishes only a sibling digest still moves the
        vendor score (and epoch) served for this one."""
        sibling = "cd" * 20
        self._query(server, session)
        self._query(server, session, sid=sibling)
        _rpc(server, VoteRequest(session=session, software_id="ab" * 20, score=9))
        server.clock.advance(86400)
        server.run_daily_batch()
        assert self._query(server, session).vendor_score == pytest.approx(9.0)
        _rpc(server, VoteRequest(session=session, software_id=sibling, score=1))
        server.clock.advance(86400)
        server.run_daily_batch()
        info = self._query(server, session)
        assert info.score == pytest.approx(9.0)
        assert info.vendor_score == pytest.approx(5.0)
        assert info.epoch == server.engine.aggregator.epoch

    def test_duplicate_vote_code(self, server, session):
        self._query(server, session)
        _rpc(server, VoteRequest(session=session, software_id="ab" * 20, score=8))
        response = _rpc(
            server, VoteRequest(session=session, software_id="ab" * 20, score=2)
        )
        assert response.code == "duplicate-vote"

    def test_invalid_score_rejected(self, server, session):
        response = _rpc(
            server, VoteRequest(session=session, software_id="x", score=42)
        )
        assert isinstance(response, ErrorResponse)

    def test_comment_and_remark_flow(self, server, session):
        other_session = _signup(server, "bob", origin="bob-host")
        self._query(server, session)
        comment = _rpc(
            server,
            CommentRequest(
                session=session, software_id="ab" * 20, text="shows popups"
            ),
        )
        assert isinstance(comment, OkResponse)
        remark = _rpc(
            server, RemarkRequest(session=other_session, comment_id=1, positive=True)
        )
        assert isinstance(remark, OkResponse)
        info = self._query(server, session)
        assert info.comments[0].positive_remarks == 1

    def test_comments_visible_in_info(self, server, session):
        self._query(server, session)
        _rpc(
            server,
            CommentRequest(session=session, software_id="ab" * 20, text="hello"),
        )
        info = self._query(server, session)
        assert [c.text for c in info.comments] == ["hello"]


class TestWebQueries:
    @pytest.fixture
    def session(self, server):
        return _signup(server)

    def test_search(self, server, session):
        _rpc(
            server,
            QuerySoftwareRequest(
                session=session,
                software_id="cd" * 20,
                file_name="KaZaA.exe",
                file_size=5,
            ),
        )
        response = _rpc(server, SearchRequest(session=session, needle="kazaa"))
        assert isinstance(response, SearchResponse)
        assert [r.file_name for r in response.results] == ["KaZaA.exe"]

    def test_vendor_query_unknown(self, server, session):
        response = _rpc(
            server, VendorQueryRequest(session=session, vendor="Nobody Inc")
        )
        assert isinstance(response, VendorInfoResponse)
        assert not response.known

    def test_stats(self, server, session):
        response = _rpc(server, StatsRequest(session=session))
        assert isinstance(response, StatsResponse)
        assert response.members >= 1


class TestHostileTraffic:
    def test_garbage_bytes_return_error(self, server):
        response = decode(server.handle_bytes("evil", b"<<<not xml"))
        assert isinstance(response, ErrorResponse)
        assert response.code == "bad-request"

    def test_unknown_message_type(self, server):
        response = decode(
            server.handle_bytes("evil", b'<message tag="format-disk"/>')
        )
        assert response.code == "bad-request"

    def test_response_message_sent_as_request(self, server):
        response = _rpc(server, OkResponse(detail="confused"))
        assert response.code == "bad-request"
