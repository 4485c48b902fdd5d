"""Votes: the raw material of software reputations.

Users "grade [software] between 1 and 10" (Sec. 1), and "the server must
ensure that each user only votes for a software program exactly once"
(Sec. 2.1).  The one-vote rule is enforced by a composite unique
constraint on ``(username, software_id)`` in the storage layer, so even a
buggy caller cannot double-vote.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DuplicateKeyError, DuplicateVoteError, ServerError
from ..storage import Column, ColumnType, Database, Schema

#: The paper's rating scale.
MIN_SCORE = 1
MAX_SCORE = 10

VOTES_SCHEMA_NAME = "votes"
DIRTY_SCHEMA_NAME = "aggregation_dirty"


def _escape_key_part(part: str) -> str:
    """Escape the vote-key separator so keys are collision-free.

    Without this, user ``a:b`` voting on ``c`` and user ``a`` voting on
    ``b:c`` would both produce the key ``a:b:c``.  The escape character
    is escaped first, so the mapping is injective.
    """
    return part.replace("\\", "\\\\").replace(":", "\\:")


def vote_key(username: str, software_id: str) -> str:
    """The primary key of one (user, software) vote."""
    return f"{_escape_key_part(username)}:{_escape_key_part(software_id)}"


def dirty_schema() -> Schema:
    """The retired incremental-batch dirty set: declared, never written.

    Data directories written before the one scoring fold hold rows of
    this table in their snapshot and WAL, and
    :meth:`~repro.storage.Database.recover` rejects rows of undeclared
    tables, so it stays declared for them to recover into.
    """
    return Schema(
        name=DIRTY_SCHEMA_NAME,
        columns=[Column("software_id", ColumnType.TEXT)],
        primary_key="software_id",
    )


def votes_schema() -> Schema:
    """Schema of the votes table."""
    return Schema(
        name=VOTES_SCHEMA_NAME,
        columns=[
            Column("vote_id", ColumnType.TEXT),
            Column("username", ColumnType.TEXT),
            Column("software_id", ColumnType.TEXT),
            Column(
                "score",
                ColumnType.INT,
                check=lambda value: MIN_SCORE <= value <= MAX_SCORE,
            ),
            Column("timestamp", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="vote_id",
        unique_together=(("username", "software_id"),),
    )


@dataclass(frozen=True)
class Vote:
    """One user's rating of one software."""

    username: str
    software_id: str
    score: int
    timestamp: int

    @property
    def vote_id(self) -> str:
        return vote_key(self.username, self.software_id)


class RatingBook:
    """Vote storage and retrieval."""

    def __init__(self, database: Database):
        if database.has_table(VOTES_SCHEMA_NAME):
            self._table = database.table(VOTES_SCHEMA_NAME)
        else:
            self._table = database.create_table(votes_schema())
        if not self._table.has_index("software_id"):
            self._table.create_index("software_id", kind="hash")
        if not self._table.has_index("username"):
            self._table.create_index("username", kind="hash")
        if not self._table.has_index("timestamp"):
            self._table.create_index("timestamp", kind="sorted")
        if not database.has_table(DIRTY_SCHEMA_NAME):
            database.create_table(dirty_schema())

    def cast(self, username: str, software_id: str, score: int, now: int) -> Vote:
        """Record a vote; raises :class:`DuplicateVoteError` on a repeat."""
        if not (MIN_SCORE <= score <= MAX_SCORE):
            raise ServerError(
                f"score must be within [{MIN_SCORE}, {MAX_SCORE}], got {score}"
            )
        vote = Vote(username, software_id, int(score), now)
        try:
            self._table.insert(
                {
                    "vote_id": vote.vote_id,
                    "username": username,
                    "software_id": software_id,
                    "score": vote.score,
                    "timestamp": now,
                }
            )
        except DuplicateKeyError:
            raise DuplicateVoteError(
                f"user has already voted on {software_id!r}"
            ) from None
        return vote

    def has_voted(self, username: str, software_id: str) -> bool:
        return vote_key(username, software_id) in self._table

    def votes_for(self, software_id: str) -> list:
        """All votes on *software_id*, as :class:`Vote` records."""
        rows = self._table.select(software_id=software_id)
        return [
            Vote(row["username"], row["software_id"], row["score"], row["timestamp"])
            for row in rows
        ]

    def votes_by(self, username: str) -> list:
        """All votes cast by *username*."""
        rows = self._table.select(username=username)
        return [
            Vote(row["username"], row["software_id"], row["score"], row["timestamp"])
            for row in rows
        ]

    def all_votes(self) -> list:
        """Every recorded vote (the collusion pass scans the full graph)."""
        return [
            Vote(row["username"], row["software_id"], row["score"], row["timestamp"])
            for row in self._table.all()
        ]

    def vote_count(self, software_id: str) -> int:
        return self._table.count(software_id=software_id)

    def total_votes(self) -> int:
        return len(self._table)

    def rated_software_ids(self) -> set:
        """Distinct software IDs that have at least one vote."""
        index = self._table.index("software_id")
        return set(index.distinct_values())

    def votes_in_window(self, start: int, end: int) -> list:
        """Votes with ``start <= timestamp <= end`` (flood forensics)."""
        index = self._table.index("timestamp")
        votes = []
        for pk in index.range(start, end):
            row = self._table.get(pk)
            votes.append(
                Vote(row["username"], row["software_id"], row["score"], row["timestamp"])
            )
        return votes
