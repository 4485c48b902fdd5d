"""Published software scores: rows, versions, the epoch, and listeners.

Section 3.2: *"Software ratings are calculated at fixed points in time
(currently once in every 24-hour period).  During this work users' trust
factors are taken into consideration when calculating the final score for
a particular software."*

The final score of a software is the trust-weighted mean of its votes::

    score(s) = sum(trust(u) * vote(u, s)) / sum(trust(u))

Weighting by trust is the paper's first mitigation against incorrect
information: "as soon as more experienced users give contradicting votes,
their opinions will carry a higher weight, tipping the balance".

The mean itself is computed by the one scoring fold in :mod:`.scoring`;
this module holds what it publishes.  Each publish stamps the digest's
row with its next **per-digest score version**, giving caches a
per-digest invalidation key (an unchanged version certifies that one
digest's published score is unchanged).  ``last_run`` and the
**aggregation epoch** live in a meta table, so a freshly constructed
aggregator on a recovered database sees the previous process's ticks.
Under the batch cadence the epoch bumps whenever a daily tick
republishes at least one score; scores move only at ticks there, so
equal epochs certify equal published scores.

A publish lands the row in the aggregator's in-memory row cache, which
every reader consults first, and leaves the table write to a batched
flush — at reconciliation, shutdown, or any explicit
:meth:`Aggregator.flush_deferred`.  Scores are *derived* state: the
WAL-durable votes and trust rows reproduce them exactly on rebuild, so
deferring their table writes costs crash-freshness (repaired by the
next reconciliation) but keeps the vote ingest path at one WAL mutation
per vote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from ..clock import SECONDS_PER_DAY
from ..storage import Column, ColumnType, Database, Schema

SCORES_SCHEMA_NAME = "software_scores"
AGGREGATION_META_SCHEMA_NAME = "aggregation_meta"

_META_LAST_RUN = "last_run"
_META_EPOCH = "epoch"


def aggregation_meta_schema() -> Schema:
    """Key/value rows (JSON-encoded values) for tick bookkeeping."""
    return Schema(
        name=AGGREGATION_META_SCHEMA_NAME,
        columns=[
            Column("key", ColumnType.TEXT),
            Column("value", ColumnType.TEXT),
        ],
        primary_key="key",
    )


def scores_schema() -> Schema:
    return Schema(
        name=SCORES_SCHEMA_NAME,
        columns=[
            Column("software_id", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT),
            Column("vote_count", ColumnType.INT, check=lambda value: value >= 0),
            Column("total_weight", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("computed_at", ColumnType.INT, check=lambda value: value >= 0),
            # Nullable for WAL/snapshot compatibility with pre-streaming
            # databases: recovered rows without the column read as version 0.
            Column("version", ColumnType.INT, nullable=True),
        ],
        primary_key="software_id",
    )


@dataclass(frozen=True)
class SoftwareScore:
    """The published reputation of one software."""

    software_id: str
    score: float
    vote_count: int
    total_weight: float
    computed_at: int
    #: Per-digest publication version (globally monotonic across digests).
    version: int = 0


@dataclass(frozen=True)
class ScoreUpdate:
    """One score publication — the event pushed to subscribers.

    Emitted under either cadence whenever a score row is
    (re)published.  ``previous_score`` is ``None`` for a digest's
    first publication; policy-threshold subscriptions compare it against
    ``score`` to detect crossings.
    """

    software_id: str
    score: float
    vote_count: int
    total_weight: float
    computed_at: int
    version: int
    previous_score: Optional[float] = None


class Aggregator:
    """Holds and publishes trust-weighted software scores."""

    #: The paper's batch period: once every 24 hours.
    period_seconds = SECONDS_PER_DAY

    def __init__(self, database: Database):
        self._db = database
        #: Callbacks invoked with a :class:`ScoreUpdate` on every publish
        #: (either cadence).  The engine fans these out to the
        #: server-push subscription registry and to experiment probes.
        self.listeners: list = []
        #: Row cache: every publish lands here and every read consults
        #: it first, so deferred (not yet flushed to the table)
        #: publications are immediately visible in-process.
        self._row_cache: dict[str, dict] = {}
        #: Published digests whose rows still await a table flush.
        self._deferred: set = set()
        if database.has_table(SCORES_SCHEMA_NAME):
            self._scores = database.table(SCORES_SCHEMA_NAME)
        else:
            self._scores = database.create_table(scores_schema())
        if database.has_table(AGGREGATION_META_SCHEMA_NAME):
            self._meta = database.table(AGGREGATION_META_SCHEMA_NAME)
        else:
            self._meta = database.create_table(aggregation_meta_schema())

    # -- reading scores ------------------------------------------------------

    def _cached_row(self, software_id: str) -> Optional[dict]:
        """The current score row: row cache first, then the table."""
        row = self._row_cache.get(software_id)
        if row is not None:
            return row
        row = self._scores.get_or_none(software_id)
        if row is not None:
            self._row_cache[software_id] = row
        return row

    def score_of(self, software_id: str) -> Optional[SoftwareScore]:
        """The last published score of *software_id*, or ``None`` if unrated."""
        row = self._cached_row(software_id)
        if row is None:
            return None
        return self._row_to_score(row)

    def all_scores(self) -> list:
        self.flush_deferred()
        return [self._row_to_score(row) for row in self._scores.all()]

    def scored_count(self) -> int:
        self.flush_deferred()
        return len(self._scores)

    def top_scores(self, limit: int = 10, min_votes: int = 1) -> list:
        """Best-rated software, highest first."""
        self.flush_deferred()
        rows = self._scores.select(
            predicate=lambda row: row["vote_count"] >= min_votes,
            order_by="score",
            descending=True,
            limit=limit,
        )
        return [self._row_to_score(row) for row in rows]

    def bottom_scores(self, limit: int = 10, min_votes: int = 1) -> list:
        """Worst-rated software — the community's spyware warning list."""
        self.flush_deferred()
        rows = self._scores.select(
            predicate=lambda row: row["vote_count"] >= min_votes,
            order_by="score",
            descending=False,
            limit=limit,
        )
        return [self._row_to_score(row) for row in rows]

    @staticmethod
    def _row_to_score(row: dict) -> "SoftwareScore":
        return SoftwareScore(
            software_id=row["software_id"],
            score=row["score"],
            vote_count=row["vote_count"],
            total_weight=row["total_weight"],
            computed_at=row["computed_at"],
            version=row.get("version") or 0,
        )

    # -- durable tick bookkeeping -----------------------------------------

    def _meta_get(self, key: str):
        row = self._meta.get_or_none(key)
        return None if row is None else json.loads(row["value"])

    def _meta_put(self, key: str, value) -> None:
        self._meta.upsert({"key": key, "value": json.dumps(value)})

    @property
    def last_run(self) -> Optional[int]:
        """When the last tick ran — read from the meta table, so a
        freshly constructed aggregator on a recovered database sees the
        previous process's ticks."""
        return self._meta_get(_META_LAST_RUN)

    @property
    def epoch(self) -> int:
        """The aggregation epoch: bumped by batch ticks that republish.

        Starts at 0 (nothing ever published).  Caches key on it: under
        the batch cadence equal epochs guarantee equal published scores.
        """
        return self._meta_get(_META_EPOCH) or 0

    def advance_epoch(self) -> None:
        """Start a new epoch, so every epoch-keyed cache (server-side
        and client-side) discards its entries."""
        self._meta_put(_META_EPOCH, self.epoch + 1)

    def version_of(self, software_id: str) -> int:
        """The published score version of one digest (0 if never published).

        This is the per-digest cache key: equal versions guarantee an
        unchanged published score for *this* digest, without the global
        flush semantics of the epoch.  Versions are monotonic per digest
        (each publish bumps its own counter), which is all a per-digest
        key needs — no global allocator on the hot path.
        """
        row = self._cached_row(software_id)
        if row is None:
            return 0
        return row.get("version") or 0

    def is_due(self, now: int) -> bool:
        """True if a tick should run (period elapsed or never run)."""
        last_run = self.last_run
        if last_run is None:
            return True
        return now - last_run >= self.period_seconds

    def mark_ran(self, now: int) -> None:
        """Record a daily tick."""
        self._meta_put(_META_LAST_RUN, now)

    # -- publishing ------------------------------------------------------------

    def add_listener(self, listener: Callable) -> None:
        """Register a callback invoked with every published :class:`ScoreUpdate`."""
        self.listeners.append(listener)

    def publish(
        self,
        software_id: str,
        score: float,
        vote_count: int,
        total_weight: float,
        now: int,
    ) -> ScoreUpdate:
        """Publish one score row under the digest's next version.

        The single write path for the score table (lint rule REP007
        keeps it that way): the scoring fold lands here under either
        cadence, so versioning and listener notification are uniform.

        The row lands in the row cache — visible to every in-process
        reader at once — and its table write waits for
        :meth:`flush_deferred`.  Score rows are derived state: a crash
        before the flush loses no votes, and the next reconciliation
        republishes from the recovered vote table.
        """
        previous = self._cached_row(software_id)
        version = (0 if previous is None else (previous.get("version") or 0)) + 1
        row = {
            "software_id": software_id,
            "score": score,
            "vote_count": vote_count,
            "total_weight": total_weight,
            "computed_at": now,
            "version": version,
        }
        self._row_cache[software_id] = row
        self._deferred.add(software_id)
        update = ScoreUpdate(
            software_id=software_id,
            score=score,
            vote_count=vote_count,
            total_weight=total_weight,
            computed_at=now,
            version=version,
            previous_score=None if previous is None else previous["score"],
        )
        for listener in self.listeners:
            listener(update)
        return update

    @property
    def deferred_count(self) -> int:
        """Published rows not yet flushed to the score table."""
        return len(self._deferred)

    def reset_cache(self) -> None:
        """Drop the row cache (pending deferred rows included).

        For use after :meth:`~repro.storage.Database.recover` replaces
        the table contents underneath a constructed aggregator — any
        cached (or deferred) row predates the recovered state and must
        be re-read or republished, never flushed.
        """
        self._row_cache.clear()
        self._deferred.clear()

    def flush_deferred(self) -> int:
        """Write every deferred publication to the score table.

        Groups the rows into one transaction when none is already open
        (callers inside a transaction just add to its commit unit).
        Returns the number of rows flushed.
        """
        if not self._deferred:
            return 0
        deferred, self._deferred = self._deferred, set()
        if self._db.in_transaction:
            for software_id in sorted(deferred):
                self._scores.upsert(self._row_cache[software_id])
        else:
            with self._db.transaction():
                for software_id in sorted(deferred):
                    self._scores.upsert(self._row_cache[software_id])
        return len(deferred)


def unweighted_mean(votes: list) -> Optional[float]:
    """Plain mean, used by ablations that switch trust weighting off."""
    if not votes:
        return None
    return sum(vote.score for vote in votes) / len(votes)
