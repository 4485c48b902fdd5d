"""The one scoring fold: per-digest running sums, published on a cadence.

Scores are trust-weighted means of votes (Sec. 3.2).  For every rated
digest this module keeps **trust-weighted running sums** ::

    weighted_sum(s) = sum(trust(u) * vote(u, s))
    weight_sum(s)   = sum(trust(u))

and folds every vote (or trust change) into them as it lands.  The
engine's ``scoring_mode`` decides only *when* ``weighted_sum /
weight_sum`` is published, never how it is computed:

* ``"streaming"`` publishes inside each fold, under a fresh per-digest
  score version, so a vote is visible the instant it is cast;
* ``"batch"`` (the paper's "once in every 24-hour period") folds
  without publishing; the daily tick publishes through
  :meth:`StreamingScorer.reconcile`, which recomputes every rated digest
  from its votes and republishes each row that differs.

Two kinds of event move the sums:

* **a new vote** adds ``trust(u) * score`` and ``trust(u)`` (votes are
  insert-only — a duplicate vote is rejected before it gets here);
* **a trust change** re-weights every vote the user has cast: for each,
  the sums gain ``(new - old) * score`` and ``(new - old)``.

**Durability model.**  The sums (and the score rows they publish) are
*derived* state: the WAL-durable vote and trust tables reproduce them
exactly.  So the hot path keeps them in memory — the vote ingest
transaction carries exactly one WAL mutation, the vote row — and
:meth:`StreamingScorer.flush` persists the in-memory state to the
``score_sums`` table in batches: at every reconciliation pass, at
shutdown, or on demand.  After a crash the persisted snapshot lags the
vote table (vote counts disagree); the next reconciliation recomputes
every digest from the votes and republishes the ones that moved.  The
streaming cadence runs it in the engine's bootstrap, before serving a
single query; the batch cadence leaves it to the next tick, which
recomputes every digest anyway.  The crash-recovery property tests pin
this: a torn WAL replay plus bootstrap reconciliation reproduces
bit-identical per-digest sums.

**Exactness.**  Under the linear trust model, trust factors move in
0.5 steps between 1 and 100 and votes are integers 1–10, so every
product and partial sum is an exactly representable binary float — the
running sums equal the full recompute bit-for-bit, independent of
arrival order.  That holds for the linear model only: Bayesian weights
``(a + prior_a) / (a + b + prior_a + prior_b)`` are not dyadic, and
neither are arbitrary ``force_set`` values, so there the sums drift by
rounding error.  :meth:`StreamingScorer.reconcile` bounds the drift: it
recomputes every digest from the vote table and repairs (and
republishes) any row that differs, so every published score equals the
full recompute right after each tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..storage import Column, ColumnType, Database, Schema
from .aggregation import Aggregator, ScoreUpdate
from .ratings import RatingBook, Vote
from .trust import TrustLedger

SUMS_SCHEMA_NAME = "score_sums"

#: Publication cadences: at the daily tick, or inside every fold.
SCORING_BATCH = "batch"
SCORING_STREAMING = "streaming"


def sums_schema() -> Schema:
    """Per-digest running sums backing the streaming score path."""
    return Schema(
        name=SUMS_SCHEMA_NAME,
        columns=[
            Column("software_id", ColumnType.TEXT),
            Column("weighted_sum", ColumnType.FLOAT),
            Column("weight_sum", ColumnType.FLOAT, check=lambda value: value >= 0),
            Column("vote_count", ColumnType.INT, check=lambda value: value >= 0),
        ],
        primary_key="software_id",
    )


@dataclass(frozen=True)
class ReconciliationReport:
    """Outcome of one reconciliation pass (the daily tick)."""

    ran_at: int
    #: Digests whose running sums were checked against full recompute.
    checked: int
    #: Digests whose sums or published row did not match the recompute.
    mismatched: int
    #: Digests whose published score row changed after repair.
    republished: int


class StreamingScorer:
    """Maintains running sums; publishes per fold or at reconciliation.

    *scoring_mode* is the engine's cadence: under ``"streaming"`` the
    ``apply_*`` folds publish what they move, under ``"batch"`` they
    only move the sums.  Every publication goes through the
    :class:`~.aggregation.Aggregator`'s ``publish()``, which owns
    versioning and listener fan-out.  The sums live in memory
    (``_sums``, authoritative while the process runs) and are persisted
    by :meth:`flush`; the constructor loads the last persisted snapshot.
    """

    def __init__(
        self,
        database: Database,
        ratings: RatingBook,
        trust: TrustLedger,
        aggregator: Aggregator,
        scoring_mode: str,
    ):
        self._publish_on_fold = scoring_mode == SCORING_STREAMING
        self._db = database
        self._ratings = ratings
        self._trust = trust
        self._aggregator = aggregator
        if database.has_table(SUMS_SCHEMA_NAME):
            self._sums_table = database.table(SUMS_SCHEMA_NAME)
        else:
            self._sums_table = database.create_table(sums_schema())
        #: software_id -> [weighted_sum, weight_sum, vote_count] —
        #: authoritative at runtime, seeded from the persisted snapshot.
        self._sums: dict[str, list] = {
            row["software_id"]: [
                row["weighted_sum"], row["weight_sum"], row["vote_count"]
            ]
            for row in self._sums_table.all()
        }
        #: Digests whose in-memory sums differ from the persisted row.
        self._dirty: set = set()
        #: Trust weights by username, read through on first use and
        #: refreshed by :meth:`apply_trust_change` (the engine routes
        #: every trust mutation there) — saves a ledger read per vote.
        self._weights: dict[str, float] = {}

    # -- delta updates -------------------------------------------------------

    def apply_vote(self, vote: Vote) -> Optional[ScoreUpdate]:
        """Fold one freshly inserted vote into its digest's sums.

        Under the streaming cadence the digest publishes at once and the
        :class:`ScoreUpdate` is returned; under batch it waits for the
        tick and this returns ``None``.
        """
        weight = self._weights.get(vote.username)
        if weight is None:
            weight = self._trust.weight_of(vote.username)
            self._weights[vote.username] = weight
        entry = self._sums.get(vote.software_id)
        if entry is None:
            entry = [weight * vote.score, weight, 1]
            self._sums[vote.software_id] = entry
        else:
            entry[0] += weight * vote.score
            entry[1] += weight
            entry[2] += 1
        self._dirty.add(vote.software_id)
        if not self._publish_on_fold:
            return None
        return self._publish(
            vote.software_id, entry[0], entry[1], entry[2], vote.timestamp
        )

    def apply_trust_change(
        self, username: str, old_weight: float, new_weight: float, now: int
    ) -> list:
        """Re-weight every vote *username* has cast.

        Returns the :class:`ScoreUpdate` of every digest republished —
        each moved digest under streaming, none under batch.
        """
        self._weights[username] = new_weight
        delta = new_weight - old_weight
        if delta == 0:
            return []
        updates = []
        for vote in self._ratings.votes_by(username):
            entry = self._sums.get(vote.software_id)
            if entry is None:
                # Sums not loaded for this digest (a snapshot lagging
                # the votes); the next reconciliation folds it in.
                continue
            entry[0] += delta * vote.score
            entry[1] += delta
            self._dirty.add(vote.software_id)
            if self._publish_on_fold:
                updates.append(
                    self._publish(
                        vote.software_id, entry[0], entry[1], entry[2], now
                    )
                )
        return updates

    def _publish(
        self,
        software_id: str,
        weighted_sum: float,
        weight_sum: float,
        vote_count: int,
        now: int,
    ) -> ScoreUpdate:
        if weight_sum <= 0:
            raise ValueError(
                # The sum is vote-derived (REP009): name the software, not
                # the aggregate that tracks back to member weights.
                f"non-positive weight sum for {software_id!r}"
            )
        return self._aggregator.publish(
            software_id,
            weighted_sum / weight_sum,
            vote_count,
            weight_sum,
            now,
        )

    # -- persistence ---------------------------------------------------------

    def flush(self) -> int:
        """Persist dirty sums (and deferred score rows) to their tables.

        One grouped transaction when none is open; inside a transaction
        the writes simply join its commit unit.  Returns the number of
        sums rows written.
        """
        flushed = len(self._dirty)
        if self._db.in_transaction:
            self._flush_locked()
        elif self._dirty or self._aggregator.deferred_count:
            with self._db.transaction():
                self._flush_locked()
        return flushed

    def _flush_locked(self) -> None:
        dirty, self._dirty = self._dirty, set()
        for software_id in sorted(dirty):
            entry = self._sums[software_id]
            self._sums_table.upsert(
                {
                    "software_id": software_id,
                    "weighted_sum": entry[0],
                    "weight_sum": entry[1],
                    "vote_count": entry[2],
                }
            )
        self._aggregator.flush_deferred()

    def reload(self) -> None:
        """Re-seed the in-memory sums from the persisted table.

        For use after :meth:`~repro.storage.Database.recover` replaces
        the table contents underneath a constructed scorer; dirty
        entries predate the recovered state and are discarded.
        """
        self._sums = {
            row["software_id"]: [
                row["weighted_sum"], row["weight_sum"], row["vote_count"]
            ]
            for row in self._sums_table.all()
        }
        self._dirty = set()

    def in_sync_with_votes(self) -> bool:
        """Does the loaded sums state cover exactly the recorded votes?

        Cheap staleness probe for the engine's bootstrap: after a crash
        the persisted snapshot lags the vote table, the per-digest vote
        counts stop adding up, and a reconciliation must repair it.
        """
        total = 0
        for entry in self._sums.values():
            total += entry[2]
        return (
            total == self._ratings.total_votes()
            and len(self._sums) == len(self._ratings.rated_software_ids())
        )

    # -- bootstrap and audit -------------------------------------------------

    def sums_of(self, software_id: str) -> Optional[tuple]:
        """``(weighted_sum, weight_sum, vote_count)`` or ``None`` if untracked."""
        entry = self._sums.get(software_id)
        return None if entry is None else tuple(entry)

    def tracked_count(self) -> int:
        return len(self._sums)

    def reconcile(self, now: int) -> ReconciliationReport:
        """Recompute every rated digest; repair and republish what differs.

        The daily tick: every rated digest's sums are recomputed from
        the vote table.  A digest whose sums or published row differ
        from the recompute gets repaired sums and a republished score
        under a new version, so subscribers converge.  Under the batch
        cadence this is the only place scores publish; under streaming
        it is the audit that bounds rounding drift.  Ends with a
        :meth:`flush`, so each pass is also a durability checkpoint for
        the derived state.
        """
        checked = 0
        mismatched = 0
        republished = 0
        for software_id in sorted(self._ratings.rated_software_ids()):
            checked += 1
            entry = self._sums.get(software_id)
            weighted_sum, weight_sum, vote_count = self._recompute(software_id)
            if entry is not None and entry == [
                weighted_sum, weight_sum, vote_count
            ]:
                # The sums match; the published row can still lag (a
                # crash can lose a deferred publish after its sums were
                # flushed — or vice versa), so verify it too.
                published = self._aggregator.score_of(software_id)
                if (
                    published is not None
                    and published.score == weighted_sum / weight_sum
                    and published.vote_count == vote_count
                    and published.total_weight == weight_sum
                ):
                    continue
            mismatched += 1
            self._sums[software_id] = [weighted_sum, weight_sum, vote_count]
            self._dirty.add(software_id)
            if weight_sum > 0:
                self._publish(
                    software_id, weighted_sum, weight_sum, vote_count, now
                )
                republished += 1
        self.flush()
        return ReconciliationReport(
            ran_at=now,
            checked=checked,
            mismatched=mismatched,
            republished=republished,
        )

    def _recompute(self, software_id: str) -> tuple:
        """Full recompute of one digest's sums, in vote-table order."""
        weighted_sum = 0.0
        weight_sum = 0.0
        votes = self._ratings.votes_for(software_id)
        for vote in votes:
            weight = self._trust.weight_of(vote.username)
            weighted_sum += weight * vote.score
            weight_sum += weight
        return weighted_sum, weight_sum, len(votes)
