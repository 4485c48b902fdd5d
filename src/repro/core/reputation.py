"""The reputation engine: one facade over the core mechanisms.

This is what the server (and the tests/benchmarks) drive.  It wires the
trust ledger, rating book, comment board, aggregator, and vendor book over
one :class:`~repro.storage.Database`, and implements the cross-cutting
behaviours the paper describes:

* remarks on a comment move the *comment author's* trust factor
  (Sec. 2.1's reliability profile / Sec. 3.2's trust factors);
* scores are trust-weighted means of votes (Sec. 3.2), folded by one
  streaming pipeline (:mod:`.scoring`) and published either at the
  paper's daily tick (``scoring_mode="batch"``) or inside every
  vote/trust fold (``scoring_mode="streaming"``);
* vendor reputations derive from published software scores (Sec. 3.2).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..clock import SimClock
from ..errors import ServerError
from ..storage import Database
from .aggregation import Aggregator, ScoreUpdate, SoftwareScore
from .comments import Comment, CommentBoard, Remark
from .moderation import ModerationQueue
from .ratings import RatingBook, Vote
from .scoring import (
    SCORING_BATCH,
    SCORING_STREAMING,
    ReconciliationReport,
    StreamingScorer,
)
from .trust import TrustLedger, TrustPolicy
from .trust2 import BayesianTrustLedger, BayesianTrustPolicy
from .vendor import SoftwareRecord, VendorBook, VendorScore

TRUST_LINEAR = "linear"
TRUST_BAYESIAN = "bayesian"


class ReputationEngine:
    """The complete server-side reputation mechanism."""

    def __init__(
        self,
        database: Optional[Database] = None,
        clock: Optional[SimClock] = None,
        trust_policy: Optional[TrustPolicy] = None,
        moderated_comments: bool = False,
        scoring_mode: str = SCORING_BATCH,
        trust_model: str = TRUST_LINEAR,
        bayesian_policy: Optional[BayesianTrustPolicy] = None,
        collusion: bool = False,
        collusion_config=None,
    ):
        if scoring_mode not in (SCORING_BATCH, SCORING_STREAMING):
            raise ServerError(f"unknown scoring mode {scoring_mode!r}")
        if trust_model not in (TRUST_LINEAR, TRUST_BAYESIAN):
            raise ServerError(f"unknown trust model {trust_model!r}")
        self.db = database or Database()
        self.clock = clock or SimClock()
        self.scoring_mode = scoring_mode
        self.trust_model = trust_model
        if trust_model == TRUST_BAYESIAN:
            self.trust = BayesianTrustLedger(self.db, bayesian_policy)
        else:
            self.trust = TrustLedger(self.db, trust_policy)
        #: Collusion-pass state (None report until the first pass runs).
        self.collusion_enabled = collusion
        self.collusion_config = collusion_config
        self.collusion_passes = 0
        self.last_collusion_report = None
        self.ratings = RatingBook(self.db)
        self.comments = CommentBoard(self.db, moderated=moderated_comments)
        self.aggregator = Aggregator(self.db)
        self.vendors = VendorBook(self.db, self.aggregator)
        self.moderation: Optional[ModerationQueue] = (
            ModerationQueue(self.comments) if moderated_comments else None
        )
        # Score publications (either cadence) buffer while a storage
        # transaction is open and fan out to listeners only after it
        # commits — subscribers never observe a state that rolls back.
        self._score_listeners: list = []
        self._pending_updates: list = []
        self.aggregator.add_listener(self._on_score_published)
        self.scorer = StreamingScorer(
            self.db, self.ratings, self.trust, self.aggregator, scoring_mode
        )
        self.trust.add_listener(self._on_trust_changed)
        self.bootstrap_scores()

    # -- score publication fan-out ------------------------------------------

    def add_score_listener(self, listener: Callable) -> None:
        """Register a callback invoked with each committed :class:`ScoreUpdate`.

        The server's push path hangs off this hook; experiment probes
        (E10 freshness) use it too.  Listeners run outside the storage
        write lock, after the publishing transaction committed.
        """
        self._score_listeners.append(listener)

    def _on_score_published(self, update: ScoreUpdate) -> None:
        if self.db.in_transaction:
            self._pending_updates.append(update)
        else:
            self._dispatch_updates([update])

    def _dispatch_updates(self, updates: list) -> None:
        for update in updates:
            for listener in self._score_listeners:
                listener(update)

    def _flush_pending_updates(self) -> None:
        updates, self._pending_updates = self._pending_updates, []
        self._dispatch_updates(updates)

    def _on_trust_changed(self, username: str, old: float, new: float) -> None:
        self.scorer.apply_trust_change(username, old, new, self.clock.now())

    # -- membership ---------------------------------------------------------

    def enroll_user(self, username: str) -> float:
        """Open a trust ledger entry for a (pre-authenticated) new user."""
        return self.trust.enroll(username, self.clock.now())

    # -- software -------------------------------------------------------------

    def register_software(
        self,
        software_id: str,
        file_name: str,
        file_size: int,
        vendor: Optional[str] = None,
        version: Optional[str] = None,
    ) -> SoftwareRecord:
        """Idempotently add an executable to the registry."""
        return self.vendors.register(
            software_id=software_id,
            file_name=file_name,
            file_size=file_size,
            vendor=vendor,
            version=version,
            now=self.clock.now(),
        )

    # -- feedback ---------------------------------------------------------------

    def cast_vote(self, username: str, software_id: str, score: int) -> Vote:
        """Record a 1–10 vote (one per user per software).

        The vote row is the only durable write; the running-sum delta
        (and, under the streaming cadence, the republished score) is
        in-memory derived state (see :mod:`.scoring` for the durability
        model).  Under streaming the new score version is visible (and
        pushed) the instant this returns; under batch, at the next tick.
        """
        consensus = self._settled_consensus(software_id)
        vote = self.ratings.cast(username, software_id, score, self.clock.now())
        self.scorer.apply_vote(vote)
        if consensus is not None and self.trust.is_enrolled(username):
            # Bayesian evidence: judge the vote against the consensus
            # that was settled *before* it landed.  Agreement earns
            # alpha, contradiction earns beta; either may move the
            # user's weight, re-publishing their other digests through
            # the trust listeners wired above.
            agreed = (
                abs(score - consensus) <= self.trust.policy.agreement_band
            )
            self.trust.observe_vote(username, agreed, self.clock.now())
        return vote

    def _settled_consensus(self, software_id: str) -> Optional[float]:
        """The published score, if settled enough to judge votes against.

        Only meaningful under the Bayesian trust model; the linear
        ledger has no per-vote evidence channel, so this returns
        ``None`` there.
        """
        if self.trust_model != TRUST_BAYESIAN:
            return None
        published = self.aggregator.score_of(software_id)
        if (
            published is None
            or published.vote_count < self.trust.policy.consensus_min_votes
        ):
            return None
        return published.score

    def add_comment(self, username: str, software_id: str, text: str) -> Comment:
        """Post a comment (pending if moderation is on)."""
        return self.comments.add_comment(
            username, software_id, text, self.clock.now()
        )

    def add_remark(self, username: str, comment_id: int, positive: bool) -> Remark:
        """Grade a comment and adjust the author's trust factor.

        This is the feedback loop of Sec. 2.1's first mitigation: remark
        feedback builds "a reliability profile for each user ... making
        the votes and comments of well-known, reliable users more visible
        and influential".
        """
        policy = self.trust.policy
        try:
            with self.db.transaction():
                remark = self.comments.add_remark(
                    username, comment_id, positive, self.clock.now()
                )
                author = self.comments.get_comment(comment_id).username
                if positive:
                    self.trust.credit(
                        author, policy.credit_per_positive_remark, self.clock.now()
                    )
                else:
                    self.trust.debit(author, policy.debit_per_negative_remark)
        except BaseException:
            self._pending_updates.clear()
            raise
        self._flush_pending_updates()
        return remark

    # -- replication (follower-side derived state) ---------------------------

    def fold_replicated_vote(self, vote: Vote) -> None:
        """Fold a leader-replicated vote row into the running sums.

        Followers apply the leader's WAL records to the base tables and
        then feed each vote through here — the same per-vote delta path
        :meth:`cast_vote` uses, so follower scores are bit-identical to
        the leader's (see :mod:`.scoring` on exactness) without shipping
        any derived rows.
        """
        self.scorer.apply_vote(vote)

    def fold_replicated_trust(
        self, username: str, old_weight: float, new_weight: float
    ) -> None:
        """Re-weight a replicated trust change into the running sums.

        The follower reads the old weight before applying the leader's
        trust-row mutation and the new weight after; this folds the
        delta exactly like the leader's own trust listener did.
        """
        self._on_trust_changed(username, old_weight, new_weight)

    def ranked_comments(self, software_id: str) -> list:
        """Visible comments, most credible first.

        Sec. 2.1: the reliability profile makes "the votes and comments
        of well-known, reliable users more visible and influential".
        Rank weight is the author's trust factor scaled by the comment's
        own remark balance; ties break on age (older first).
        """
        comments = self.comments.comments_for(software_id)

        def weight(comment) -> float:
            author_trust = self.trust.weight_of(comment.username)
            return author_trust * (1.0 + max(0, comment.helpfulness))

        return sorted(
            comments,
            key=lambda comment: (-weight(comment), comment.timestamp),
        )

    # -- published reputations -------------------------------------------------------

    def run_daily_aggregation(self) -> ReconciliationReport:
        """Run the daily tick at the current simulated time."""
        return self.reconcile_scores()

    def maybe_run_aggregation(self) -> Optional[ReconciliationReport]:
        """Run the daily tick only if the 24-hour period has elapsed."""
        if not self.aggregator.is_due(self.clock.now()):
            return None
        # Trust maintenance runs first so the score pass below uses the
        # post-decay, post-penalty weights.
        if self.trust_model == TRUST_BAYESIAN:
            self.trust.refresh(self.clock.now())
        if self.collusion_enabled:
            self.run_collusion_pass()
        return self.reconcile_scores()

    def run_collusion_pass(self):
        """Scan the interaction graph; penalize flagged users.

        Returns the :class:`~repro.protocol.messages.CollusionReport`
        (also kept on ``last_collusion_report`` for the server's admin
        endpoint).  Works against either trust model — penalties land
        as decaying beta evidence on the Bayesian ledger and as a plain
        debit on the linear baseline.
        """
        # Imported lazily: analysis sits above core in the layer order.
        from ..analysis.collusion import CollusionDetector, apply_penalties

        detector = CollusionDetector(
            self.ratings, self.comments, self.trust, self.collusion_config
        )
        self.collusion_passes += 1
        report = detector.run(self.clock.now(), passes=self.collusion_passes)
        apply_penalties(
            self.trust, report, self.clock.now(), detector.config
        )
        self.last_collusion_report = report
        return report

    def reconcile_scores(self) -> ReconciliationReport:
        """The tick's score pass: recompute every rated digest from its
        votes, then repair and republish every row that differs.

        Under the batch cadence this is where folded scores publish;
        under streaming it audits the running sums for drift.
        """
        now = self.clock.now()
        report = self.scorer.reconcile(now)
        self.aggregator.mark_ran(now)
        if report.republished and self.scoring_mode == SCORING_BATCH:
            # Batch scores move only here, so a new epoch certifies
            # every published score until the next tick.
            self.aggregator.advance_epoch()
        return report

    def bootstrap_scores(self, reload: bool = False) -> None:
        """Bring derived score state in line with the vote table.

        Sums and score rows are derived state flushed in batches, so a
        crash leaves the persisted snapshot lagging the WAL-durable
        votes.  The streaming cadence reconciles before serving:
        recompute from the votes, repair and republish whatever moved.
        The batch cadence publishes nothing before the next tick, which
        recomputes every digest anyway.  Runs at engine construction; a
        server that recovers its database *after* building the engine
        re-runs it with ``reload=True`` to discard the pre-recovery
        caches first.
        """
        if reload:
            self.aggregator.reset_cache()
            self.scorer.reload()
        if (
            self.scoring_mode == SCORING_STREAMING
            and not self.scorer.in_sync_with_votes()
        ):
            self.scorer.reconcile(self.clock.now())

    def flush_scores(self) -> int:
        """Persist in-memory derived score state (write-back).

        The fold defers sums/score-row table writes (the vote itself is
        the only per-commit WAL mutation); this flushes them in one
        grouped transaction.  Call before closing the database.
        """
        return self.scorer.flush()

    def software_reputation(self, software_id: str) -> Optional[SoftwareScore]:
        """The published score, or ``None`` for unrated software."""
        return self.aggregator.score_of(software_id)

    def score_version(self, software_id: str) -> int:
        """The digest's published score version (per-digest cache key)."""
        return self.aggregator.version_of(software_id)

    def vendor_reputation(self, vendor: str) -> Optional[VendorScore]:
        """Derived vendor score, or ``None`` if nothing rated yet."""
        return self.vendors.vendor_score(vendor)

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> dict:
        """Headline numbers (the paper quotes "well over 2000 rated
        software programs")."""
        return {
            "registered_software": self.vendors.total_software(),
            "rated_software": self.aggregator.scored_count(),
            "total_votes": self.ratings.total_votes(),
            "total_comments": self.comments.total_comments(),
            "members": len(self.trust.all_members()),
        }
