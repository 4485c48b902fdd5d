"""Unit tests for the Bayesian trust ledger and its engine wiring."""

import pytest

from repro.clock import SimClock, days, weeks
from repro.core import BayesianTrustLedger, BayesianTrustPolicy, ReputationEngine
from repro.core.reputation import TRUST_BAYESIAN, TRUST_LINEAR
from repro.core.trust import TrustLedger
from repro.storage import Database


HALF_LIFE = weeks(8)


@pytest.fixture
def ledger(db):
    return BayesianTrustLedger(db)


class TestPolicy:
    def test_prior_mean_is_weak(self):
        policy = BayesianTrustPolicy()
        assert policy.prior_mean == pytest.approx(0.2)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            BayesianTrustPolicy(prior_alpha=0.0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(prior_beta=-1.0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(half_life=0)
        with pytest.raises(ValueError):
            BayesianTrustPolicy(agreement_alpha=-0.1)

    def test_weight_strictly_inside_unit_interval(self):
        policy = BayesianTrustPolicy()
        assert 0.0 < policy.weight(0.0, 0.0) < 1.0
        assert 0.0 < policy.weight(0.0, 1e9) < 1.0
        assert 0.0 < policy.weight(1e9, 0.0) < 1.0


class TestLedgerBasics:
    def test_enroll_starts_at_prior_mean(self, ledger):
        assert ledger.enroll("alice", 0) == pytest.approx(0.2)
        assert ledger.is_enrolled("alice")
        assert ledger.get("alice") == pytest.approx(0.2)
        assert ledger.signup_timestamp("alice") == 0

    def test_unknown_voter_weighs_prior_mean(self, ledger):
        assert ledger.weight_of("ghost") == ledger.policy.prior_mean

    def test_agreement_raises_weight_disagreement_lowers(self, ledger):
        ledger.enroll("alice", 0)
        start = ledger.weight_of("alice")
        up = ledger.observe_vote("alice", agreed=True, now=10)
        assert up > start
        down = ledger.observe_vote("alice", agreed=False, now=20)
        assert down < up

    def test_credit_and_debit_move_evidence(self, ledger):
        ledger.enroll("bob", 0)
        base = ledger.weight_of("bob")
        credited = ledger.credit("bob", 2.0, now=5)
        assert credited > base
        assert ledger.debit("bob", 4.0, now=6) < credited
        with pytest.raises(ValueError):
            ledger.credit("bob", -1.0, now=7)
        with pytest.raises(ValueError):
            ledger.debit("bob", -1.0)

    def test_debit_without_now_is_legacy_compatible(self, ledger):
        # The engine's remark loop calls debit(username, amount) on the
        # linear ledger; the Bayesian one must take the same shape.
        ledger.enroll("carol", 0)
        before = ledger.weight_of("carol")
        assert ledger.debit("carol", 1.0) < before

    def test_penalize_is_heavy_but_recoverable(self, ledger):
        ledger.enroll("ringer", 0)
        for _ in range(10):
            ledger.observe_vote("ringer", agreed=True, now=100)
        strong = ledger.weight_of("ringer")
        assert strong > 0.5
        crushed = ledger.penalize("ringer", now=200, flags=2)
        assert crushed < 0.2
        # Decay pulls the posterior back toward the prior: after many
        # half-lives the penalty has faded along with the evidence.
        ledger.refresh(200 + 12 * HALF_LIFE)
        assert abs(ledger.weight_of("ringer") - ledger.policy.prior_mean) < 0.01

    def test_force_set_maps_linear_scale(self, ledger):
        ledger.enroll("expert", 0)
        ledger.force_set("expert", 80.0)  # legacy 1-100 scale
        assert ledger.weight_of("expert") == pytest.approx(0.8)
        ledger.force_set("expert", 0.5)  # direct mean
        assert ledger.weight_of("expert") == pytest.approx(0.5)

    def test_listeners_fire_with_old_and_new_weight(self, ledger):
        events = []
        ledger.add_listener(lambda *args: events.append(args))
        ledger.enroll("alice", 0)
        assert events == []  # enrollment is not a change
        ledger.observe_vote("alice", agreed=True, now=1)
        assert len(events) == 1
        username, old, new = events[0]
        assert username == "alice"
        assert new > old


class TestDecay:
    def test_refresh_before_one_half_life_is_a_no_op(self, ledger):
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=0)
        before = ledger.evidence_of("alice")
        assert ledger.refresh(HALF_LIFE - 1) == 0
        assert ledger.evidence_of("alice") == before

    def test_one_half_life_halves_evidence_exactly(self, ledger):
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=0)
        ledger.refresh(HALF_LIFE)
        alpha, beta, anchor = ledger.evidence_of("alice")
        assert alpha == 2.0 and beta == 0.0
        assert anchor == HALF_LIFE

    def test_decay_anchors_on_the_per_user_grid(self, ledger):
        # Evidence added mid-period decays at the *next* grid point,
        # not a fixed interval after it landed.
        ledger.enroll("alice", 0)
        ledger.credit("alice", 4.0, now=HALF_LIFE - 10)
        ledger.refresh(HALF_LIFE)
        alpha, _, anchor = ledger.evidence_of("alice")
        assert alpha == 2.0
        assert anchor == HALF_LIFE

    def test_decay_pulls_weight_toward_prior(self, ledger):
        ledger.enroll("veteran", 0)
        for _ in range(20):
            ledger.observe_vote("veteran", agreed=True, now=0)
        weights = [ledger.weight_of("veteran")]
        for step in range(1, 6):
            ledger.refresh(step * HALF_LIFE)
            weights.append(ledger.weight_of("veteran"))
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] > ledger.policy.prior_mean


class TestEngineWiring:
    def test_trust_model_selects_ledger(self):
        linear = ReputationEngine(trust_model=TRUST_LINEAR)
        bayes = ReputationEngine(trust_model=TRUST_BAYESIAN)
        assert isinstance(linear.trust, TrustLedger)
        assert isinstance(bayes.trust, BayesianTrustLedger)
        with pytest.raises(Exception):
            ReputationEngine(trust_model="quadratic")

    def test_both_ledgers_survive_in_one_database(self):
        # A/B exhibits run both models over the same vote history; the
        # tables must not collide.
        db = Database()
        clock = SimClock()
        ReputationEngine(database=db, clock=clock, trust_model=TRUST_LINEAR)
        ReputationEngine(database=db, clock=clock, trust_model=TRUST_BAYESIAN)

    def _bayes_engine(self, scoring_mode="streaming"):
        clock = SimClock()
        engine = ReputationEngine(
            clock=clock, scoring_mode=scoring_mode, trust_model=TRUST_BAYESIAN
        )
        for index in range(6):
            engine.enroll_user(f"user{index}")
        return engine, clock

    def test_votes_are_judged_against_settled_consensus(self):
        engine, clock = self._bayes_engine()
        digest = "ab" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 8)
        # Five votes settle the consensus at 8; the judge now scores
        # newcomers.  user5 agrees -> weight rises above the prior.
        before = engine.trust.weight_of("user5")
        engine.cast_vote("user5", digest, 8)
        assert engine.trust.weight_of("user5") > before

    def test_disagreeing_vote_costs_weight(self):
        engine, clock = self._bayes_engine()
        digest = "cd" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 9)
        before = engine.trust.weight_of("user5")
        engine.cast_vote("user5", digest, 1)
        assert engine.trust.weight_of("user5") < before

    def test_unsettled_digest_judges_nobody(self):
        engine, clock = self._bayes_engine()
        digest = "ef" * 20
        before = engine.trust.weight_of("user0")
        engine.cast_vote("user0", digest, 5)
        assert engine.trust.weight_of("user0") == before

    def test_trust_change_bumps_score_version_in_streaming_mode(self):
        engine, clock = self._bayes_engine()
        digest = "0a" * 20
        for index in range(5):
            engine.cast_vote(f"user{index}", digest, 8)
        version = engine.score_version(digest)
        engine.trust.credit("user0", 3.0, clock.now())
        assert engine.score_version(digest) > version


class TestBatchTrustRepublication:
    """Regression: a trust mutation must republish, at the next tick,
    the digests its user already voted on — incremental batch runs used
    to skip them because only votes populated their dirty set."""

    def _batch_engine(self, trust_model=TRUST_LINEAR):
        clock = SimClock()
        engine = ReputationEngine(
            clock=clock, scoring_mode="batch", trust_model=trust_model
        )
        for index in range(4):
            engine.enroll_user(f"user{index}")
        return engine, clock

    def test_trust_change_marks_voted_digests_dirty(self):
        """The trust change folds into the digest's sums at once; its
        published row waits for the tick."""
        engine, clock = self._batch_engine()
        digest = "11" * 20
        engine.cast_vote("user0", digest, 9)
        engine.cast_vote("user1", digest, 1)
        engine.run_daily_aggregation()
        published = engine.software_reputation(digest)
        engine.trust.force_set("user0", 50.0)
        assert engine.scorer.sums_of(digest) == engine.scorer._recompute(digest)
        assert engine.scorer.sums_of(digest)[1] == 51.0
        assert engine.software_reputation(digest) == published
        clock.advance(days(1))
        report = engine.run_daily_aggregation()
        assert report.republished == 1
        assert engine.software_reputation(digest).total_weight == 51.0

    def test_incremental_run_republishes_reweighted_score(self):
        engine, clock = self._batch_engine()
        digest = "22" * 20
        engine.cast_vote("user0", digest, 10)
        engine.cast_vote("user1", digest, 2)
        engine.run_daily_aggregation()
        first = engine.software_reputation(digest)
        assert first.score == pytest.approx(6.0)
        version = engine.score_version(digest)
        # Pure trust mutation — no new votes anywhere.
        engine.trust.force_set("user0", 99.0)
        assert engine.score_version(digest) == version
        clock.advance(days(1))
        engine.run_daily_aggregation()
        second = engine.software_reputation(digest)
        assert second.score > 9.0
        assert engine.score_version(digest) > version

    def test_remark_feedback_reaches_incremental_batch(self):
        engine, clock = self._batch_engine()
        digest = "33" * 20
        engine.cast_vote("user0", digest, 10)
        engine.cast_vote("user1", digest, 1)
        engine.run_daily_aggregation()
        version = engine.score_version(digest)
        comment = engine.add_comment("user0", digest, "obvious spyware")
        clock.advance(weeks(2))  # room under the weekly growth cap
        for grader in ("user1", "user2", "user3"):
            engine.add_remark(grader, comment.comment_id, positive=True)
        assert engine.score_version(digest) == version
        clock.advance(days(1))
        engine.run_daily_aggregation()
        assert engine.score_version(digest) > version

    def test_incremental_reweight_matches_full_recompute(self):
        engine, clock = self._batch_engine(trust_model=TRUST_BAYESIAN)
        digests = ["44" * 20, "55" * 20]
        for digest in digests:
            for index in range(4):
                engine.cast_vote(f"user{index}", digest, 3 + index)
        engine.run_daily_aggregation()
        engine.trust.penalize("user3", clock.now())
        clock.advance(days(1))
        engine.run_daily_aggregation()
        for digest in digests:
            weighted_sum, weight_sum, vote_count = engine.scorer._recompute(digest)
            published = engine.software_reputation(digest)
            assert published.score == weighted_sum / weight_sum
            assert published.total_weight == weight_sum
            assert published.vote_count == vote_count
        # The next quiet tick finds nothing left to republish.
        clock.advance(days(1))
        assert engine.run_daily_aggregation().republished == 0
