"""Property-based tests of the reputation core (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SECONDS_PER_WEEK, SimClock, days, weeks
from repro.core.aggregation import Aggregator
from repro.core.ratings import MAX_SCORE, MIN_SCORE, RatingBook
from repro.core.reputation import ReputationEngine
from repro.core.scoring import SCORING_STREAMING, StreamingScorer
from repro.core.taxonomy import (
    ConsentLevel,
    Consequence,
    classify,
    transform_with_reputation,
)
from repro.core.trust import TrustLedger, TrustPolicy
from repro.core.trust2 import BayesianTrustPolicy
from repro.errors import DuplicateVoteError
from repro.storage import Database


# ---------------------------------------------------------------------------
# Trust-factor invariants
# ---------------------------------------------------------------------------

trust_events = st.lists(
    st.tuples(
        st.sampled_from(["credit", "debit"]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(min_value=0, max_value=weeks(30)),
    ),
    max_size=40,
)


@given(events=trust_events)
@settings(max_examples=80, deadline=None)
def test_trust_always_within_bounds_and_under_cap(events):
    """Trust never leaves [minimum, maximum] and never beats the weekly
    cap for the time of the credit, under any event sequence."""
    policy = TrustPolicy()
    ledger = TrustLedger(Database(), policy)
    ledger.enroll("u", signup_ts=0)
    clock_floor = 0
    for kind, amount, at in sorted(events, key=lambda event: event[2]):
        at = max(at, clock_floor)
        clock_floor = at
        if kind == "credit":
            value = ledger.credit("u", amount, now=at)
            assert value <= policy.cap_at(0, at)
        else:
            value = ledger.debit("u", amount)
        assert policy.minimum <= value <= policy.maximum


@given(
    signup=st.integers(min_value=0, max_value=weeks(10)),
    elapsed=st.integers(min_value=0, max_value=weeks(60)),
)
@settings(max_examples=100, deadline=None)
def test_cap_is_monotone_in_time(signup, elapsed):
    policy = TrustPolicy()
    now = signup + elapsed
    later = now + SECONDS_PER_WEEK
    assert policy.cap_at(signup, now) <= policy.cap_at(signup, later)
    assert policy.cap_at(signup, now) <= policy.maximum


# ---------------------------------------------------------------------------
# One-vote invariant and aggregation bounds
# ---------------------------------------------------------------------------

vote_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),   # user index
        st.integers(min_value=0, max_value=5),   # software index
        st.integers(min_value=MIN_SCORE, max_value=MAX_SCORE),
    ),
    max_size=60,
)


@given(stream=vote_stream)
@settings(max_examples=80, deadline=None)
def test_one_vote_per_pair_under_any_stream(stream):
    book = RatingBook(Database())
    accepted = {}
    for user_index, software_index, score in stream:
        user, software = f"u{user_index}", f"s{software_index}"
        if (user, software) in accepted:
            with pytest.raises(DuplicateVoteError):
                book.cast(user, software, score, now=0)
        else:
            book.cast(user, software, score, now=0)
            accepted[(user, software)] = score
    assert book.total_votes() == len(accepted)
    for (user, software), _score in accepted.items():
        assert book.has_voted(user, software)


@given(
    stream=vote_stream,
    trusts=st.lists(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        min_size=9,
        max_size=9,
    ),
)
@settings(max_examples=60, deadline=None)
def test_weighted_score_bounded_by_vote_extremes(stream, trusts):
    """A weighted mean can never leave the [min vote, max vote] envelope
    — no trust assignment can push a score outside what was voted."""
    db = Database()
    ledger = TrustLedger(db)
    book = RatingBook(db)
    aggregator = Aggregator(db)
    scorer = StreamingScorer(db, book, ledger, aggregator, SCORING_STREAMING)
    for index, trust in enumerate(trusts):
        ledger.enroll(f"u{index}", 0)
        ledger.force_set(f"u{index}", trust)
    cast = {}
    for user_index, software_index, score in stream:
        user, software = f"u{user_index}", f"s{software_index}"
        if (user, software) in cast:
            continue
        book.cast(user, software, score, now=0)
        cast[(user, software)] = score
    scorer.reconcile(now=0)
    by_software = {}
    for (_user, software), score in cast.items():
        by_software.setdefault(software, []).append(score)
    epsilon = 1e-9
    for software, scores in by_software.items():
        published = aggregator.score_of(software)
        assert min(scores) - epsilon <= published.score <= max(scores) + epsilon
        assert published.vote_count == len(scores)


# ---------------------------------------------------------------------------
# Taxonomy transformation properties
# ---------------------------------------------------------------------------

consents = st.sampled_from(list(ConsentLevel))
consequences = st.sampled_from(list(Consequence))


@given(consent=consents, consequence=consequences, informed=st.booleans(), deceitful=st.booleans())
@settings(max_examples=200, deadline=None)
def test_transformation_preserves_consequence(consent, consequence, informed, deceitful):
    """The reputation system changes what users *know*, never what the
    software *does*: consequence is invariant under transformation."""
    cell = classify(consent, consequence)
    transformed = transform_with_reputation(cell, informed, deceitful)
    assert transformed.consequence is cell.consequence


@given(consent=consents, consequence=consequences, informed=st.booleans(), deceitful=st.booleans())
@settings(max_examples=200, deadline=None)
def test_transformation_is_idempotent(consent, consequence, informed, deceitful):
    cell = classify(consent, consequence)
    once = transform_with_reputation(cell, informed, deceitful)
    twice = transform_with_reputation(once, informed, deceitful)
    assert once == twice


@given(consequence=consequences, deceitful=st.booleans())
@settings(max_examples=50, deadline=None)
def test_informed_users_leave_no_medium_consent(consequence, deceitful):
    cell = classify(ConsentLevel.MEDIUM, consequence)
    transformed = transform_with_reputation(
        cell, reputation_informs_user=True, deceitful=deceitful
    )
    assert transformed.consent is not ConsentLevel.MEDIUM


# ---------------------------------------------------------------------------
# One scoring fold, two publication cadences
# ---------------------------------------------------------------------------

_VOTERS = 5

#: Votes, trust changes and daily ticks, applied to both cadences.
cadence_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("vote"),
            st.integers(min_value=0, max_value=_VOTERS - 1),
            st.integers(min_value=0, max_value=4),  # software index
            st.integers(min_value=MIN_SCORE, max_value=MAX_SCORE),
        ),
        st.tuples(
            st.just("trust"),
            st.integers(min_value=0, max_value=_VOTERS - 1),
            st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        ),
        st.just("tick"),
    ),
    max_size=40,
)


@given(
    trust_model=st.sampled_from(["linear", "bayesian"]),
    events=cadence_events,
)
@settings(max_examples=60, deadline=None)
def test_batch_and_streaming_cadences_publish_one_fold(trust_model, events):
    """The cadence decides when a folded score publishes, never what it
    is: after every tick a batch-cadence and a streaming-cadence engine
    fed the same events publish identical (score, vote_count,
    total_weight) rows, equal bit-for-bit to a full recompute, and
    between ticks batch-cadence rows never move."""
    # A vote is judged against a settled consensus, which the two
    # cadences publish at different times; with fewer voters than the
    # consensus minimum no vote is judged, so both see the same trust.
    policy = BayesianTrustPolicy(consensus_min_votes=_VOTERS + 1)
    engines = []
    for mode in ("batch", "streaming"):
        engine = ReputationEngine(
            clock=SimClock(),
            scoring_mode=mode,
            trust_model=trust_model,
            bayesian_policy=policy,
        )
        for index in range(_VOTERS):
            engine.enroll_user(f"user{index}")
        engines.append(engine)
    batch, streaming = engines

    def published(engine):
        return {score.software_id: score for score in engine.aggregator.all_scores()}

    seen = set()
    for event in [*events, "tick"]:
        if event == "tick":
            for engine in engines:
                engine.clock.advance(days(1))
                engine.maybe_run_aggregation()
            expected = {}
            for software_id in batch.ratings.rated_software_ids():
                weighted_sum, weight_sum, vote_count = batch.scorer._recompute(
                    software_id
                )
                expected[software_id] = (
                    weighted_sum / weight_sum, vote_count, weight_sum
                )
                for engine in engines:
                    assert engine.scorer.sums_of(software_id) == (
                        weighted_sum, weight_sum, vote_count
                    )
            for engine in engines:
                rows = {
                    software_id: (
                        score.score, score.vote_count, score.total_weight
                    )
                    for software_id, score in published(engine).items()
                }
                assert rows == expected
            continue
        before = published(batch)
        if event[0] == "vote":
            _, voter, software, score = event
            if (voter, software) in seen:
                continue
            seen.add((voter, software))
            for engine in engines:
                engine.cast_vote(f"user{voter}", f"sid{software}", score)
        else:
            _, voter, weight = event
            for engine in engines:
                engine.trust.force_set(f"user{voter}", weight)
        assert published(batch) == before
