"""Published scores under the batch cadence: the paper's daily tick."""

import os
import shutil

import pytest

from repro.clock import SimClock, days
from repro.core.aggregation import unweighted_mean
from repro.core.ratings import DIRTY_SCHEMA_NAME
from repro.core.reputation import ReputationEngine
from repro.storage import Database


@pytest.fixture
def engine(db):
    return ReputationEngine(database=db, clock=SimClock())


def tick(engine, now):
    """Advance the engine's clock to *now* and run the daily tick."""
    engine.clock.advance(now - engine.clock.now())
    return engine.run_daily_aggregation()


class TestWeightedScore:
    def test_equal_trust_is_plain_mean(self, engine):
        for user, score in [("a", 2), ("b", 4), ("c", 6)]:
            engine.enroll_user(user)
            engine.cast_vote(user, "sid", score)
        tick(engine, 0)
        assert engine.aggregator.score_of("sid").score == pytest.approx(4.0)

    def test_trust_weights_votes(self, engine):
        """Sec. 2.1: experienced users' opinions carry higher weight."""
        engine.enroll_user("expert")
        engine.trust.force_set("expert", 9.0)
        engine.enroll_user("novice")
        engine.cast_vote("expert", "sid", 9)
        engine.cast_vote("novice", "sid", 1)
        tick(engine, 0)
        # (9*9 + 1*1) / 10 = 8.2 — the expert dominates
        assert engine.aggregator.score_of("sid").score == pytest.approx(8.2)

    def test_unknown_voter_weighs_minimum(self, engine):
        engine.cast_vote("ghost", "sid", 10)
        tick(engine, 0)
        score = engine.aggregator.score_of("sid")
        assert score.total_weight == pytest.approx(1.0)

    def test_unrated_software_has_no_score(self, engine):
        tick(engine, 0)
        assert engine.aggregator.score_of("nothing") is None

    def test_score_metadata(self, engine):
        engine.enroll_user("a")
        engine.cast_vote("a", "sid", 5)
        tick(engine, 77)
        score = engine.aggregator.score_of("sid")
        assert score.vote_count == 1
        assert score.computed_at == 77


class TestBatchBehaviour:
    def test_scores_fixed_between_batches(self, engine):
        """Sec. 3.2: ratings are calculated at fixed points in time."""
        engine.enroll_user("a")
        engine.cast_vote("a", "sid", 2)
        tick(engine, 0)
        engine.enroll_user("b")
        engine.clock.advance(1)
        engine.cast_vote("b", "sid", 10)
        # No tick yet: the published score is unchanged.
        assert engine.aggregator.score_of("sid").score == pytest.approx(2.0)
        tick(engine, days(1))
        assert engine.aggregator.score_of("sid").score == pytest.approx(6.0)

    def test_is_due_honours_period(self, engine):
        aggregator = engine.aggregator
        assert aggregator.is_due(0)
        tick(engine, 0)
        assert not aggregator.is_due(days(1) - 1)
        assert aggregator.is_due(days(1))

    def test_incremental_only_touches_dirty(self, engine):
        """The tick recomputes every digest but republishes only the
        one whose votes changed since the previous tick."""
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("a", "s2", 5)
        tick(engine, 0)
        versions = {sid: engine.score_version(sid) for sid in ("s1", "s2")}
        engine.clock.advance(1)
        engine.cast_vote("a", "s3", 9)
        report = tick(engine, days(1))
        assert report.checked == 3
        assert report.republished == 1
        assert engine.aggregator.score_of("s3").score == pytest.approx(9.0)
        # s1/s2 still published from the first tick, under the same version
        assert {sid: engine.score_version(sid) for sid in ("s1", "s2")} == versions

    def test_incremental_equals_full_results(self, engine):
        """The folded sums the tick publishes equal a full recompute."""
        for user in ("a", "b"):
            engine.enroll_user(user)
        engine.cast_vote("a", "s1", 4)
        engine.cast_vote("b", "s1", 8)
        assert engine.scorer.sums_of("s1") == engine.scorer._recompute("s1")
        report = tick(engine, 0)
        assert report.republished == 1
        assert engine.aggregator.score_of("s1").score == 6.0

    def test_full_run_drains_dirty(self, engine):
        """A tick leaves nothing pending: the next quiet tick
        republishes nothing."""
        engine.cast_vote("a", "s1", 5)
        tick(engine, 0)
        report = tick(engine, days(1))
        assert report.checked == 1
        assert report.republished == 0

    def test_report_counts(self, engine):
        engine.enroll_user("a")
        engine.enroll_user("b")
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("b", "s1", 7)
        engine.cast_vote("a", "s2", 3)
        report = tick(engine, 0)
        assert report.ran_at == 0
        assert report.checked == 2
        assert report.mismatched == 2
        assert report.republished == 2

    def test_all_scores_and_count(self, engine):
        engine.cast_vote("a", "s1", 5)
        engine.cast_vote("a", "s2", 5)
        tick(engine, 0)
        aggregator = engine.aggregator
        assert aggregator.scored_count() == 2
        assert {s.software_id for s in aggregator.all_scores()} == {"s1", "s2"}

    def test_top_and_bottom_scores(self, engine):
        for index, score in enumerate((9, 2, 6, 4)):
            engine.cast_vote("a", f"s{index}", score)
        tick(engine, 0)
        top = engine.aggregator.top_scores(limit=2)
        assert [s.software_id for s in top] == ["s0", "s2"]
        bottom = engine.aggregator.bottom_scores(limit=2)
        assert [s.software_id for s in bottom] == ["s1", "s3"]

    def test_rankings_respect_min_votes(self, engine):
        engine.cast_vote("a", "thin", 10)
        engine.cast_vote("a", "thick", 5)
        engine.cast_vote("b", "thick", 5)
        tick(engine, 0)
        top = engine.aggregator.top_scores(limit=5, min_votes=2)
        assert [s.software_id for s in top] == ["thick"]


def test_unweighted_mean():
    from repro.core.ratings import Vote

    votes = [Vote("a", "s", 2, 0), Vote("b", "s", 4, 0)]
    assert unweighted_mean(votes) == pytest.approx(3.0)
    assert unweighted_mean([]) is None


def _open(directory, now=0):
    """A batch-cadence engine over a reopened data directory, brought up
    the way the server does it: declare, recover, bootstrap."""
    database = Database(directory=directory)
    engine = ReputationEngine(database=database, clock=SimClock(now))
    database.recover()
    engine.bootstrap_scores(reload=True)
    updates = []
    engine.add_score_listener(updates.append)
    return engine, updates


class TestDurableIncremental:
    """Votes after the last tick survive a restart and publish, alone,
    at the next tick; ``epoch`` and ``last_run`` survive too."""

    def _session_one(self, directory):
        engine, _ = _open(directory)
        engine.enroll_user("a")
        engine.enroll_user("b")
        engine.cast_vote("a", "s1", 8)
        engine.cast_vote("a", "s2", 2)
        tick(engine, 10)
        assert engine.aggregator.epoch == 1
        # After the tick: one new vote on s2, one on a new digest s3.
        engine.clock.advance(10)
        engine.cast_vote("b", "s2", 4)
        engine.cast_vote("b", "s3", 6)
        return engine

    def _check_session_two(self, directory, sums_in_sync):
        engine, updates = _open(directory, now=25)
        assert engine.scorer.in_sync_with_votes() == sums_in_sync
        assert engine.aggregator.epoch == 1
        assert engine.aggregator.last_run == 10
        # Nothing publishes before the next tick.
        assert updates == []
        assert engine.aggregator.score_of("s2").score == pytest.approx(2.0)
        assert engine.aggregator.score_of("s3") is None

        report = tick(engine, 30)
        # Exactly the digests with post-tick votes publish.
        assert sorted(update.software_id for update in updates) == ["s2", "s3"]
        assert report.checked == 3
        assert report.republished == 2
        assert engine.aggregator.epoch == 2
        assert engine.aggregator.score_of("s1").score == pytest.approx(8.0)
        assert engine.aggregator.score_of("s2").score == pytest.approx(3.0)
        assert engine.aggregator.score_of("s3").score == pytest.approx(6.0)
        for digest in ("s1", "s2", "s3"):
            assert engine.scorer.sums_of(digest) == engine.scorer._recompute(digest)

    def test_incremental_survives_restart(self, tmp_path):
        """Reopened without a flush: the folded sums died with the
        process, and the tick rebuilds them from the votes."""
        live = str(tmp_path / "live")
        os.makedirs(live)
        engine = self._session_one(live)
        crashed = str(tmp_path / "crashed")
        shutil.copytree(live, crashed)
        engine.db.close()
        self._check_session_two(crashed, sums_in_sync=False)

    def test_tick_after_clean_close_publishes_only_new_votes(self, tmp_path):
        """Reopened after ``close()``-style flush: the sums are in sync,
        and only the published rows lag."""
        directory = str(tmp_path / "agg")
        engine = self._session_one(directory)
        engine.flush_scores()
        engine.db.close()
        self._check_session_two(directory, sums_in_sync=True)

    def test_empty_incremental_run_does_not_bump_epoch(self, tmp_path):
        directory = str(tmp_path / "agg")
        engine, _ = _open(directory)
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 8)
        tick(engine, 10)
        engine.db.close()

        engine2, updates = _open(directory, now=10)
        epoch = engine2.aggregator.epoch
        report = tick(engine2, 40)
        assert report.republished == 0
        assert updates == []
        assert engine2.aggregator.epoch == epoch
        assert engine2.aggregator.last_run == 40

    def test_directory_with_retired_dirty_rows_recovers(self, tmp_path):
        """Data directories from before the one scoring fold hold rows
        of the retired dirty-set table in snapshot and WAL; they still
        recover, and nothing writes the table again."""
        directory = str(tmp_path / "old")
        engine, _ = _open(directory)
        engine.enroll_user("a")
        engine.cast_vote("a", "s1", 8)
        dirty = engine.db.table(DIRTY_SCHEMA_NAME)
        dirty.insert({"software_id": "s1"})
        engine.db.checkpoint()  # s1's dirty row lands in the snapshot
        engine.cast_vote("a", "s2", 4)
        dirty.insert({"software_id": "s2"})  # s2's stays in the WAL
        engine.db.close()

        engine2, updates = _open(directory)
        dirty = engine2.db.table(DIRTY_SCHEMA_NAME)
        assert set(dirty.primary_keys()) == {"s1", "s2"}
        engine2.cast_vote("a", "s3", 6)
        report = tick(engine2, days(1))
        assert report.republished == 3
        assert sorted(update.software_id for update in updates) == [
            "s1", "s2", "s3",
        ]
        assert set(dirty.primary_keys()) == {"s1", "s2"}
