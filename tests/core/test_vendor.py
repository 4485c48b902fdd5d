"""Software registry and vendor reputations (Sec. 3.2/3.3)."""

import pytest

from repro.core.aggregation import Aggregator
from repro.core.ratings import RatingBook
from repro.core.scoring import SCORING_STREAMING, StreamingScorer
from repro.core.trust import TrustLedger
from repro.core.vendor import VendorBook
from repro.storage import Database


@pytest.fixture
def rig(db):
    trust = TrustLedger(db)
    ratings = RatingBook(db)
    aggregator = Aggregator(db)
    scorer = StreamingScorer(db, ratings, trust, aggregator, SCORING_STREAMING)
    vendors = VendorBook(db, aggregator)
    return trust, ratings, scorer, vendors


def _register(vendors, sid, vendor="V", name="p.exe"):
    return vendors.register(
        software_id=sid,
        file_name=name,
        file_size=100,
        vendor=vendor,
        version="1.0",
        now=0,
    )


class TestRegistry:
    def test_register_and_get(self, rig):
        __, __, __, vendors = rig
        record = _register(vendors, "s1")
        assert record.software_id == "s1"
        assert vendors.get("s1").vendor == "V"
        assert vendors.is_known("s1")

    def test_register_is_idempotent(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="V")
        again = _register(vendors, "s1", vendor="Other")
        assert again.vendor == "V"  # first registration wins
        assert vendors.total_software() == 1

    def test_get_or_none(self, rig):
        __, __, __, vendors = rig
        assert vendors.get_or_none("nope") is None

    def test_missing_vendor_flagged(self, rig):
        """Sec. 3.3: a stripped company name is a PIS signal."""
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor=None)
        record = vendors.get("s1")
        assert record.vendor_missing
        assert [r.software_id for r in vendors.software_without_vendor()] == ["s1"]

    def test_search_by_name(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", name="KaZaA.exe")
        _register(vendors, "s2", name="winzip.exe")
        assert [r.software_id for r in vendors.search_by_name("kazaa")] == ["s1"]

    def test_all_vendors_excludes_missing(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="B")
        _register(vendors, "s2", vendor="A")
        _register(vendors, "s3", vendor=None)
        assert vendors.all_vendors() == ["A", "B"]


class TestVendorScores:
    def test_mean_of_software_scores(self, rig):
        """Sec. 3.2: vendor rating is the average of its software scores."""
        trust, ratings, scorer, vendors = rig
        trust.enroll("u", 0)
        _register(vendors, "s1", vendor="V")
        _register(vendors, "s2", vendor="V")
        ratings.cast("u", "s1", 4, now=0)
        ratings.cast("u", "s2", 8, now=0)
        scorer.reconcile(now=0)
        score = vendors.vendor_score("V")
        assert score.score == pytest.approx(6.0)
        assert score.software_count == 2
        assert score.rated_software_count == 2

    def test_unrated_software_excluded_from_mean(self, rig):
        trust, ratings, scorer, vendors = rig
        trust.enroll("u", 0)
        _register(vendors, "s1", vendor="V")
        _register(vendors, "s2", vendor="V")
        ratings.cast("u", "s1", 4, now=0)
        scorer.reconcile(now=0)
        score = vendors.vendor_score("V")
        assert score.score == pytest.approx(4.0)
        assert score.software_count == 2
        assert score.rated_software_count == 1

    def test_unknown_vendor_none(self, rig):
        __, __, __, vendors = rig
        assert vendors.vendor_score("nobody") is None

    def test_vendor_with_no_rated_software_none(self, rig):
        __, __, __, vendors = rig
        _register(vendors, "s1", vendor="V")
        assert vendors.vendor_score("V") is None
