"""E10 — the daily tick and vendor ratings (Sec. 3.2/3.3).

The tick recomputes every rated digest from its votes and republishes
the rows that moved: all of them on the first tick, only the digests
with new votes on a quiet day.  Plus the polymorphic-vendor scenario:
per-file ratings scatter, vendor ratings converge.
"""

import pytest

from benchmarks.exhibits import record_exhibit, run_once
from repro.analysis.experiments import (
    build_loaded_engine,
    run_e10_aggregation,
    run_e10_freshness,
)
from repro.clock import days


def test_e10_exhibit(benchmark):
    result = run_once(
        benchmark,
        run_e10_aggregation,
        software_count=500,
        user_count=100,
        votes_per_software=10,
        seed=47,
    )
    record_exhibit("E10: aggregation batch + vendor ratings", result["rendered"])
    assert result["first_tick"]["recomputed"] == 500
    assert result["first_tick"]["republished"] == 500
    assert result["quiet_day"]["recomputed"] == 500
    assert result["quiet_day"]["republished"] == result["quiet_day"]["touched"]
    assert result["polymorphic"]["max_votes_per_file"] == 1
    assert result["polymorphic"]["vendor_score"] == pytest.approx(2.0)


def test_e10_freshness_exhibit(benchmark):
    """Vote-to-visible latency: streaming must beat the 24h batch flat.

    The acceptance bar: streaming p99 under one simulated second (it is
    zero — scores publish inside the casting transaction) while the
    batch waits out the nightly run, and the closing reconciliation
    audit finds every running sum exactly equal to a full recompute.
    """
    result = run_once(
        benchmark,
        run_e10_freshness,
        software_count=60,
        user_count=50,
        votes_per_day=200,
        sim_days=2,
        seed=47,
    )
    record_exhibit("E10F: vote-to-visible freshness", result["rendered"])
    assert result["batch"]["p99_seconds"] > 3600  # hours, not seconds
    assert result["streaming"]["p99_seconds"] < 1.0
    audit = result["streaming"]["reconciliation"]
    assert audit["mismatched"] == 0
    assert audit["checked"] > 0


def test_e10_full_batch_timing(benchmark):
    """Wall-clock of the daily tick (500 software, 5000 votes)."""
    engine = build_loaded_engine(
        software_count=500, user_count=100, votes_per_software=10, seed=47
    )

    def batch():
        engine.clock.advance(days(1))
        return engine.run_daily_aggregation()

    report = benchmark(batch)
    assert report.checked == 500

