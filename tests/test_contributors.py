"""Tests for contributor analytics over changeset metadata."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import pytest

from repro.core.contributors import (
    BULK_SESSION_THRESHOLD,
    Contributor,
    ContributorStats,
)
from repro.geo.geometry import BBox
from repro.osm.changesets import Changeset, ChangesetStore


def make_changeset(
    cid: int,
    uid: int = 5,
    user: str = "alice",
    changes: int = 10,
    day: int = 1,
    created_by: str = "iD",
) -> Changeset:
    start = datetime(2021, 3, day, 10, tzinfo=timezone.utc)
    return Changeset(
        id=cid,
        created_at=start,
        closed_at=start + timedelta(minutes=30),
        uid=uid,
        user=user,
        bbox=BBox(-1, -1, 1, 1),
        tags={"created_by": created_by},
        changes_count=changes,
    )


class TestContributor:
    def test_absorb_accumulates(self):
        contributor = Contributor(uid=5, user="alice")
        contributor.absorb(make_changeset(1, changes=10))
        contributor.absorb(make_changeset(2, changes=20, day=3))
        assert contributor.session_count == 2
        assert contributor.change_count == 30
        assert contributor.change_count / contributor.session_count == 15
        assert contributor.active_days == 3

    def test_bulk_threshold(self):
        contributor = Contributor(uid=5, user="alice")
        contributor.absorb(make_changeset(1, changes=BULK_SESSION_THRESHOLD))
        contributor.absorb(make_changeset(2, changes=5))
        assert contributor.bulk_session_count == 1
        assert contributor.bulk_change_count == BULK_SESSION_THRESHOLD

    def test_editors_collected(self):
        contributor = Contributor(uid=5, user="alice")
        contributor.absorb(make_changeset(1, created_by="iD"))
        contributor.absorb(make_changeset(2, created_by="JOSM"))
        assert contributor.editors == {"iD", "JOSM"}

    def test_empty_contributor(self):
        contributor = Contributor(uid=1, user="ghost")
        assert contributor.session_count == contributor.change_count == 0
        assert contributor.active_days == 0


class TestContributorStats:
    @pytest.fixture()
    def stats(self):
        stats = ContributorStats()
        for cid in range(1, 4):
            stats.absorb(make_changeset(cid, uid=5, user="alice", changes=10))
        stats.absorb(make_changeset(10, uid=9, user="corp_bot", changes=500))
        stats.absorb(make_changeset(11, uid=9, user="corp_bot", changes=300))
        return stats

    def test_counts(self, stats):
        assert len(stats) == 2
        assert stats.total_sessions == 5
        assert stats.total_changes == 830

    def test_top_by_changes(self, stats):
        top = stats.top(1)
        assert top[0].user == "corp_bot"

    def test_top_by_sessions(self, stats):
        top = stats.top(1, by="session_count")
        assert top[0].user == "alice"

    def test_bulk_change_share(self, stats):
        bulk = sum(c.bulk_change_count for c in stats.top(len(stats)))
        assert bulk / stats.total_changes == pytest.approx(800 / 830)

    def test_contributor_lookup(self, stats):
        assert stats.contributor(5).user == "alice"
        assert stats.contributor(404) is None

    def test_render_table(self, stats):
        text = stats.render_table(5)
        assert "corp_bot" in text
        assert "changes" in text.splitlines()[0]

    def test_empty_stats(self):
        stats = ContributorStats()
        assert stats.total_changes == 0
        assert stats.top() == []
        assert "user" in stats.render_table()

    def test_from_store_with_date_filter(self, tmp_path):
        store = ChangesetStore(tmp_path)
        store.add(make_changeset(1, day=1))
        store.add(make_changeset(2, day=10))
        store.flush()
        all_stats = ContributorStats.from_store(store)
        assert all_stats.total_sessions == 2
        windowed = ContributorStats.from_store(
            store, start=date(2021, 3, 5), end=date(2021, 3, 31)
        )
        assert windowed.total_sessions == 1

    def test_from_simulated_store(self, ingested_system):
        """The simulator's mapper profiles show up in the analytics."""
        stats = ContributorStats.from_store(ingested_system.changeset_store)
        assert len(stats) > 5
        assert stats.total_sessions > 50
        top = stats.top(5)
        # Bulk editors (corporate/importer profiles) should lead.
        assert top[0].change_count >= top[-1].change_count
        editors = {e for c in stats.top(50) for e in c.editors}
        assert "rased-repro-simulator" in editors
