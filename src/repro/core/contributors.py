"""Contributor analytics: who is editing the map.

The paper's introduction highlights that OSM's update stream mixes
volunteers with heavy corporate programs (Amazon, Apple, Facebook,
...) and cites the corporate-editors literature [2]; the changeset
metadata RASED already crawls (user, uid, ``created_by``, change
counts — Section II-B) is exactly what's needed to quantify that mix.

:class:`ContributorStats` aggregates a :class:`ChangesetStore` into
per-user and per-editor statistics the dashboard can expose next to
the spatial views: top contributors by change volume, session counts,
active spans, and the share of edits arriving from bulk sessions.
This is an extension beyond the paper's shipped queries, built only on
substrates the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime

from repro.osm.changesets import Changeset, ChangesetStore

__all__ = ["ContributorStats", "Contributor"]

#: Sessions at or above this many changes count as bulk/import-scale.
BULK_SESSION_THRESHOLD = 100


@dataclass
class Contributor:
    """Aggregated statistics for one OSM user."""

    uid: int
    user: str
    session_count: int = 0
    change_count: int = 0
    bulk_session_count: int = 0
    bulk_change_count: int = 0
    first_seen: datetime | None = None
    last_seen: datetime | None = None
    editors: set[str] = field(default_factory=set)

    @property
    def active_days(self) -> int:
        if self.first_seen is None or self.last_seen is None:
            return 0
        return (self.last_seen.date() - self.first_seen.date()).days + 1

    def absorb(self, changeset: Changeset) -> None:
        self.session_count += 1
        self.change_count += changeset.changes_count
        if changeset.changes_count >= BULK_SESSION_THRESHOLD:
            self.bulk_session_count += 1
            self.bulk_change_count += changeset.changes_count
        if self.first_seen is None or changeset.created_at < self.first_seen:
            self.first_seen = changeset.created_at
        if self.last_seen is None or changeset.closed_at > self.last_seen:
            self.last_seen = changeset.closed_at
        created_by = changeset.tags.get("created_by")
        if created_by:
            self.editors.add(created_by)


class ContributorStats:
    """Per-user aggregation over a changeset store."""

    def __init__(self) -> None:
        self._by_uid: dict[int, Contributor] = {}
        self.total_sessions = 0
        self.total_changes = 0

    @classmethod
    def from_store(
        cls,
        store: ChangesetStore,
        start: date | None = None,
        end: date | None = None,
    ) -> "ContributorStats":
        """Aggregate every changeset (optionally date-filtered)."""
        stats = cls()
        for changeset in store:
            day = changeset.created_at.date()
            if start is not None and day < start:
                continue
            if end is not None and day > end:
                continue
            stats.absorb(changeset)
        return stats

    def absorb(self, changeset: Changeset) -> None:
        contributor = self._by_uid.get(changeset.uid)
        if contributor is None:
            contributor = Contributor(uid=changeset.uid, user=changeset.user)
            self._by_uid[changeset.uid] = contributor
        contributor.absorb(changeset)
        self.total_sessions += 1
        self.total_changes += changeset.changes_count

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_uid)

    def contributor(self, uid: int) -> Contributor | None:
        return self._by_uid.get(uid)

    def top(self, n: int = 10, by: str = "change_count") -> list[Contributor]:
        """The n heaviest contributors by a Contributor attribute."""
        return sorted(
            self._by_uid.values(),
            key=lambda c: getattr(c, by),
            reverse=True,
        )[:n]

    def render_table(self, n: int = 10) -> str:
        """A dashboard-style text table of the top contributors."""
        header = ["user", "sessions", "changes", "bulk", "days active", "editors"]
        rows = []
        for contributor in self.top(n):
            rows.append(
                [
                    contributor.user,
                    str(contributor.session_count),
                    f"{contributor.change_count:,}",
                    str(contributor.bulk_session_count),
                    str(contributor.active_days),
                    ",".join(sorted(contributor.editors)) or "-",
                ]
            )
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        )
        return "\n".join(lines)
