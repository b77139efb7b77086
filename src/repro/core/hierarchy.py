"""The hierarchical temporal index of precomputed data cubes.

This is RASED's core structure (paper, Section VI-A and Fig. 6): a
four-level tree — daily, weekly, monthly, yearly cubes under a dummy
root — where every node is one cube stored in one disk page.  Cubes
are built sparse (:class:`~repro.types.cube.SparseCube`, densified
past the density threshold) and written by
:func:`~repro.storage.serializer.serialize_cube`.  The index never
stores raw updates; it stores aggregates that "cover everything one
could ask for from any RASED analysis query".

Maintenance follows the paper exactly:

* **Daily** (:meth:`HierarchicalIndex.ingest_day`): scan the day's
  UpdateList, build one coarse daily cube, write it (1 page I/O).  If
  the day closes a week, roll the week's dailies up into a weekly
  cube; likewise months and years at their boundaries.  Rollups read
  sibling cubes back from disk (the just-built cube is still in
  memory), matching the paper's "up to 8, 6, and 13 I/Os" at
  week/month/year ends.
* **Monthly** (:meth:`HierarchicalIndex.rebuild_month`): when the
  monthly crawler delivers fully classified updates, rebuild all the
  month's daily and weekly cubes (and the monthly cube, and the yearly
  cube if present) at full resolution, then swap them in.

The index also exposes the storage accounting (pages and bytes per
level) behind the paper's Fig. 8.
"""

from __future__ import annotations

import re
import threading
from datetime import date
from typing import TYPE_CHECKING, Mapping

from repro.types.temporal import (
    Level,
    TemporalKey,
    completed_units,
    day_key,
    month_key,
    week_key,
    year_key,
)
from repro.types.cube import (
    AnyCube,
    RESOLUTION_COARSE,
    RESOLUTION_FULL,
    SparseCube,
    sum_cubes,
)
from repro.types.dimensions import CubeSchema
from repro.errors import (
    CubeNotFoundError,
    IndexError_,
    PageCorruptError,
    PageNotFoundError,
)
from repro.geo.zones import ZoneAtlas
from repro.storage.pages import PageStore
from repro.storage.serializer import deserialize_cube, serialize_cube

if TYPE_CHECKING:  # avoid core -> collection import cycle at runtime
    from repro.collection.records import UpdateList
    from repro.core.resultcache import EpochCounter

__all__ = ["HierarchicalIndex", "page_id_for", "parse_page_key"]

_PAGE_PREFIX = "cubes"
_KEY_RE = re.compile(
    r"^(?:"
    r"D(?P<dy>\d{4})-(?P<dm>\d{2})-(?P<dd>\d{2})"
    r"|W(?P<wy>\d{4})-(?P<wm>\d{2})\.(?P<wi>\d)"
    r"|M(?P<my>\d{4})-(?P<mm>\d{2})"
    r"|Y(?P<yy>\d{4})"
    r")$"
)


def page_id_for(key: TemporalKey, prefix: str = _PAGE_PREFIX) -> str:
    """The page id a cube is stored under (e.g. ``cubes/D2021-03-05``)."""
    return f"{prefix}/{key}"


def parse_page_key(page_id: str, prefix: str = _PAGE_PREFIX) -> TemporalKey:
    """Invert :func:`page_id_for`."""
    head, _, text = page_id.partition("/")
    if head != prefix or not text:
        raise IndexError_(f"not a cube page id: {page_id!r}")
    match = _KEY_RE.match(text)
    if match is None:
        raise IndexError_(f"unparseable cube key {text!r}")
    groups = match.groupdict()
    if groups["dy"] is not None:
        return day_key(date(int(groups["dy"]), int(groups["dm"]), int(groups["dd"])))
    if groups["wy"] is not None:
        return week_key(int(groups["wy"]), int(groups["wm"]), int(groups["wi"]))
    if groups["my"] is not None:
        return month_key(int(groups["my"]), int(groups["mm"]))
    return year_key(int(groups["yy"]))


def _widen(span: tuple[date, date] | None, key: TemporalKey) -> tuple[date, date]:
    """``span`` grown to cover ``key``."""
    low, high = span or (key.start, key.end)
    return min(key.start, low), max(key.end, high)


class HierarchicalIndex:
    """Four-level cube index over a page store.

    Parameters
    ----------
    schema:
        Cube dimension schema (shared by every node).
    store:
        The page store (simulated disk) cubes live on.
    atlas:
        Zone atlas used to expand update locations into overlapping
        zones of interest when building daily cubes.  Optional: without
        it only the stored country is counted.
    levels:
        Which levels to maintain above DAY.  The full paper index is
        all four; the Fig. 8 experiment builds truncated variants
        (e.g. ``(Level.DAY,)`` is the flat index).
    """

    def __init__(
        self,
        schema: CubeSchema,
        store: PageStore,
        atlas: ZoneAtlas | None = None,
        levels: tuple[Level, ...] = (Level.DAY, Level.WEEK, Level.MONTH, Level.YEAR),
        prefix: str = _PAGE_PREFIX,
        epoch: "EpochCounter | None" = None,
    ) -> None:
        if Level.DAY not in levels:
            raise IndexError_("the index must include the daily level")
        self.schema = schema
        self.store = store
        self.atlas = atlas
        self.levels = tuple(sorted(levels))
        self.prefix = prefix
        #: Bumped with a written key's window (all time on a reload) so
        #: the executor's result cache can invalidate; optional.
        self.epoch = epoch
        # Maintenance (put) and concurrent queries (keys/coverage
        # sorts) touch the catalog at once in a threaded deployment.
        self._catalog_lock = threading.Lock()
        #: Keys known to exist, by level (kept in sync with the store).
        #: Pre-seeded per level so lookups never mutate the dict.
        self._catalog: dict[Level, set[TemporalKey]] = {
            level: set() for level in Level
        }  # guarded-by: _catalog_lock
        #: Keys pulled from service because their page failed to read
        #: or deserialize; queries plan around them and answer partial.
        self._quarantined: set[TemporalKey] = set()  # guarded-by: _catalog_lock
        self._span: tuple[date, date] | None = None  # guarded-by: _catalog_lock
        self._load_catalog()

    def _load_catalog(self) -> None:
        with self._catalog_lock:
            for page_id in self.store.list_pages(self.prefix + "/"):
                key = parse_page_key(page_id, self.prefix)
                self._catalog[key.level].add(key)
                self._span = _widen(self._span, key)

    def reload_catalog(self) -> None:
        """Resynchronize the in-memory catalog with the store.

        Needed after something outside the index's control rewrites
        cube pages underneath it — WAL rollback after a crashed batch,
        most notably.  Clears quarantine: pages restored from undo are
        good again, and genuinely bad pages re-quarantine on next read.
        """
        with self._catalog_lock:
            for level in Level:
                self._catalog[level].clear()
            self._quarantined.clear()
            self._span = None
        self._load_catalog()
        if self.epoch is not None:
            self.epoch.bump()

    # -- quarantine ---------------------------------------------------------

    def quarantine(self, key: TemporalKey) -> bool:
        """Pull one cube out of service (idempotent).

        The key leaves the catalog, so planners stop routing to it and
        :meth:`has` answers ``False``; it is remembered in the
        quarantine set for operators.  Returns whether the key was in
        service.  The page itself is left on disk for forensics.
        """
        with self._catalog_lock:
            was_live = key in self._catalog[key.level]
            self._catalog[key.level].discard(key)
            self._quarantined.add(key)
        if was_live and self.epoch is not None:
            self.epoch.bump(key.start, key.end)
        return was_live

    def quarantined_keys(self) -> list[TemporalKey]:
        with self._catalog_lock:
            return sorted(self._quarantined, key=lambda k: (k.start, k.level))

    def quarantined_count(self) -> int:
        with self._catalog_lock:
            return len(self._quarantined)

    # -- raw cube access ---------------------------------------------------

    def has(self, key: TemporalKey) -> bool:
        return key in self._catalog[key.level]

    def get(self, key: TemporalKey) -> AnyCube:
        """Read one cube from the store (counts as one page I/O).

        A page that vanished or fails validation — one holding another
        key's cube does — is quarantined on the way out: the catalog
        stops advertising it, so subsequent plans route around it and
        answer with ``partial=true`` instead of re-hitting the bad page
        forever.
        """
        if not self.has(key):
            raise CubeNotFoundError(f"no cube for {key}")
        try:
            data = self.store.read(page_id_for(key, self.prefix))
            return deserialize_cube(data, self.schema, key)
        except (PageCorruptError, PageNotFoundError):
            self.quarantine(key)
            raise

    def put(self, cube: AnyCube) -> None:
        """Write one cube to the store (counts as one page I/O).

        The page is version 3, or version 1 for a dense cube the sparse
        encoding would not shrink; :meth:`get` reads either.
        """
        if cube.key.level not in self.levels:
            raise IndexError_(
                f"index does not maintain level {cube.key.level.label}"
            )
        self.store.write(
            page_id_for(cube.key, self.prefix),
            serialize_cube(cube),
        )
        with self._catalog_lock:
            self._catalog[cube.key.level].add(cube.key)
            self._span = _widen(self._span, cube.key)
            # A rewrite heals a quarantined key: fresh bytes replace
            # whatever failed validation.
            self._quarantined.discard(cube.key)
        if self.epoch is not None:
            self.epoch.bump(cube.key.start, cube.key.end)

    def keys(self, level: Level) -> list[TemporalKey]:
        with self._catalog_lock:
            present = list(self._catalog[level])
        return sorted(present, key=lambda k: (k.start, k.level))

    def coverage(self) -> tuple[date, date] | None:
        """Span of ingested days, or ``None`` when empty."""
        with self._catalog_lock:
            days = list(self._catalog[Level.DAY])
        if not days:
            return None
        return min(key.start for key in days), max(key.end for key in days)

    def span(self) -> tuple[date, date] | None:
        """(earliest start, latest end) of the cubes of every level, or
        ``None``: no cube lies outside it.  Widened by writes, re-derived
        on a reload; a quarantine leaves it wide, which is safe."""
        return self._span

    # -- daily maintenance ---------------------------------------------------

    def build_day_cube(
        self, day: date, updates: UpdateList, resolution: str = RESOLUTION_COARSE
    ) -> AnyCube:
        """Scan one day's UpdateList into a daily cube (no I/O).

        The cube is built in COO form and densified only if it crosses
        the density threshold — a typical day's few thousand updates
        never touch the full dense array.
        """
        cube = SparseCube(schema=self.schema, key=day_key(day), resolution=resolution)
        cube.bulk_record(updates.cube_coordinates(self.schema, self.atlas))
        return cube.maybe_densify()

    def ingest_day(self, day: date, updates: UpdateList) -> list[TemporalKey]:
        """The paper's daily maintenance step.

        Builds and stores the coarse daily cube, then recursively
        builds any weekly/monthly/yearly cube that ``day`` completes.
        Returns the keys written, daily cube first.
        """
        daily = self.build_day_cube(day, updates, resolution=RESOLUTION_COARSE)
        return self._store_day_and_rollup(daily)

    def _store_day_and_rollup(self, daily: AnyCube) -> list[TemporalKey]:
        day = daily.key.start
        self.put(daily)
        written = [daily.key]
        # Cubes built during this maintenance pass stay in memory, so a
        # month-end rollup doesn't pay a read for the week it just built.
        in_memory: dict[TemporalKey, AnyCube] = {daily.key: daily}
        for parent_key in completed_units(day):
            if parent_key.level not in self.levels:
                continue
            children = [
                child
                for child in parent_key.children()
                if child.level in self.levels
            ]
            cubes = []
            for child in children:
                if child in in_memory:
                    cubes.append(in_memory[child])
                elif self.has(child):
                    cubes.append(self.get(child))
                # Missing children contribute zero (e.g. the index was
                # bootstrapped mid-week).
            parent = sum_cubes(self.schema, parent_key, cubes)
            self.put(parent)
            in_memory[parent_key] = parent
            written.append(parent_key)
        return written

    # -- monthly rebuild -------------------------------------------------------

    def rebuild_month(
        self, month: TemporalKey, updates_by_day: Mapping[date, UpdateList]
    ) -> list[TemporalKey]:
        """The paper's monthly maintenance step.

        Rebuilds every daily cube in ``month`` at full resolution from
        the monthly crawler's reclassified UpdateList, then the weekly
        cubes, the monthly cube, and — when already materialized — the
        enclosing yearly cube.  Days with no rows get explicit empty
        full-resolution cubes so the month's coverage stays complete.
        """
        if month.level is not Level.MONTH:
            raise IndexError_(f"rebuild_month needs a month key, got {month}")
        from repro.collection.records import UpdateList

        written: list[TemporalKey] = []
        in_memory: dict[TemporalKey, AnyCube] = {}
        empty = UpdateList()
        for day in (month.start.toordinal() + i for i in range(month.day_count)):
            the_day = date.fromordinal(day)
            daily = self.build_day_cube(
                the_day,
                updates_by_day.get(the_day, empty),
                resolution=RESOLUTION_FULL,
            )
            self.put(daily)
            in_memory[daily.key] = daily
            written.append(daily.key)
        for child in month.children():
            if child.level is Level.WEEK and child.level in self.levels:
                weekly = sum_cubes(
                    self.schema,
                    child,
                    [in_memory[grand] for grand in child.children()],
                )
                self.put(weekly)
                in_memory[child] = weekly
                written.append(child)
        if Level.MONTH in self.levels:
            monthly = sum_cubes(
                self.schema,
                month,
                [
                    in_memory[child]
                    for child in month.children()
                    if child in in_memory
                ],
            )
            self.put(monthly)
            written.append(month)
        year = year_key(month.year)
        if Level.YEAR in self.levels and self.has(year):
            months = [
                self.get(month_key(month.year, m))
                for m in range(1, 13)
                if self.has(month_key(month.year, m))
            ]
            self.put(sum_cubes(self.schema, year, months))
            written.append(year)
        return written

    # -- bulk load ---------------------------------------------------------------

    def bulk_load(
        self, updates_by_day: Mapping[date, UpdateList], resolution: str = RESOLUTION_FULL
    ) -> int:
        """Load a full history day by day (experiment setup path).

        Uses the same rollup machinery as daily ingestion but at the
        given resolution.  Returns the number of cubes written.
        """
        written = 0
        for day in sorted(updates_by_day):
            daily = self.build_day_cube(day, updates_by_day[day], resolution)
            written += len(self._store_day_and_rollup(daily))
        return written

    # -- storage accounting (Fig. 8) ------------------------------------------

    def pages_per_level(self) -> dict[Level, int]:
        with self._catalog_lock:
            return {level: len(self._catalog[level]) for level in self.levels}

    def total_pages(self) -> int:
        with self._catalog_lock:
            return sum(len(keys) for keys in self._catalog.values())
