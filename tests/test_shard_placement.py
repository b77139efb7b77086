"""Placement properties of the rendezvous shard router.

Consistent placement is what makes sharding operable: every cube maps
to exactly one shard, the mapping survives process restarts (and is
independent of ``PYTHONHASHSEED``, which is why the router hashes
with BLAKE2b and never the builtin ``hash()``), and growing or
shrinking the shard set by one relocates only ~K/N of K cubes —
the property that lets a resize re-warm a fraction of the cache
instead of all of it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from repro.types.temporal import (
    Level,
    day_key,
    month_key,
    week_key,
    year_key,
)
from repro.types.dimensions import default_schema
from repro.core.hierarchy import HierarchicalIndex, page_id_for
from repro.core.shard import (
    ShardRouter,
    ShardedIndex,
    ShardedPageStore,
    shard_stores_for,
)
from repro.errors import ConfigError
from repro.storage.disk import DirectoryDisk, InMemoryDisk


def _catalog_keys(years=(2019, 2020, 2021)):
    """A realistic key population: every level over several years."""
    keys = []
    for year in years:
        keys.append(year_key(year))
        for month in range(1, 13):
            keys.append(month_key(year, month))
            for index in range(4):
                keys.append(week_key(year, month, index))
        day = date(year, 1, 1)
        while day.year == year:
            keys.append(day_key(day))
            day += timedelta(days=7)
    return keys


def test_every_key_maps_to_exactly_one_shard():
    keys = _catalog_keys()
    for shards in (1, 2, 3, 4, 8, 16):
        router = ShardRouter(shards)
        for key in keys:
            shard = router.shard_for(key)
            assert 0 <= shard < shards
            # Exactly one: the winner recomputed from raw weights.
            weights = [router.weight(i, str(key)) for i in range(shards)]
            assert weights.index(max(weights)) == shard


def test_placement_deterministic_across_router_instances():
    keys = _catalog_keys()
    first = ShardRouter(8)
    second = ShardRouter(8)  # a "restarted" process
    assert [first.shard_for(k) for k in keys] == [
        second.shard_for(k) for k in keys
    ]


def test_placement_independent_of_pythonhashseed():
    """The mapping must be identical in processes with different seeds.

    This is the property builtin ``hash()`` would break: a serving
    pool forks workers whose ``PYTHONHASHSEED`` may differ from the
    parent's, and every worker must agree where each cube lives.
    """
    script = (
        "from repro.core.shard import ShardRouter\n"
        "from repro.types.temporal import day_key\n"
        "from datetime import date, timedelta\n"
        "r = ShardRouter(5)\n"
        "day = date(2021, 1, 1)\n"
        "out = []\n"
        "for _ in range(60):\n"
        "    out.append(r.shard_for(day_key(day)))\n"
        "    day += timedelta(days=3)\n"
        "print(','.join(map(str, out)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1


@pytest.mark.parametrize("shards", (2, 4, 8))
def test_adding_one_shard_relocates_about_one_nth(shards):
    """Seeded sweep: N -> N+1 moves ~K/(N+1) keys, never a reshuffle."""
    keys = _catalog_keys()
    k = len(keys)
    before = ShardRouter(shards)
    after = ShardRouter(shards + 1)
    moved = sum(
        1 for key in keys if before.shard_for(key) != after.shard_for(key)
    )
    expected = k / (shards + 1)
    # Rendezvous hashing moves exactly the keys whose winner became the
    # new shard — binomially distributed around K/(N+1).  The 1.8x
    # ceiling is far inside "consistent" territory (a mod-N hash moves
    # ~K*(N/(N+1)) keys, e.g. ~80% at N=4) while loose enough to never
    # flake on this fixed seed population.
    assert moved <= 1.8 * expected, (moved, expected)
    # And every moved key moved TO the new shard, nowhere else.
    for key in keys:
        if before.shard_for(key) != after.shard_for(key):
            assert after.shard_for(key) == shards


@pytest.mark.parametrize("shards", (3, 5, 9))
def test_removing_one_shard_relocates_only_its_keys(shards):
    keys = _catalog_keys()
    before = ShardRouter(shards)
    after = ShardRouter(shards - 1)
    for key in keys:
        src = before.shard_for(key)
        dst = after.shard_for(key)
        if src < shards - 1:
            # Keys not on the removed shard must not move at all.
            assert dst == src
        else:
            assert 0 <= dst < shards - 1


def test_balance_is_reasonable():
    """Rendezvous spread: no shard hoards the catalog."""
    keys = _catalog_keys()
    router = ShardRouter(4)
    counts = [0, 0, 0, 0]
    for key in keys:
        counts[router.shard_for(key)] += 1
    expected = len(keys) / 4
    for count in counts:
        assert 0.6 * expected <= count <= 1.4 * expected, counts


def test_router_rejects_zero_shards():
    with pytest.raises(ConfigError):
        ShardRouter(0)
    with pytest.raises(ConfigError):
        shard_stores_for(InMemoryDisk(), 0)


def test_sharded_index_placement_survives_directory_reopen(tmp_path):
    """On-disk shards reopen with every cube where placement put it."""
    schema = default_schema(("united_states", "germany", "qatar"), road_types=4)
    primary = DirectoryDisk(tmp_path / "pages")

    index = ShardedIndex(
        schema, ShardedPageStore(shard_stores_for(primary, 3), primary)
    )
    from repro.synth.scale import scaled_day_updates
    import random

    rng = random.Random(3)
    updates = {}
    day = date(2021, 6, 1)
    while day <= date(2021, 7, 31):
        updates[day] = scaled_day_updates(day, rng, schema, 5)
        day += timedelta(days=1)
    index.bulk_load(updates)
    written = {level: index.keys(level) for level in index.levels}
    placement = {
        str(key): index.shard_for(key)
        for level in index.levels
        for key in written[level]
    }

    # "Restart": brand-new stores and index over the same directories.
    reopened_primary = DirectoryDisk(tmp_path / "pages")
    reopened_stores = shard_stores_for(reopened_primary, 3)
    reopened = ShardedIndex(
        schema, ShardedPageStore(reopened_stores, reopened_primary)
    )
    for level in index.levels:
        assert reopened.keys(level) == written[level]
    for name, shard in placement.items():
        key_obj = next(
            k
            for level in reopened.levels
            for k in reopened.keys(level)
            if str(k) == name
        )
        assert reopened.shard_for(key_obj) == shard
        # The cube's page is physically on that shard's store.
        assert page_id_for(key_obj) in reopened_stores[shard]
    # Shard directories are siblings of pages/, inside the deployment.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pages",
        "pages-shard0",
        "pages-shard1",
        "pages-shard2",
    ]


def test_shard_stores_reject_mismatched_router():
    disk = InMemoryDisk()
    with pytest.raises(ConfigError):
        ShardedPageStore(shard_stores_for(disk, 2), disk, router=ShardRouter(3))


def test_sharded_matches_unsharded_pages_for_same_load(tmp_path):
    """Placement partitions the page population exactly (no dup, no loss)."""
    schema = default_schema(("united_states", "germany"), road_types=4)
    from repro.synth.scale import scaled_day_updates
    import random

    rng = random.Random(9)
    updates = {}
    day = date(2021, 1, 1)
    while day <= date(2021, 2, 28):
        updates[day] = scaled_day_updates(day, rng, schema, 4)
        day += timedelta(days=1)

    flat = HierarchicalIndex(schema, InMemoryDisk())
    flat.bulk_load(dict(updates))

    disk = InMemoryDisk()
    stores = shard_stores_for(disk, 4)
    sharded = ShardedIndex(schema, ShardedPageStore(stores, disk))
    sharded.bulk_load(updates)

    flat_pages = set(flat.store.list_pages("cubes/"))
    shard_pages = [set(store.list_pages("cubes/")) for store in stores]
    union = set().union(*shard_pages)
    assert union == flat_pages
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (shard_pages[i] & shard_pages[j])


def test_only_cube_pages_leave_the_primary_store():
    """The routed store places cube pages by the text ``shard_for``
    hashes; the cursor, the WAL, the warehouse heap and its hash/grid
    indexes stay on the primary store."""
    primary = InMemoryDisk()
    stores = shard_stores_for(primary, 4)
    routed = ShardedPageStore(stores, primary)
    primary_pages = [
        "meta/daily_cursor",
        "wal/intent",
        "wal/checkpoint",
        "wal/undo/00000001/000000",
        "warehouse/heap/00000000",
        "warehouse/hash/00003",
        "warehouse/grid/010_020",
        "cubes",  # not under the cube prefix: no trailing slash
        "cubes-old/D2021-01-01",
    ]
    for page_id in primary_pages:
        routed.write(page_id, b"meta")
        assert page_id in primary and page_id in routed
        assert not any(page_id in store for store in stores)
    keys = _catalog_keys(years=(2021,))
    for key in keys:
        page_id = page_id_for(key)
        routed.write(page_id, b"cube")
        assert page_id in stores[routed.router.shard_for(key)]
        assert page_id not in primary
        assert routed.read(page_id) == b"cube"
    # Listings are the union over every device, filtered by prefix.
    assert list(routed.list_pages("wal/")) == sorted(
        p for p in primary_pages if p.startswith("wal/")
    )
    assert list(routed.list_pages("cubes/")) == sorted(map(page_id_for, keys))
    assert list(routed.list_pages("")) == sorted(
        primary_pages + [page_id_for(key) for key in keys]
    )
    assert sum(store.page_count() for store in stores) == len(keys)
    assert primary.page_count() == len(primary_pages)
