"""OSM substrate: element model, XML formats, changesets, history, feeds."""

from repro.osm.changesets import Changeset, ChangesetStore
from repro.osm.history import classify_update, iter_history, write_history
from repro.osm.model import OSMElement, OSMNode, OSMRelation, OSMWay, RelationMember
from repro.osm.replication import ReplicationFeed
from repro.osm.snapshot import build_snapshot, network_sizes_from_history, road_segment_counts
from repro.osm.xml_io import OsmChange, iter_osm, read_osc, write_osc, write_osm

__all__ = [
    "Changeset", "ChangesetStore", "OSMElement", "OSMNode", "OSMRelation",
    "OSMWay", "OsmChange", "RelationMember", "ReplicationFeed",
    "build_snapshot", "classify_update", "iter_history", "iter_osm",
    "network_sizes_from_history", "road_segment_counts", "read_osc",
    "write_history", "write_osc", "write_osm",
]
