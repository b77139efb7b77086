"""Planar geometry primitives used for geocoding updates to zones.

RASED resolves each update's location to a country (or finer zone) by
mapping either a node's coordinates or a changeset's bounding box to
the containing zone (paper, Section V).  The reproduction needs only
lightweight primitives for that: bounding boxes, simple polygons with
ray-casting containment, and a few distance helpers.

Coordinates follow OSM's convention: longitude in [-180, 180], latitude
in [-90, 90], both in degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError

__all__ = ["Point", "BBox", "Polygon", "haversine_km"]

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True, order=True)
class Point:
    """A (longitude, latitude) pair in degrees."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not -180.0 <= self.lon <= 180.0:
            raise ConfigError(f"longitude out of range: {self.lon}")
        if not -90.0 <= self.lat <= 90.0:
            raise ConfigError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box (no antimeridian wrapping).

    Matches the ``min_lon/min_lat/max_lon/max_lat`` attributes OSM
    changesets carry.
    """

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def __post_init__(self) -> None:
        if self.min_lon > self.max_lon or self.min_lat > self.max_lat:
            raise ConfigError(f"degenerate bbox: {self}")

    @classmethod
    def of_points(cls, points: Iterable[Point]) -> "BBox":
        """The tight box around a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ConfigError("cannot bound an empty point set")
        return cls(
            min_lon=min(p.lon for p in pts),
            min_lat=min(p.lat for p in pts),
            max_lon=max(p.lon for p in pts),
            max_lat=max(p.lat for p in pts),
        )

    @property
    def center(self) -> Point:
        return Point(
            lon=(self.min_lon + self.max_lon) / 2.0,
            lat=(self.min_lat + self.max_lat) / 2.0,
        )

    @property
    def width(self) -> float:
        return self.max_lon - self.min_lon

    @property
    def height(self) -> float:
        return self.max_lat - self.min_lat

    def contains_point(self, p: Point) -> bool:
        return (
            self.min_lon <= p.lon <= self.max_lon
            and self.min_lat <= p.lat <= self.max_lat
        )

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.min_lon > self.max_lon
            or other.max_lon < self.min_lon
            or other.min_lat > self.max_lat
            or other.max_lat < self.min_lat
        )


class Polygon:
    """A simple (non-self-intersecting) polygon with fast containment.

    Containment uses the even-odd ray-casting rule; points exactly on
    an edge are treated as inside, which keeps zone tilings exhaustive
    (a point on a shared border resolves to the first zone tested).
    """

    def __init__(self, vertices: Sequence[Point]) -> None:
        if len(vertices) < 3:
            raise ConfigError("a polygon needs at least three vertices")
        self.vertices: tuple[Point, ...] = tuple(vertices)
        self.bbox = BBox.of_points(self.vertices)

    def contains_point(self, p: Point) -> bool:
        if not self.bbox.contains_point(p):
            return False
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if _on_segment(a, b, p):
                return True
            if (a.lat > p.lat) != (b.lat > p.lat):
                # Longitude of the edge at the ray's latitude.
                t = (p.lat - a.lat) / (b.lat - a.lat)
                x = a.lon + t * (b.lon - a.lon)
                if x > p.lon:
                    inside = not inside
        return inside


def _on_segment(a: Point, b: Point, p: Point, eps: float = 1e-12) -> bool:
    """True when ``p`` lies on the closed segment ``a-b``."""
    cross = (b.lon - a.lon) * (p.lat - a.lat) - (b.lat - a.lat) * (p.lon - a.lon)
    if abs(cross) > eps:
        return False
    dot = (p.lon - a.lon) * (b.lon - a.lon) + (p.lat - a.lat) * (b.lat - a.lat)
    if dot < -eps:
        return False
    sq_len = (b.lon - a.lon) ** 2 + (b.lat - a.lat) ** 2
    return dot <= sq_len + eps


def haversine_km(a: Point, b: Point) -> float:
    """Great-circle distance between two points in kilometers."""
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
