"""City-based label space: great-circle distance, nearest-city assignment,
and aggregation of smaller cities into their largest neighbour.

Distances are haversine on a sphere of radius 6371.0 km. All tie-breaks go to
the smallest city_id so results are deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import nncore
from .errors import DataError, open_utf8

EARTH_RADIUS_KM = 6371.0


def _check_coords(lat, lon):
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    # written so that NaN, which fails every comparison, fails the check too
    if not (np.all(np.abs(lat) <= 90.0) and np.all(np.abs(lon) <= 180.0)):
        raise ValueError("coordinates out of range: lat in [-90,90], lon in [-180,180]")
    return lat, lon


def haversine_km(a, b):
    """Great-circle distance in km between (lat, lon) points, in degrees.

    Accepts scalars or equal-length arrays of latitudes/longitudes; returns
    a float for scalar input, an ndarray otherwise.
    """
    lat1, lon1 = _check_coords(*a)
    lat2, lon2 = _check_coords(*b)
    d = _haversine(lat1, lon1, lat2, lon2)
    return float(d) if lat1.ndim == 0 and lat2.ndim == 0 else d


def _haversine(lat1, lon1, lat2, lon2):
    """`haversine_km` on float64 arrays already checked, broadcasting."""
    p1, l1 = np.radians(lat1), np.radians(lon1)
    p2, l2 = np.radians(lat2), np.radians(lon2)
    h = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


@dataclass(frozen=True)
class City:
    city_id: int
    name: str
    lat: float
    lon: float
    country_code: str
    population: int = 0


@dataclass
class CityTable:
    """Immutable label space of cities. Cities are kept sorted by city_id."""

    cities: list[City]
    _lats: np.ndarray = field(init=False, repr=False)
    _lons: np.ndarray = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.cities:
            raise DataError("city table must be non-empty")
        ids = [c.city_id for c in self.cities]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate city_id in city table")
        self.cities = sorted(self.cities, key=lambda c: c.city_id)
        for c in self.cities:
            _check_coords(c.lat, c.lon)
        self._lats = np.array([c.lat for c in self.cities], dtype=np.float64)
        self._lons = np.array([c.lon for c in self.cities], dtype=np.float64)
        self._ids = np.array([c.city_id for c in self.cities], dtype=np.int64)

    def __len__(self):
        return len(self.cities)


def nearest_city(point, table: CityTable) -> int:
    """city_id of the table city closest to (lat, lon); ties -> smallest id."""
    lat, lon = point
    return int(_nearest_ids([lat], [lon], table)[0])


def assign_cities(records, table: CityTable):
    """Set record.city_id to the nearest table city for every record of a list."""
    ids = _nearest_ids([r.lat for r in records], [r.lon for r in records], table)
    for r, city_id in zip(records, ids.tolist()):
        r.city_id = city_id
    return records


def _nearest_ids(lat, lon, table: CityTable) -> np.ndarray:
    """city_id of the nearest table city for each point, as an int64 array.

    Distances are computed nncore.BLOCK_CELLS (point, city) pairs at a time,
    each pair with the same float ops as a scalar `haversine_km` call. Cities
    are stored in ascending id order and np.argmin returns the first minimum,
    which implements the tie-break."""
    lat, lon = _check_coords(lat, lon)
    rows = max(1, nncore.BLOCK_CELLS // len(table))
    nearest = np.empty(lat.shape, dtype=np.int64)
    for s in range(0, lat.size, rows):
        d = _haversine(lat[s:s + rows, None], lon[s:s + rows, None], table._lats, table._lons)
        nearest[s:s + rows] = np.argmin(d, axis=1)
    return table._ids[nearest]


def aggregate_cities(raw: list[City], radius_km: float = 50.0) -> CityTable:
    """Collapse smaller cities into the most populous kept city within radius_km.

    Cities are visited in decreasing population (ties: smaller city_id first).
    A city is absorbed if any already-kept city lies within radius_km,
    otherwise it is kept itself.
    """
    if radius_km < 0:
        raise ValueError("radius_km must be non-negative")
    if not raw:
        raise DataError("no cities to aggregate")
    kept: list[City] = []
    for c in sorted(raw, key=lambda c: (-c.population, c.city_id)):
        absorbed = any(haversine_km((c.lat, c.lon), (k.lat, k.lon)) <= radius_km for k in kept)
        if not absorbed:
            kept.append(c)
    return CityTable(kept)


def load_city_table(path) -> CityTable:
    """Read a city table CSV: city_id,name,lat,lon,country_code,population."""
    cities = []
    with open_utf8(path, newline="") as f:
        reader = csv.DictReader(f)
        expected = {"city_id", "name", "lat", "lon", "country_code", "population"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise DataError(f"city table {path} must have header {sorted(expected)}")
        for i, row in enumerate(reader, start=2):
            try:
                lat, lon = float(row["lat"]), float(row["lon"])
                _check_coords(lat, lon)
                cities.append(City(
                    city_id=int(row["city_id"]),
                    name=row["name"],
                    lat=lat,
                    lon=lon,
                    country_code=row["country_code"],
                    population=int(row["population"]),
                ))
            except (TypeError, ValueError) as e:
                raise DataError(f"{path}:{i}: bad city row: {e}") from e
    try:
        return CityTable(cities)
    except DataError as e:          # no cities, or a duplicate city_id
        raise DataError(f"{path}: {e}") from e


def save_city_table(table: CityTable, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["city_id", "name", "lat", "lon", "country_code", "population"])
        for c in table.cities:
            w.writerow([c.city_id, c.name, repr(c.lat), repr(c.lon), c.country_code, c.population])
