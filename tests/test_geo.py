import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tweetgeo import nncore
from tweetgeo.errors import DataError
from tweetgeo.geo import (City, CityTable, assign_cities, haversine_km, load_city_table,
                          nearest_city, save_city_table)
from tweetgeo.ingest import Record

from oracles import haversine_oracle_km, law_of_cosines_km, nearest_scan

PITTSBURGH = (40.4406, -79.9959)
CHICAGO = (41.8781, -87.6298)


def test_haversine_identity():
    assert haversine_km(PITTSBURGH, PITTSBURGH) == 0.0


def test_haversine_half_great_circle():
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(math.pi * 6371.0, rel=1e-12)


def test_haversine_vs_independent_oracle():
    # frozen from two independent formulas: 658.51834048 km
    d = haversine_km(PITTSBURGH, CHICAGO)
    assert d == pytest.approx(658.5183404839, abs=1e-6)
    assert d == pytest.approx(haversine_oracle_km(PITTSBURGH, CHICAGO), rel=1e-3)
    assert d == pytest.approx(law_of_cosines_km(PITTSBURGH, CHICAGO), rel=1e-3)


def test_haversine_rejects_out_of_range():
    with pytest.raises(ValueError):
        haversine_km((95.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        haversine_km((0.0, 0.0), (0.0, -181.0))


def test_haversine_symmetric_and_bounded(rng):
    for _ in range(200):
        a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        d1, d2 = haversine_km(a, b), haversine_km(b, a)
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert 0.0 <= d1 <= math.pi * 6371.0 + 1e-9


def test_haversine_triangle_sanity(rng):
    for _ in range(200):
        pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        a, b, c = pts
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


def test_nearest_city_at_city_coords(small_table):
    for c in small_table.cities:
        assert nearest_city((c.lat, c.lon), small_table) == c.city_id


def test_nearest_city_tie_breaks_to_smaller_id():
    table = CityTable([City(7, "east", 0.0, 1.0, "AA", 1),
                       City(3, "west", 0.0, -1.0, "AA", 1)])
    # equidistant by symmetry: identical |delta lon|, same latitudes
    assert nearest_city((0.0, 0.0), table) == 3


def test_nearest_city_matches_exhaustive_scan(rng, small_table):
    cities = [(c.city_id, c.lat, c.lon) for c in small_table.cities]
    for _ in range(300):
        p = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        assert nearest_city(p, small_table) == nearest_scan(p, cities)


def nearest_per_record(point, table):
    """One haversine_km row per point and its first argmin: the per-record
    search that the blocked one replaced, with the same float ops."""
    d = haversine_km((np.full(len(table), point[0]), np.full(len(table), point[1])),
                     (table._lats, table._lons))
    return int(table._ids[int(np.argmin(d))])


def located(points):
    return [Record(user_id=f"u{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(points)]


# cities 3 and 8 share coordinates; 5 and 2 sit at each other's antipode
TIE_TABLE = CityTable([City(8, "twin-b", 10.0, 20.0, "AA"), City(3, "twin-a", 10.0, 20.0, "AA"),
                       City(6, "east", 0.0, 1.0, "AA"), City(4, "west", 0.0, -1.0, "AA"),
                       City(5, "north", 30.0, 60.0, "AA"), City(2, "south", -30.0, -120.0, "AA")])
TIE_POINTS = [(10.0, 20.0),        # on the twins: 3
              (0.0, 0.0),          # halfway between east and west: 4
              (0.0, 90.0), (0.0, -90.0), (90.0, 0.0), (-90.0, 180.0),
              (-10.0, -160.0),     # antipode of the twins
              (-30.0, -120.0), (30.0, 60.0)]


def test_assign_cities_ties_go_to_the_smaller_id(monkeypatch):
    monkeypatch.setattr(nncore, "BLOCK_CELLS", 7)   # one point per block
    records = assign_cities(located(TIE_POINTS), TIE_TABLE)
    cities = [(c.city_id, c.lat, c.lon) for c in TIE_TABLE.cities]
    assert [r.city_id for r in records[:2]] == [3, 4]
    assert [r.city_id for r in records] == [nearest_scan(p, cities) for p in TIE_POINTS] \
        == [nearest_per_record(p, TIE_TABLE) for p in TIE_POINTS]


@pytest.mark.parametrize("cells", [1, 5, 13, 1 << 16])
def test_assign_cities_in_blocks_matches_scan_and_per_record_path(rng, monkeypatch, cells):
    monkeypatch.setattr(nncore, "BLOCK_CELLS", cells)
    table = CityTable([City(i + 1, f"c{i}", float(rng.uniform(-90, 90)),
                            float(rng.uniform(-180, 180)), "AA") for i in range(6)])
    points = [(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(300)]
    points += [(-lat, lon - 180.0 if lon > 0 else lon + 180.0)     # antipodes of the cities
               for lat, lon in zip(table._lats, table._lons)]
    records = assign_cities(located(points), table)
    cities = [(c.city_id, c.lat, c.lon) for c in table.cities]
    assert [r.city_id for r in records] == [nearest_scan(p, cities) for p in points] \
        == [nearest_per_record(p, table) for p in points]
    assert all(type(r.city_id) is int for r in records)


LAT = st.sampled_from([0.0, 1.0, -1.0, 30.0, -30.0, 89.5, 90.0, -90.0]) | st.floats(-90.0, 90.0)
LON = st.sampled_from([0.0, 1.0, -1.0, 60.0, -120.0, 180.0, -180.0]) | st.floats(-180.0, 180.0)
POINT = st.tuples(LAT, LON)


@given(cities=st.lists(POINT, min_size=1, max_size=8), points=st.lists(POINT, max_size=12),
       cells=st.integers(1, 20))
def test_assign_cities_in_blocks_matches_per_record_path_bit_for_bit(cities, points, cells):
    # repeated coordinates make exact ties, which the first argmin gives to
    # the smaller id on both paths
    table = CityTable([City(2 * i + 1, f"c{i}", lat, lon, "AA")
                       for i, (lat, lon) in enumerate(cities)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nncore, "BLOCK_CELLS", cells)
        records = assign_cities(located(points), table)
    assert [r.city_id for r in records] == [nearest_per_record(p, table) for p in points]


def test_assign_cities_of_no_records():
    assert assign_cities([], TIE_TABLE) == []


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.nan), (90.5, 0.0), (0.0, -180.5),
                                 (math.inf, 0.0)])
@pytest.mark.parametrize("at", [0, 5, 11])
def test_assign_cities_rejects_a_bad_coordinate_in_any_block(monkeypatch, bad, at):
    monkeypatch.setattr(nncore, "BLOCK_CELLS", 12)   # two points per block
    points = [(0.0, float(i)) for i in range(12)]
    points[at] = bad
    with pytest.raises(ValueError, match="out of range"):
        assign_cities(located(points), TIE_TABLE)
    with pytest.raises(ValueError, match="out of range"):
        nearest_city(bad, TIE_TABLE)


def test_city_table_roundtrip(tmp_path, small_table):
    path = tmp_path / "cities.csv"
    save_city_table(small_table, path)
    loaded = load_city_table(path)
    assert loaded.cities == small_table.cities


def test_city_table_rejects_duplicates_and_empty():
    with pytest.raises(Exception):
        CityTable([])
    with pytest.raises(Exception):
        CityTable([City(1, "a", 0, 0, "AA", 1), City(1, "b", 1, 1, "AA", 1)])


@pytest.mark.parametrize("lat, lon", [("nan", "0.0"), ("0.0", "nan"), ("inf", "0.0"),
                                      ("95.0", "0.0"), ("0.0", "-181.0")])
def test_load_city_table_rejects_bad_coordinates_naming_the_row(tmp_path, small_table,
                                                               lat, lon):
    path = tmp_path / "cities.csv"
    save_city_table(small_table, path)
    lines = path.read_text().splitlines()
    lines[3] = f"3,gamma,{lat},{lon},GB,8000000"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:4: bad city row")):
        load_city_table(path)


def test_city_table_rejects_nan_coordinates():
    for lat, lon in [(math.nan, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="out of range"):
            CityTable([City(1, "a", lat, lon, "AA", 1)])
