import math
import re

import pytest

from tweetgeo.errors import DataError
from tweetgeo.geo import (City, CityTable, aggregate_cities, haversine_km,
                          load_city_table, nearest_city, save_city_table)

from oracles import greedy_aggregate, haversine_oracle_km, law_of_cosines_km, nearest_scan

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


def test_aggregate_absorbs_small_neighbor():
    # ~10 km apart at the equator
    raw = [City(1, "big", 0.0, 0.0, "AA", 10**6), City(2, "small", 0.0, 0.09, "AA", 10**3)]
    out = aggregate_cities(raw, radius_km=50.0)
    assert [c.city_id for c in out.cities] == [1]


def test_aggregate_keeps_distant_cities():
    raw = [City(1, "a", 0.0, 0.0, "AA", 10**6), City(2, "b", 0.0, 0.9, "AA", 10**3)]
    out = aggregate_cities(raw, radius_km=50.0)
    assert [c.city_id for c in out.cities] == [1, 2]


def test_aggregate_rejects_negative_radius():
    with pytest.raises(ValueError):
        aggregate_cities([City(1, "a", 0.0, 0.0, "AA", 1)], radius_km=-1.0)


def test_aggregate_matches_greedy_oracle(rng):
    raw = []
    for i in range(20):
        raw.append(City(i + 1, f"c{i}", float(rng.uniform(-10, 10)),
                        float(rng.uniform(-10, 10)), "AA", int(rng.integers(10, 10**6))))
    out = aggregate_cities(raw, radius_km=300.0)
    expected = greedy_aggregate([(c.city_id, c.lat, c.lon, c.population) for c in raw], 300.0)
    assert sorted(c.city_id for c in out.cities) == expected
    assert len(out) <= len(raw)
    ids = {c.city_id for c in raw}
    assert all(c.city_id in ids for c in out.cities)


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
