#!/usr/bin/env python3
"""Great-circle distances and nearest-city assignment.

The label space for city-level prediction is a table of cities; every tweet
is labeled with the closest city by haversine distance.
"""

from tweetgeo.geo import City, CityTable, haversine_km, nearest_city

print("== haversine distances (sphere radius 6371 km) ==")
pairs = [
    ("Pittsburgh -> Chicago", (40.4406, -79.9959), (41.8781, -87.6298)),
    ("London -> Tokyo", (51.5074, -0.1278), (35.6762, 139.6503)),
    ("antipodal points", (0.0, 0.0), (0.0, 180.0)),
]
for name, a, b in pairs:
    print(f"  {name}: {haversine_km(a, b):9.1f} km")

print("\n== nearest-city assignment ==")
table = CityTable([
    City(1, "pittsburgh", 40.4406, -79.9959, "US", 300_000),
    City(2, "chicago", 41.8781, -87.6298, "US", 2_700_000),
    City(3, "london", 51.5074, -0.1278, "GB", 8_900_000),
])
names = {c.city_id: c.name for c in table.cities}
for point in [(40.5, -80.1), (42.0, -87.0), (52.0, 0.5)]:
    print(f"  {point} -> {names[nearest_city(point, table)]}")

