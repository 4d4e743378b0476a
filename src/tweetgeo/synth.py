"""Deterministic synthetic corpus generator for desk-scale end-to-end runs.

Every city owns a disjoint set of signature tokens that appear only in tweets
from that city, so the labeling task is solvable exactly; city frequencies
follow a Zipf-like law with a configurable exponent, timestamps concentrate in
a city-specific daily window, and languages/timezones correlate with the city.
A spec holds up to MAX_CITIES (3,360) cities, past the paper's ~3,000 labels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geo import EARTH_RADIUS_KM, City, CityTable, save_city_table
from .ingest import Record, write_jsonl

_DAY = 86400
_EPOCH_BASE = 1_483_228_800  # 2017-01-01T00:00:00Z, a midnight
SIGNATURE_TOKENS_PER_CITY = 8
# chance that each text field carries the city signature; at least one field
# always does, so the joint task stays exactly solvable while any single
# field alone is an imperfect predictor
SIGNATURE_FIELD_PROBS = (0.85, 0.6, 0.7)
GRID_CITIES = 120          # a 10 x 12 world grid; every later city rings one of its points
RING_KM = 30.0             # ring r of a grid point lies RING_KM * sqrt(r) km from it
MAX_CITIES = 28 * GRID_CITIES
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_U32 = 1 << 32
_CHUNK_WORDS = 1 << 14     # raw PCG64 words fetched per random_raw call


@dataclass
class SynthSpec:
    n_cities: int = 5
    n_countries: int = 2
    noise_vocab_size: int = 60
    tokens_per_field: tuple[int, int] = (4, 9)
    n_users: int = 1000
    tweets_per_user: tuple[int, int] = (1, 1)
    class_skew: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.n_cities >= self.n_countries >= 1):
            raise ValueError("need n_cities >= n_countries >= 1")
        if self.n_cities > MAX_CITIES:
            raise ValueError(f"n_cities must be <= {MAX_CITIES}, got {self.n_cities}")
        # generate draws each of these with one 32-bit draw (see _draws)
        if not 1 <= self.noise_vocab_size <= _U32:
            raise ValueError(
                f"noise_vocab_size must lie in [1, 2**32], got {self.noise_vocab_size}")
        lo, hi = self.tokens_per_field
        if not (1 <= lo <= hi < _U32):
            raise ValueError("tokens_per_field must be a (lo, hi) range with 1 <= lo <= hi < 2**32")
        lo, hi = self.tweets_per_user
        if not (1 <= lo <= hi <= self.n_cities):
            raise ValueError("tweets_per_user range must fit the number of cities")
        if not self.class_skew >= 0:       # NaN too
            raise ValueError(f"class_skew must be >= 0, got {self.class_skew}")


def _destination(lat: float, lon: float, km: float, bearing: float) -> tuple[float, float]:
    """The point `km` along the great circle that leaves (lat, lon) at
    `bearing` (radians clockwise from north), in degrees rounded to 6 places."""
    p1, l1, d = math.radians(lat), math.radians(lon), km / EARTH_RADIUS_KM
    p2 = math.asin(math.sin(p1) * math.cos(d) + math.cos(p1) * math.sin(d) * math.cos(bearing))
    l2 = l1 + math.atan2(math.sin(bearing) * math.sin(d) * math.cos(p1),
                         math.cos(d) - math.sin(p1) * math.sin(p2))
    return round(math.degrees(p2), 6), round((math.degrees(l2) + 180.0) % 360.0 - 180.0, 6)


def city_grid(spec: SynthSpec) -> CityTable:
    """Cities 0-119 on a coarse world grid (several hundred km apart). City
    i >= 120 is ring r = i // 120 of grid city i % 120: RING_KM * sqrt(r) km
    from it at bearing r times the golden angle, a sunflower spiral. Up to
    MAX_CITIES, any two cities lie >= 29.9 km apart and every ring city
    within 161 km of its grid city. Country assigned round-robin, population
    decreasing with city index."""
    cities = []
    for i in range(spec.n_cities):
        ring, anchor = divmod(i, GRID_CITIES)
        row, col = divmod(anchor, 12)
        lat, lon = -42.0 + 14.0 * row, -174.0 + 29.0 * col
        if ring:
            lat, lon = _destination(lat, lon, RING_KM * math.sqrt(ring), ring * _GOLDEN_ANGLE)
        cities.append(City(
            city_id=i + 1,
            name=f"city{i}",
            lat=lat,
            lon=lon,
            country_code=f"C{i % spec.n_countries}",
            population=1_000_000 // (i + 1),
        ))
    return CityTable(cities)


def _draws(seed: int):
    """(random, integers, uniform): the scalar `random()`, `integers(lo, hi)`
    and `uniform(a, b)` calls of `np.random.default_rng(seed)`, computed from
    its raw PCG64 words, fetched in chunks, by numpy's rules and in numpy's
    order.

    A double is the top 53 bits of one word. A 32-bit draw takes the low half
    of a fresh word and keeps the high half for the next 32-bit draw; doubles
    neither use nor clear it. integers(lo, hi) is lo without a draw when
    hi - lo is 1, else Lemire's multiply-and-reject on 32-bit draws (numpy
    computes the rejection threshold only once a low half falls below the
    range, which accepts and rejects the same draws). numpy takes 64-bit
    draws for a range past 2**32; that is a ValueError here. uniform(a, b)
    is a + (b - a) * random()."""
    bitgen = np.random.default_rng(seed).bit_generator
    next_word = chain.from_iterable(
        iter(lambda: bitgen.random_raw(_CHUNK_WORDS).tolist(), None)).__next__
    half = None

    def random() -> float:
        return (next_word() >> 11) * 2.0**-53

    def integers(lo: int, hi: int) -> int:
        nonlocal half
        r = hi - lo
        if r == 1:
            return lo
        if not 1 < r <= _U32:
            raise ValueError(f"integers({lo}, {hi}): the range must lie in [1, 2**32]")
        threshold = (_U32 - r) % r      # numpy redraws while the low half is below it
        while True:
            if half is None:
                word = next_word()
                m, half = (word & 0xFFFFFFFF) * r, word >> 32
            else:
                m, half = half * r, None
            if m & 0xFFFFFFFF >= threshold:
                return lo + (m >> 32)

    def uniform(a: float, b: float) -> float:
        return a + (b - a) * random()

    return random, integers, uniform


def generate(spec: SynthSpec) -> tuple[list[Record], CityTable]:
    """Emit (records, city table); byte-identical output for a fixed spec.
    Every value is the one that numpy's scalar draw would give, in the same
    order, from `np.random.default_rng(spec.seed)` (see `_draws`)."""
    random, integers, uniform = _draws(spec.seed)
    table = city_grid(spec)
    cities = table.cities
    n_noise = spec.noise_vocab_size

    weights = 1.0 / np.power(np.arange(1, spec.n_cities + 1, dtype=np.float64),
                             spec.class_skew)
    weights /= weights.sum()
    n_weighted = int(np.count_nonzero(weights > 0))

    def cdf_of(p: np.ndarray) -> list[float]:
        cdf = np.cumsum(p)
        return (cdf / cdf[-1]).tolist()

    first_cdf = cdf_of(weights)

    def visit(size: int) -> list[int]:
        """rng.choice(n_cities, size, replace=False, p=weights): each round
        draws a double per city still missing, looks each up in the cdf of
        the weights left (a city found earlier has weight 0, so no double
        lands on it) and keeps the new cities in order of first hit."""
        if n_weighted < size:
            raise ValueError("Fewer non-zero entries in p than size")
        found, cdf = [], first_cdf
        while len(found) < size:
            if found:
                p = weights.copy()
                p[found] = 0.0
                cdf = cdf_of(p)
            for h in [bisect_right(cdf, random()) for _ in range(size - len(found))]:
                if h not in found:
                    found.append(h)
        return found

    sig_pool = [[f"sig{i}w{j}" for j in range(SIGNATURE_TOKENS_PER_CITY)]
                for i in range(spec.n_cities)]

    def field_text(city_idx: int, with_signature: bool) -> str:
        lo, hi = spec.tokens_per_field
        n_tok = integers(lo, hi + 1)
        sig = sig_pool[city_idx]
        toks = [sig[integers(0, SIGNATURE_TOKENS_PER_CITY)]
                if with_signature and (t == 0 or random() < 0.7)
                else f"noise{integers(0, n_noise)}" for t in range(n_tok)]
        return " ".join(toks)

    records = []
    for u in range(spec.n_users):
        lo, hi = spec.tweets_per_user
        for ci in visit(integers(lo, hi + 1)):
            c = cities[ci]
            p_text, p_desc, p_loc = SIGNATURE_FIELD_PROBS
            carries = [random() < p_text, random() < p_desc, random() < p_loc]
            if not any(carries):
                carries[integers(0, 3)] = True
            # 10-minute-accurate daily window characteristic of the city
            slot_center = (ci * _DAY) // max(spec.n_cities, 1)
            seconds = (slot_center + integers(-1800, 1801)) % _DAY
            day = integers(0, 25)
            lang = f"lang{ci % spec.n_countries}" if random() < 0.9 \
                else f"lang{integers(0, spec.n_countries)}"
            tz = f"tz{ci}" if random() < 0.9 else f"tz{integers(0, spec.n_cities)}"
            loc_word = f"loc{ci}" if carries[2] else f"noise{integers(0, n_noise)}"
            records.append(Record(
                user_id=f"u{u}",
                text=field_text(ci, carries[0]),
                user_description=field_text(ci, carries[1]),
                user_name=f"name{integers(0, n_noise)}",
                profile_location=f"{loc_word} noise{integers(0, n_noise)}",
                tweet_lang=lang,
                user_lang=lang,
                timezone=tz,
                posted_at=_EPOCH_BASE + day * _DAY + seconds,
                lat=round(c.lat + uniform(-0.04, 0.04), 6),
                lon=round(c.lon + uniform(-0.04, 0.04), 6),
                country_code=c.country_code,
            ))
    return records, table


def write_corpus(spec: SynthSpec, jsonl_path, table_path) -> tuple[list[Record], CityTable]:
    records, table = generate(spec)
    write_jsonl(records, jsonl_path)
    save_city_table(table, table_path)
    return records, table
