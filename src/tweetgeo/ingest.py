"""Parsing, filtering, deduplication, and user-level splitting of tweet-like
JSONL records.

All randomized selections are keyed by a stable blake2b hash of
(seed, user_id, ...), so dedup and splits depend only on record content and
the seed, never on input order.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


# field groups, in the order both model families read them
TEXT_FIELDS = ("text", "user_description", "profile_location", "user_name")
CATEGORICAL_FIELDS = ("tweet_lang", "user_lang", "timezone")
STRING_FIELDS = TEXT_FIELDS + CATEGORICAL_FIELDS + ("country_code",)
MAX_BBOX_SPAN_DEG = 0.1


class RecordSkip(Exception):
    """Raised when an input line cannot become a valid Record; str() is the reason."""


@dataclass
class Record:
    user_id: str
    text: str = ""
    user_description: str = ""
    user_name: str = ""
    profile_location: str = ""
    tweet_lang: str = ""
    user_lang: str = ""
    timezone: str = ""
    posted_at: int = 0
    lat: Optional[float] = None
    lon: Optional[float] = None
    country_code: str = ""
    city_id: Optional[int] = None

    def sort_key(self):
        return (self.user_id, self.city_id if self.city_id is not None else -1,
                self.posted_at, self.text, self.user_description, self.user_name,
                self.profile_location, self.lat or 0.0, self.lon or 0.0)


def _numbers(values, reason: str) -> tuple[float, ...]:
    """JSON numbers (int or float, not bool) as floats, else RecordSkip(reason)."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise RecordSkip(reason)
    try:
        return tuple(map(float, values))
    except OverflowError as e:   # an integer too large for a float
        raise RecordSkip(reason) from e


def resolve_coordinates(point, bbox) -> Optional[tuple[float, float]]:
    """Pick coordinates: an explicit point wins; otherwise the center of a
    bbox no wider than 0.1 degrees in both axes. Returns None when rejected; a
    point or bbox that is not two or four JSON numbers raises RecordSkip."""
    if point is not None:
        return _numbers(point, "non-numeric coordinates")
    if bbox is None:
        return None
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise RecordSkip("bad bbox")
    lat_min, lon_min, lat_max, lon_max = _numbers(bbox, "bad bbox")
    if lat_min > lat_max or lon_min > lon_max:
        return None
    if (lat_max - lat_min) > MAX_BBOX_SPAN_DEG or (lon_max - lon_min) > MAX_BBOX_SPAN_DEG:
        return None
    return ((lat_min + lat_max) / 2.0, (lon_min + lon_max) / 2.0)


def parse_record(line, require_coords: bool = True) -> Record:
    """One JSONL line (str, or bytes that must be UTF-8) -> Record. Raises
    RecordSkip on anything malformed."""
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except (ValueError, RecursionError) as e:   # also not UTF-8, an over-long int, deep nesting
        raise RecordSkip(f"bad json: {e}") from e
    if not isinstance(obj, dict):
        raise RecordSkip("line is not a json object")

    user_id = obj.get("user_id")
    if not isinstance(user_id, str) or not user_id:
        raise RecordSkip("missing user_id")

    fields = {"user_id": user_id}
    for name in STRING_FIELDS:
        v = obj.get(name, "")
        if v is None:
            v = ""
        if not isinstance(v, str):
            raise RecordSkip(f"field {name} is not a string")
        fields[name] = v
    try:
        "".join(fields.values()).encode("utf-8")
    except UnicodeEncodeError as e:   # a lone surrogate, from a \ud800-\udfff escape
        raise RecordSkip("a string field is not valid unicode") from e

    posted_at = obj.get("posted_at", 0)
    if not isinstance(posted_at, int) or isinstance(posted_at, bool) or posted_at < 0:
        raise RecordSkip("posted_at must be a non-negative integer")
    fields["posted_at"] = posted_at

    lat, lon = obj.get("lat"), obj.get("lon")
    point = (lat, lon) if lat is not None and lon is not None else None
    coords = resolve_coordinates(point, obj.get("bbox"))
    if coords is None:
        if require_coords:
            raise RecordSkip("no usable coordinates")
        lat = lon = None
    else:
        lat, lon = coords
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise RecordSkip(f"coordinates out of range: ({lat}, {lon})")
    fields["lat"], fields["lon"] = lat, lon

    city_id = obj.get("city_id")
    if city_id is not None and (not isinstance(city_id, int) or isinstance(city_id, bool)):
        raise RecordSkip("city_id must be an integer")
    fields["city_id"] = city_id
    return Record(**fields)


def iter_jsonl(f, counts: Counter, require_coords: bool = True) -> Iterator[Record]:
    """The valid Records of a JSONL file opened in binary mode; each other
    non-blank line adds one to counts["skipped"]. Lines are decoded one by
    one, so one that is not UTF-8 is one skip."""
    for line in f:
        if line.strip():
            try:
                yield parse_record(line, require_coords)
            except RecordSkip:
                counts["skipped"] += 1


def read_jsonl(path) -> tuple[list[Record], int]:
    """Load records from a JSONL file; returns (records, skipped_count)."""
    counts = Counter()
    with open(path, "rb") as f:
        records = list(iter_jsonl(f, counts))
    return records, counts["skipped"]


def record_to_json(r: Record) -> str:
    # coordinates are already resolved, so the bbox is written as null
    return json.dumps({**vars(r), "bbox": None}, ensure_ascii=False, sort_keys=True)


def write_jsonl(records: Iterable[Record], path):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(record_to_json(r) + "\n")


def hash64(*parts) -> int:
    """Stable 64-bit blake2b hash of the parts joined by the unit separator;
    keys the dedup and split choices here and the training shuffles and
    dropout masks."""
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass
class SplitSpec:
    test_user_fraction: float = 0.10
    dev_user_count: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.test_user_fraction < 1.0):
            raise ValueError("test_user_fraction must be in (0, 1)")
        if self.dev_user_count < 0:
            raise ValueError("dev_user_count must be >= 0")


def dedup_user_city(records: list[Record], seed: int) -> list[Record]:
    """Keep exactly one record per (user_id, city_id) pair, chosen by the
    smallest content hash keyed with the seed. Output sorted by record key."""
    chosen: dict[tuple[str, int], tuple] = {}
    for r in records:
        if r.city_id is None:
            raise ValueError(f"record for user {r.user_id} lacks city_id; assign cities first")
        key = (r.user_id, r.city_id)
        rank = (hash64(seed, "dedup", r.user_id, r.city_id, r.posted_at, r.text,
                       r.user_description, r.user_name, r.profile_location,
                       r.lat, r.lon), r.sort_key())
        if key not in chosen or rank < chosen[key][0]:
            chosen[key] = (rank, r)
    return sorted((r for _, r in chosen.values()), key=Record.sort_key)


def split_by_user(records: list[Record], spec: SplitSpec):
    """Partition records into (train, dev, test) with pairwise-disjoint users.

    Users are ordered by a seeded hash (a deterministic shuffle independent of
    input order); the first floor(fraction * U) become test users, the next
    dev_user_count dev users, the rest train users.
    """
    users = sorted({r.user_id for r in records},
                   key=lambda u: (hash64(spec.seed, "split", u), u))
    n_test = math.floor(spec.test_user_fraction * len(users))
    if spec.dev_user_count >= len(users) - n_test:
        raise ValueError(
            f"dev_user_count {spec.dev_user_count} >= {len(users) - n_test} non-test users")
    test_users = set(users[:n_test])
    dev_users = set(users[n_test:n_test + spec.dev_user_count])

    train, dev, test = [], [], []
    for r in records:
        if r.user_id in test_users:
            test.append(r)
        elif r.user_id in dev_users:
            dev.append(r)
        else:
            train.append(r)
    return (sorted(train, key=Record.sort_key),
            sorted(dev, key=Record.sort_key),
            sorted(test, key=Record.sort_key))


@dataclass
class StatsReport:
    n_tweets: int = 0
    n_users: int = 0
    n_timezones: int = 0
    n_languages: int = 0
    n_countries: int = 0
    tweets_per_country_mean: float = 0.0
    tweets_per_country_std: float = 0.0
    n_cities: int = 0
    tweets_per_city_mean: float = 0.0
    tweets_per_city_std: float = 0.0


def _mean_std(counts: list[int]) -> tuple[float, float]:
    # population standard deviation
    if not counts:
        return 0.0, 0.0
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    return mean, math.sqrt(var)


def dataset_stats(records: list[Record]) -> StatsReport:
    """Corpus summary: counts of users/timezones/languages/labels plus
    per-country and per-city tweet count means and population sigmas."""
    if not records:
        return StatsReport()
    by_country = Counter(r.country_code for r in records)
    by_city = Counter(r.city_id for r in records if r.city_id is not None)
    c_mean, c_std = _mean_std(list(by_country.values()))
    ci_mean, ci_std = _mean_std(list(by_city.values()))
    return StatsReport(
        n_tweets=len(records),
        n_users=len({r.user_id for r in records}),
        n_timezones=len({r.timezone for r in records}),
        n_languages=len({r.tweet_lang for r in records}),
        n_countries=len(by_country),
        tweets_per_country_mean=c_mean,
        tweets_per_country_std=c_std,
        n_cities=len(by_city),
        tweets_per_city_mean=ci_mean,
        tweets_per_city_std=ci_std,
    )
