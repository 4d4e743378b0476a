import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import jsonl_line, make_record
from tweetgeo.ingest import (Record, RecordSkip, SplitSpec, dataset_stats,
                             dedup_user_city, parse_record, read_jsonl,
                             resolve_coordinates, split_by_user, write_jsonl)


def test_parse_full_record():
    r = parse_record(jsonl_line(lat=40.0, lon=-80.0, text="abc"))
    assert (r.lat, r.lon, r.text) == (40.0, -80.0, "abc")


def test_parse_missing_optional_text_defaults_empty():
    line = jsonl_line()
    obj = json.loads(line)
    del obj["user_description"]
    r = parse_record(json.dumps(obj))
    assert r.user_description == ""


def test_parse_skips_out_of_range_latitude():
    with pytest.raises(RecordSkip):
        parse_record(jsonl_line(lat=95.0))


def test_parse_skips_malformed_json_and_missing_user():
    with pytest.raises(RecordSkip):
        parse_record("{not json")
    with pytest.raises(RecordSkip):
        parse_record(jsonl_line(user_id=""))


def test_parse_unlabeled_mode_allows_missing_coords():
    r = parse_record(jsonl_line(lat=None, lon=None), require_coords=False)
    assert r.lat is None and r.lon is None
    with pytest.raises(RecordSkip):
        parse_record(jsonl_line(lat=None, lon=None))


def test_resolve_point_wins():
    assert resolve_coordinates((40.0, -80.0), None) == (40.0, -80.0)
    assert resolve_coordinates((40.0, -80.0), (0, 0, 10, 10)) == (40.0, -80.0)


def test_resolve_small_bbox_center():
    got = resolve_coordinates(None, (40.00, -80.00, 40.08, -79.94))
    assert got == pytest.approx((40.04, -79.97))


def test_resolve_rejects_wide_or_degenerate_bbox():
    assert resolve_coordinates(None, (40.0, -80.0, 40.2, -79.9)) is None
    assert resolve_coordinates(None, (40.1, -80.0, 40.0, -79.95)) is None
    assert resolve_coordinates(None, None) is None


@pytest.mark.parametrize("bbox", [[1, 2, 3], "abc", {"a": 1}, [None, 1, 2, 3], 5, "1234",
                                  [40.0, -80.0, 40.05, -79.95, 0.0], [10 ** 400, 0, 0, 0]])
def test_parse_skips_malformed_bbox_unless_a_point_is_given(bbox):
    with pytest.raises(RecordSkip, match="bad bbox"):
        parse_record(jsonl_line(lat=None, lon=None, bbox=bbox))
    with pytest.raises(RecordSkip, match="bad bbox"):
        parse_record(jsonl_line(lat=None, lon=None, bbox=bbox), require_coords=False)
    r = parse_record(jsonl_line(lat=40.0, lon=-80.0, bbox=bbox))
    assert (r.lat, r.lon) == (40.0, -80.0)


@pytest.mark.parametrize("line", ['{"user_id": "u1", "lat": 1%s, "lon": 0}' % ("0" * 400),
                                  '{"user_id": "u1", "lat": %s, "lon": 0}' % ("1" * 5000),
                                  "[" * 100_000],
                         ids=["overflowing-float", "too-many-digits", "too-deep"])
def test_parse_skips_unconvertible_numbers_and_deep_nesting(line):
    with pytest.raises(RecordSkip):
        parse_record(line)


def test_read_jsonl_counts_skips(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join([jsonl_line(), "oops", jsonl_line(lat=99.0)]) + "\n")
    records, skipped = read_jsonl(path)
    assert len(records) == 1 and skipped == 2


def test_jsonl_roundtrip(tmp_path):
    recs = [make_record(user=f"u{i}", city_id=i) for i in range(3)]
    path = tmp_path / "out.jsonl"
    write_jsonl(recs, path)
    back, skipped = read_jsonl(path)
    assert skipped == 0
    assert back == recs


def test_dedup_one_per_user_city():
    recs = [make_record(user="u1", city_id=9, text=t) for t in ("a", "b", "c")]
    out = dedup_user_city(recs, seed=0)
    assert len(out) == 1
    assert out[0].text in {"a", "b", "c"}


def test_dedup_keeps_distinct_cities():
    recs = [make_record(user="u1", city_id=1), make_record(user="u1", city_id=2)]
    assert len(dedup_user_city(recs, seed=0)) == 2


def test_dedup_requires_city_id():
    with pytest.raises(ValueError):
        dedup_user_city([make_record(city_id=None)], seed=0)


def test_dedup_count_matches_distinct_pairs(rng):
    recs, pairs = [], set()
    for _ in range(10_000):
        u, c = f"u{int(rng.integers(0, 400))}", int(rng.integers(0, 12))
        pairs.add((u, c))
        recs.append(make_record(user=u, city_id=c, text=f"t{int(rng.integers(0, 10**6))}"))
    out = dedup_user_city(recs, seed=7)
    assert len(out) == len(pairs)


def test_dedup_idempotent_and_order_independent(rng):
    recs = [make_record(user=f"u{int(rng.integers(0, 30))}", city_id=int(rng.integers(0, 4)),
                        text=f"t{i}") for i in range(300)]
    once = dedup_user_city(recs, seed=3)
    assert dedup_user_city(once, seed=3) == once
    shuffled = list(recs)
    rng.shuffle(shuffled)
    assert dedup_user_city(shuffled, seed=3) == once


def test_split_counts_and_disjointness():
    recs = [make_record(user=f"u{i}", city_id=0) for i in range(100)]
    spec = SplitSpec(test_user_fraction=0.10, dev_user_count=20, seed=1)
    train, dev, test = split_by_user(recs, spec)
    users = lambda part: {r.user_id for r in part}
    assert (len(users(test)), len(users(dev)), len(users(train))) == (10, 20, 70)
    assert not (users(test) & users(dev)) and not (users(test) & users(train))
    assert not (users(dev) & users(train))


def test_split_deterministic_and_partitions():
    recs = [make_record(user=f"u{i % 37}", city_id=i % 5, text=f"t{i}") for i in range(200)]
    recs = dedup_user_city(recs, seed=0)
    spec = SplitSpec(test_user_fraction=0.2, dev_user_count=5, seed=9)
    a = split_by_user(recs, spec)
    b = split_by_user(list(reversed(recs)), spec)
    assert a == b
    merged = sorted(a[0] + a[1] + a[2], key=Record.sort_key)
    assert merged == sorted(recs, key=Record.sort_key)


def test_split_rejects_oversized_dev():
    recs = [make_record(user=f"u{i}", city_id=0) for i in range(10)]
    with pytest.raises(ValueError):
        split_by_user(recs, SplitSpec(test_user_fraction=0.1, dev_user_count=9, seed=0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_user_disjointness_property(seed):
    recs = [make_record(user=f"u{i % 23}", city_id=i % 3, text=f"t{i}") for i in range(80)]
    recs = dedup_user_city(recs, seed=0)
    train, dev, test = split_by_user(recs, SplitSpec(0.25, 3, seed))
    seen = {}
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        for r in part:
            assert seen.setdefault(r.user_id, name) == name


def test_stats_hand_example():
    recs = [make_record(user=f"u{i}", country="US") for i in range(3)]
    recs.append(make_record(user="u9", country="JP"))
    stats = dataset_stats(recs)
    assert stats.n_tweets == 4 and stats.n_countries == 2
    assert stats.tweets_per_country_mean == pytest.approx(2.0)
    # population sigma: counts (3, 1) -> sqrt(((3-2)^2 + (1-2)^2)/2) = 1
    assert stats.tweets_per_country_std == pytest.approx(1.0)


def test_stats_empty():
    stats = dataset_stats([])
    assert stats.n_tweets == 0 and stats.tweets_per_city_std == 0.0


def test_stats_counts_distincts():
    recs = [
        make_record(user="a", tweet_lang="en", tz="EST", city_id=1),
        make_record(user="a", tweet_lang="ja", tz="JST", city_id=2),
        make_record(user="b", tweet_lang="en", tz="EST", city_id=1),
    ]
    stats = dataset_stats(recs)
    assert stats.n_users == 2
    assert stats.n_languages == 2
    assert stats.n_timezones == 2
    assert stats.n_cities == 2
    assert stats.tweets_per_city_mean == pytest.approx(1.5)


@pytest.mark.parametrize("coords", [{"lat": True, "lon": True}, {"lat": "40.5", "lon": -80.0},
                                    {"lat": 40.0, "lon": False}, {"lat": [40.0], "lon": -80.0},
                                    {"lat": {"v": 1}, "lon": 0}],
                         ids=["bools", "string-lat", "bool-lon", "list-lat", "object-lat"])
def test_parse_skips_a_point_that_is_not_json_numbers(coords):
    for require in (True, False):
        with pytest.raises(RecordSkip, match="non-numeric coordinates"):
            parse_record(json.dumps({"user_id": "u", **coords}), require_coords=require)


@pytest.mark.parametrize("bbox", [["40", "-80", "40.05", "-79.95"], [40.0, -80.0, 40.05, True],
                                  [False, False, False, False]],
                         ids=["strings", "one-bool", "bools"])
def test_parse_skips_a_bbox_that_is_not_json_numbers(bbox):
    with pytest.raises(RecordSkip, match="bad bbox"):
        parse_record(jsonl_line(lat=None, lon=None, bbox=bbox))
    with pytest.raises(RecordSkip, match="bad bbox"):
        resolve_coordinates(None, bbox)


def test_parse_keeps_integer_coordinates():
    r = parse_record('{"user_id": "u", "lat": 40, "lon": -80}')
    assert (r.lat, r.lon) == (40.0, -80.0) and type(r.lat) is float
    r = parse_record(jsonl_line(lat=None, lon=None, bbox=[40, -80, 40, -80]))
    assert (r.lat, r.lon) == (40.0, -80.0)


@pytest.mark.parametrize("line", [
    b'{"user_id": "u", "text": "caf\xe9", "lat": 40.0, "lon": -80.0}',
    b'{"user_id": "u", "extra": "\xff", "lat": 40.0, "lon": -80.0}',
    b'{"user_id": "u", "text": "\xed\xb2\x80", "lat": 40.0, "lon": -80.0}',
    b'{"user_id": "u", "text": "\\udc80", "lat": 40.0, "lon": -80.0}',
    b'{"user_id": "\\ud83d", "lat": 40.0, "lon": -80.0}',
], ids=["latin1-text", "bad-byte-in-unread-field", "encoded-surrogate", "escaped-surrogate",
        "escaped-surrogate-user"])
def test_parse_skips_a_line_that_is_not_utf8(line):
    with pytest.raises(RecordSkip):
        parse_record(line)


def test_read_jsonl_skips_lines_that_are_not_utf8_one_at_a_time(tmp_path):
    # an escaped surrogate pair is one character, and CRLF line ends parse
    path = tmp_path / "in.jsonl"
    good = jsonl_line(text="caf\u00e9").encode("utf-8")
    pair = b'{"user_id": "v", "text": "\\ud83d\\ude00", "lat": 1.0, "lon": 2.0}'
    path.write_bytes(b"\r\n".join([good, b'{"user_id": "u", "text": "\xe9"}', pair]) + b"\r\n")
    records, skipped = read_jsonl(path)
    assert skipped == 1
    assert [r.text for r in records] == ["caf\u00e9", "\U0001F600"]
