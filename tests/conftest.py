import json

import numpy as np
import pytest
from hypothesis import settings

from tweetgeo.columns import token_columns
from tweetgeo.encode import build_category_maps
from tweetgeo.geo import City, CityTable
from tweetgeo.ingest import Record
from tweetgeo.textproc import build_vocab

# `pytest --hypothesis-profile=ci` draws 1000 examples per property test
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def small_table():
    return CityTable([
        City(1, "alpha", 40.0, -80.0, "US", 500_000),
        City(2, "beta", 41.9, -87.6, "US", 2_000_000),
        City(3, "gamma", 51.5, -0.1, "GB", 8_000_000),
        City(4, "delta", 35.7, 139.7, "JP", 9_000_000),
    ])


def make_record(user="u1", text="hello world", city_id=None, lat=40.0, lon=-80.0,
                country="US", posted=3600, tweet_lang="en", user_lang="en", tz="EST",
                **kw):
    return Record(user_id=user, text=text, lat=lat, lon=lon, country_code=country,
                  posted_at=posted, tweet_lang=tweet_lang, user_lang=user_lang,
                  timezone=tz, city_id=city_id, **kw)


def vocab_of(streams, min_count=1):
    """`build_vocab` of token streams, given as ids into their distinct tokens
    in code-point order, as `columns.token_columns` lays them out."""
    stream = [t for s in streams for t in s]
    tokens = sorted(set(stream))
    at = {t: i for i, t in enumerate(tokens)}
    return build_vocab(tokens, np.array([at[t] for t in stream], dtype=np.int64), min_count)


def maps_of(records):
    """`build_category_maps` of the token columns of records."""
    return build_category_maps(token_columns(records))


def jsonl_line(**kw):
    obj = {
        "user_id": "u1", "text": "hi", "user_description": "", "user_name": "",
        "profile_location": "", "tweet_lang": "en", "user_lang": "en",
        "timezone": "EST", "posted_at": 1000, "lat": 40.0, "lon": -80.0,
        "bbox": None, "country_code": "US",
    }
    obj.update(kw)
    return json.dumps(obj)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
