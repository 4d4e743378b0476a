import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record, maps_of, vocab_of
from oracles import build_category_maps_scan
from tweetgeo.columns import token_columns
from tweetgeo.cnn import CnnConfig, encode_features
from tweetgeo.encode import (CategoryMaps, N_TIME_SLOTS, UNK_CAT, build_category_maps,
                             categorical_tokens, time_slot)


def onehot_block(record, maps: CategoryMaps) -> list[int]:
    """The record's four active positions in the CNN's one-hot block."""
    feats = encode_features([record], vocab_of([]), maps, CnnConfig())
    return feats.cat_positions[0].tolist()


def test_time_slot_boundaries():
    assert time_slot(0) == 0
    assert time_slot(9 * 3600 + 15 * 60) == 55
    assert time_slot(86399) == 143
    assert time_slot(86400) == 0


def test_time_slot_surjective_and_constant_within_slot():
    seen = set()
    for s in range(0, 86400, 600):
        lo, hi = time_slot(s), time_slot(s + 599)
        assert lo == hi
        seen.add(lo)
    assert seen == set(range(N_TIME_SLOTS))


def test_time_slot_rejects_negative():
    with pytest.raises(ValueError):
        time_slot(-1)


def test_build_maps_frequency_order():
    recs = [make_record(tweet_lang="en")] * 5 + [make_record(tweet_lang="ja")] * 2
    maps = maps_of(recs)
    assert maps.tweet_lang == {UNK_CAT: 0, "en": 1, "ja": 2}


def test_build_maps_empty_train():
    maps = maps_of([])
    assert maps.tweet_lang == {UNK_CAT: 0}
    assert maps.sizes == (1, 1, 1)


def test_unseen_value_encodes_to_zero():
    maps = maps_of([make_record(tweet_lang="en")])
    r = make_record(tweet_lang="xx")
    assert onehot_block(r, maps)[0] == 0


def test_onehot_block_offsets():
    maps = CategoryMaps(
        tweet_lang={UNK_CAT: 0, "en": 1, "ja": 2},
        user_lang={UNK_CAT: 0, "en": 1},
        timezone={UNK_CAT: 0, "EST": 1},
    )
    r = make_record(tweet_lang="en", user_lang="xx", tz="EST", posted=0)
    assert onehot_block(r, maps) == [1, 3 + 0, 5 + 1, 7 + 0]


def test_onehot_block_all_unknown():
    maps = CategoryMaps(
        tweet_lang={UNK_CAT: 0, "en": 1},
        user_lang={UNK_CAT: 0, "en": 1},
        timezone={UNK_CAT: 0, "EST": 1},
    )
    r = make_record(tweet_lang="q", user_lang="q", tz="q", posted=601)
    tl, ul, tz = maps.sizes
    assert onehot_block(r, maps) == [0, tl, tl + ul, tl + ul + tz + 1]


def test_onehot_block_always_four_active():
    recs = [make_record(tweet_lang=l, posted=p) for l, p in
            [("en", 0), ("ja", 5000), ("xx", 86399)]]
    maps = maps_of(recs[:2])
    for r in recs:
        block = onehot_block(r, maps)
        assert len(block) == len(set(block)) == 4
        assert all(0 <= b < maps.block_size for b in block)


def test_a_categorical_value_with_a_line_break_is_read_one_lined_by_both_models():
    train = [make_record(tz="Zone\r\nX"), make_record(tz="Zone  X"), make_record(tz="Y")]
    maps = maps_of(train)
    assert maps.timezone == {UNK_CAT: 0, "Zone  X": 1, "Y": 2}
    probe = make_record(tz="Zone\r\nX", posted=0)
    assert categorical_tokens(probe)[2] == "tz=Zone  X"     # the stacking `cats` base
    tl, ul, _ = maps.sizes
    assert onehot_block(probe, maps)[2] == tl + ul + 1       # the CNN


def test_value_lists_roundtrip():
    maps = maps_of([make_record(tweet_lang="en", user_lang="fr", tz="UTC")])
    again = CategoryMaps.from_value_lists(maps.value_lists())
    assert again == maps


@pytest.mark.parametrize("field, kw", [("tweet_lang", "tweet_lang"), ("user_lang", "user_lang"),
                                       ("timezone", "tz")])
def test_sentinel_valued_category_is_read_as_unknown(field, kw):
    # a training value equal to the sentinel must not take its index away
    recs = [make_record(**{kw: UNK_CAT})] * 3 + [make_record(**{kw: "a"})] * 2 \
        + [make_record(**{kw: "b"})]
    maps = maps_of(recs)
    assert getattr(maps, field) == {UNK_CAT: 0, "a": 1, "b": 2}
    for r in recs + [make_record(**{kw: "unseen"})]:
        block = onehot_block(r, maps)
        starts = [0, *itertools.accumulate(maps.sizes)]
        assert all(lo <= b < hi for b, lo, hi in zip(block, starts, starts[1:]))
    assert onehot_block(recs[0], maps) == onehot_block(make_record(**{kw: "unseen"}), maps)
    lists = maps.value_lists()
    assert all(values[0] == UNK_CAT for values in lists.values())
    assert CategoryMaps.from_value_lists(lists) == maps


def test_value_lists_with_a_repeated_value_are_rejected():
    # a repeat would leave the map smaller than its list, so a value's index
    # could land in the next field's block
    lists = {"tweet_lang": [UNK_CAT, "en", "fr", "en"], "user_lang": [UNK_CAT],
             "timezone": [UNK_CAT]}
    with pytest.raises(ValueError, match="tweet_lang map must start with <unk-cat> and list"):
        CategoryMaps.from_value_lists(lists)


# values with exact count ties, line breaks (read as spaces, so "Zone\r\nX"
# and "Zone  X" are one value), the sentinel, and code-point order pitfalls
CATEGORY_VALUES = ["en", "EN", "é", "e\u0301", "", "Zone\r\nX", "Zone  X", "a\nb", UNK_CAT,
                   "tz=x", "<", "~"]


@settings(max_examples=60)
@given(st.lists(st.tuples(*[st.sampled_from(CATEGORY_VALUES)] * 3, st.integers(0, 86399)),
                max_size=12))
def test_build_category_maps_of_columns_equals_the_records_scan(rows):
    recs = [make_record(user=f"u{i}", tweet_lang=tl, user_lang=ul, tz=tz, posted=t)
            for i, (tl, ul, tz, t) in enumerate(rows)]
    assert build_category_maps(token_columns(recs)) == build_category_maps_scan(recs)


def test_build_category_maps_pins_a_line_break_and_the_sentinel():
    recs = [make_record(tz=UNK_CAT)] * 3 + [make_record(tz="Zone\nX"), make_record(tz="Zone X"),
                                             make_record(tz="A")]
    assert maps_of(recs).timezone == {UNK_CAT: 0, "Zone X": 1, "A": 2}
    assert maps_of(recs) == build_category_maps_scan(recs)
