import numpy as np
import pytest

from tweetgeo.errors import DataError
from tweetgeo.geo import City, CityTable
from tweetgeo.ingest import Record
from tweetgeo.labels import LabelTable, city_labels, country_labels


def _city_table():
    return city_labels(CityTable([City(0, "zero", 10.0, 10.0, "AA", 1_000),
                                  City(4, "four", 20.0, 20.0, "BB", 2_000)]))


def test_label_array_maps_city_id_zero_and_marks_unseen_values():
    labels = _city_table()
    y = labels.label_array([Record("u1", city_id=4), Record("u2", city_id=0),
                            Record("u3", city_id=7)])
    # city_id 0 is a label, not a missing one; 7 is outside the table
    assert y.tolist() == [1, 0, -1]
    assert labels.label_array([]).tolist() == []


def test_label_array_maps_unseen_country_codes_to_minus_one():
    labels = LabelTable("country", ["US", "JP"])
    y = labels.label_array([Record("u1", country_code="JP"), Record("u2", country_code="FR")])
    assert y.tolist() == [1, -1]


@pytest.mark.parametrize("labels, record, field", [
    (_city_table(), Record("u9", city_id=None), "city_id"),
    (LabelTable("country", ["US", "JP"]), Record("u9", country_code=""), "country_code"),
], ids=["city", "country"])
def test_label_array_names_the_source_of_an_unlabeled_record(labels, record, field):
    with pytest.raises(DataError, match=f"^dev.jsonl: record of user 'u9' has no {field}$"):
        labels.label_array([Record("u1", city_id=4, country_code="US"), record], "dev.jsonl")
    with pytest.raises(DataError, match=f"^records: record of user 'u9' has no {field}$"):
        labels.label_array([record])


@pytest.mark.parametrize("task, values, match", [
    ("city", [1, 1, 3], "a label value repeats"),
    ("country", ["US", "JP", "US"], "a label value repeats"),
    ("city", [1, "2"], "city label values must be of type int"),
    ("city", [1, 2.0], "city label values must be of type int"),
    ("city", [True, 2], "city label values must be of type int"),
    ("country", ["US", 7], "country label values must be of type str"),
], ids=["city-repeat", "country-repeat", "city-str", "city-float", "city-bool", "country-int"])
def test_label_table_rejects_a_repeated_or_mistyped_value(task, values, match):
    # a repeated value would map to its last index only, and a value of the
    # wrong type matches no record's label
    with pytest.raises(ValueError, match=f"^{match}$"):
        LabelTable(task, values)


@pytest.mark.parametrize("task, values, coords, match", [
    ("city", [1, 2], None, "a city label table must have coordinates"),
    ("country", ["US", "JP"], [(1.0, 2.0), (3.0, 4.0)],
     "a country label table must not have coordinates"),
], ids=["city-without", "country-with"])
def test_label_table_has_coordinates_exactly_for_the_city_task(task, values, coords, match):
    # the city metrics read a label's coordinates; a country label has none
    with pytest.raises(ValueError, match=f"^{match}$"):
        LabelTable(task, values, coords)


def test_code_array_and_country_labels_of_codes_agree_with_the_records():
    # the token columns hold each record's label as an index into its field's values
    recs = [Record(f"u{i}", country_code=c, city_id=k)
            for i, (c, k) in enumerate([("US", 4), ("GB", 0), ("US", 4), ("JP", 0), ("GB", 4)])]
    for field, labels in (("country_code", None), ("city_id", _city_table())):
        codes = _first_seen_codes(getattr(r, field) for r in recs)
        labels = labels or country_labels(*codes)
        if field == "country_code":   # most frequent first, ties ascending
            assert labels.values == ["GB", "US", "JP"]
        assert labels.code_array(*codes, "train.jsonl").tolist() == \
            labels.label_array(recs).tolist()


@pytest.mark.parametrize("value, shows", [
    (None, "line 3 has no city_id"), (7, "line 3 has city_id 7, not in the label table")])
def test_code_array_names_the_line_of_a_bad_label(value, shows):
    values, codes = _first_seen_codes([4, 0, value, value])
    with pytest.raises(DataError, match=f"^train.jsonl: {shows}$"):
        _city_table().code_array(values, codes, "train.jsonl")


def test_code_array_marks_a_label_outside_the_table_unless_strict():
    # the dev split: a class unseen in training is a miss, not an error
    values, codes = _first_seen_codes([4, 7, 0])
    y = _city_table().code_array(values, codes, "dev.jsonl", strict=False)
    assert y.tolist() == [1, -1, 0]
    with pytest.raises(DataError, match="^dev.jsonl: line 2 has no city_id$"):
        _city_table().code_array(*_first_seen_codes([4, None]), "dev.jsonl", strict=False)


def _first_seen_codes(values):
    values = list(values)
    distinct = list(dict.fromkeys(values))
    return distinct, np.array([distinct.index(v) for v in values], dtype=np.int32)
