import pytest

from tweetgeo.errors import DataError
from tweetgeo.geo import City, CityTable
from tweetgeo.ingest import Record
from tweetgeo.labels import LabelTable, city_labels


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
