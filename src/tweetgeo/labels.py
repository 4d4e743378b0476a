"""Label spaces for the two tasks.

Country labels are the country codes observed in the training split, indexed
by descending frequency (ties lexicographic). City labels are every city in
the city table, indexed by ascending city_id, with representative coordinates
kept alongside so evaluation needs no extra table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError
from .geo import CityTable
from .textproc import ranked_by_frequency

TASK_COUNTRY = "country"
TASK_CITY = "city"
LABEL_FIELDS = {TASK_COUNTRY: "country_code", TASK_CITY: "city_id"}   # Record attributes


@dataclass
class LabelTable:
    task: str
    values: list            # country codes (str) or city ids (int)
    coords: Optional[list] = None   # city task: [(lat, lon)] aligned with values

    def __post_init__(self):
        if self.task not in LABEL_FIELDS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.coords is not None:
            self.coords = [(float(lat), float(lon)) for lat, lon in self.coords]
            if len(self.coords) != len(self.values):
                raise ValueError(f"{len(self.coords)} coordinate pairs for "
                                 f"{len(self.values)} labels")
        kind = int if self.task == TASK_CITY else str   # the type of a record's label field
        if any(type(v) is not kind for v in self.values):
            raise ValueError(f"{self.task} label values must be of type {kind.__name__}")
        self._index = {v: i for i, v in enumerate(self.values)}
        if len(self._index) != len(self.values):
            raise ValueError("a label value repeats")
        if (self.coords is None) == (self.task == TASK_CITY):
            raise ValueError(f"a {self.task} label table must "
                             f"{'have' if self.coords is None else 'not have'} coordinates")
        self.field = LABEL_FIELDS[self.task]

    def __len__(self):
        return len(self.values)

    def label_array(self, records, source="records") -> np.ndarray:
        """Each record's label index, -1 for a value outside the table; a record
        with no label is a DataError naming source."""
        indices = []
        for r in records:
            value = getattr(r, self.field)
            if value in (None, ""):
                raise DataError(f"{source}: record of user {r.user_id!r} has no {self.field}")
            indices.append(self._index.get(value, -1))
        return np.array(indices, dtype=np.int64)

    def code_array(self, values: list, codes: np.ndarray, source,
                   strict: bool = True) -> np.ndarray:
        """`label_array` of records given as codes (record i's label is
        values[codes[i]]). A record with no label, or, if strict, one outside
        the table (else -1), is a DataError naming its line of source."""
        missing = np.array([v in (None, "") for v in values], dtype=bool)[codes]
        if missing.any():
            raise DataError(f"{source}: line {np.argmax(missing) + 1} has no {self.field}")
        y = np.array([self._index.get(v, -1) for v in values], dtype=np.int64)[codes]
        if strict and np.any(y < 0):
            i = int(np.argmax(y < 0))
            raise DataError(f"{source}: line {i + 1} has {self.field} {values[codes[i]]!r}, "
                            "not in the label table")
        return y

    def coords_array(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("no coordinates on a country-task label table")
        return np.asarray(self.coords, dtype=np.float64)


def country_labels(values: list, codes: np.ndarray) -> LabelTable:
    """The country codes of records given as codes (record i's country is
    values[codes[i]]), most frequent first."""
    counts = np.bincount(codes, minlength=len(values)).tolist()
    return LabelTable(TASK_COUNTRY, ranked_by_frequency(Counter(dict(zip(values, counts)))))


def city_labels(table: CityTable) -> LabelTable:
    return LabelTable(
        TASK_CITY,
        [c.city_id for c in table.cities],
        coords=[(c.lat, c.lon) for c in table.cities],
    )
