"""Label spaces for the two tasks.

Country labels are the country codes observed in the training split, indexed
by descending frequency (ties lexicographic). City labels are every city in
the city table, indexed by ascending city_id, with representative coordinates
kept alongside so evaluation needs no extra table.
"""

from __future__ import annotations

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

    def coords_array(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("no coordinates on a country-task label table")
        return np.asarray(self.coords, dtype=np.float64)


def country_labels(train_records) -> LabelTable:
    return LabelTable(TASK_COUNTRY, ranked_by_frequency(r.country_code for r in train_records))


def city_labels(table: CityTable) -> LabelTable:
    return LabelTable(
        TASK_CITY,
        [c.city_id for c in table.cities],
        coords=[(c.lat, c.lon) for c in table.cities],
    )
