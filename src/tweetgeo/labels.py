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

from .geo import CityTable

TASK_COUNTRY = "country"
TASK_CITY = "city"


@dataclass
class LabelTable:
    task: str
    values: list            # country codes (str) or city ids (int)
    coords: Optional[list] = None   # city task: [(lat, lon)] aligned with values

    def __post_init__(self):
        if self.task not in (TASK_COUNTRY, TASK_CITY):
            raise ValueError(f"unknown task {self.task!r}")
        if self.coords is not None:
            self.coords = [(float(lat), float(lon)) for lat, lon in self.coords]
            if len(self.coords) != len(self.values):
                raise ValueError(f"{len(self.coords)} coordinate pairs for "
                                 f"{len(self.values)} labels")
        self._index = {v: i for i, v in enumerate(self.values)}
        # the Record attribute that holds this task's label
        self.field = "country_code" if self.task == TASK_COUNTRY else "city_id"

    def __len__(self):
        return len(self.values)

    def index_of(self, value) -> int:
        """Label index, or -1 for values outside the table."""
        return self._index.get(value, -1)

    def label_array(self, records) -> np.ndarray:
        return np.array([self.index_of(getattr(r, self.field)) for r in records],
                        dtype=np.int64)

    def coords_array(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("no coordinates on a country-task label table")
        return np.asarray(self.coords, dtype=np.float64)


def country_labels(train_records) -> LabelTable:
    counts = Counter(r.country_code for r in train_records)
    ordered = sorted(counts, key=lambda c: (-counts[c], c))
    return LabelTable(TASK_COUNTRY, ordered)


def city_labels(table: CityTable) -> LabelTable:
    return LabelTable(
        TASK_CITY,
        [c.city_id for c in table.cities],
        coords=[(c.lat, c.lon) for c in table.cities],
    )
