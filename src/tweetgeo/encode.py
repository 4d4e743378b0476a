"""Categorical feature maps (tweet language, user language, timezone) and the
10-minute posting-time slot: four tokens per record (`categorical_tokens`).

Each categorical map reserves index 0 for values never seen in training. The
CNN's one-hot block concatenates the maps in `CATEGORICAL_FIELDS` order (TL,
UL, TZ), then 144 time slots; exactly four positions are active for a record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import CATEGORICAL_FIELDS
from .textproc import ranked_by_frequency

UNK_CAT = "<unk-cat>"
N_TIME_SLOTS = 144
_SLOT_SECONDS = 600  # 24h / 144
_ONE_LINE = str.maketrans("\r\n", "  ")


def time_slot(posted_at: int) -> int:
    """UTC epoch seconds -> slot index in [0, 143]."""
    if posted_at < 0:
        raise ValueError("posted_at must be >= 0")
    return (posted_at % 86400) // _SLOT_SECONDS


def _one_line(value: str) -> str:
    return value.translate(_ONE_LINE) if "\n" in value or "\r" in value else value


def categorical_tokens(record) -> list[str]:
    """The three categorical values and the time slot as synthetic bag tokens.
    Line breaks in the values become spaces: a vocabulary stores one token
    per line."""
    tokens = [f"{p}={_one_line(getattr(record, f))}"
              for p, f in zip(("tl", "ul", "tz"), CATEGORICAL_FIELDS)]
    return tokens + [f"pt={time_slot(record.posted_at)}"]


@dataclass
class CategoryMaps:
    """value -> dense index maps, one attribute per name in `CATEGORICAL_FIELDS`."""

    tweet_lang: dict[str, int]
    user_lang: dict[str, int]
    timezone: dict[str, int]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(getattr(self, f)) for f in CATEGORICAL_FIELDS)

    @property
    def block_size(self) -> int:
        return sum(self.sizes) + N_TIME_SLOTS

    def value_lists(self) -> dict[str, list[str]]:
        """Index-ordered value lists, for serialization."""
        return {f: sorted(getattr(self, f), key=getattr(self, f).get) for f in CATEGORICAL_FIELDS}

    @classmethod
    def from_value_lists(cls, lists: dict[str, list[str]]) -> "CategoryMaps":
        maps = {}
        for f in CATEGORICAL_FIELDS:
            values = lists[f]
            maps[f] = {v: i for i, v in enumerate(values)}
            if not values or values[0] != UNK_CAT or len(maps[f]) != len(values):
                raise ValueError(f"{f} map must start with {UNK_CAT} and list each value once")
        return cls(**maps)


def build_category_maps(train_records) -> CategoryMaps:
    """Index observed values by descending train frequency, ties lexicographic.
    A value is read as `categorical_tokens` reads it, line breaks as spaces;
    one equal to UNK_CAT is read as unknown: it keeps index 0."""
    return CategoryMaps.from_value_lists({
        f: [UNK_CAT] + [v for v in ranked_by_frequency(_one_line(getattr(r, f))
                                                       for r in train_records)
                        if v != UNK_CAT]
        for f in CATEGORICAL_FIELDS})
