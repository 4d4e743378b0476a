"""Categorical feature maps (tweet language, user language, timezone) and the
10-minute posting-time slot: four tokens per record (`categorical_tokens`).

Each categorical map reserves index 0 for values never seen in training. The
CNN's one-hot block concatenates the maps in `CATEGORICAL_FIELDS` order (TL,
UL, TZ), then 144 time slots; exactly four positions are active for a record.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .ingest import CATEGORICAL_FIELDS
from .textproc import ranked

UNK_CAT = "<unk-cat>"
N_TIME_SLOTS = 144
_SLOT_SECONDS = 600  # 24h / 144
_ONE_LINE = str.maketrans("\r\n", "  ")
_PREFIXES = ("tl", "ul", "tz")   # of each CATEGORICAL_FIELDS value's token
_SLOT_PREFIX = "pt"


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
    tokens = [f"{p}={_one_line(getattr(record, f))}" for p, f in zip(_PREFIXES, CATEGORICAL_FIELDS)]
    return tokens + [f"{_SLOT_PREFIX}={time_slot(record.posted_at)}"]


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


def build_category_maps(cols) -> CategoryMaps:
    """Index the values of the `cats` tokens of token columns by descending
    train frequency, ties lexicographic: values as `categorical_tokens` reads
    them, line breaks as spaces. UNK_CAT as a value is unknown: it keeps index 0."""
    counts = np.bincount(cols.base("cats")[1], minlength=len(cols.tokens))
    lists = {}
    for p, f in zip(_PREFIXES, CATEGORICAL_FIELDS):
        # in code-point order the tokens "p=..." lie between "p=" and "p>"
        lo, hi = bisect_left(cols.tokens, f"{p}="), bisect_left(cols.tokens, f"{p}>")
        values = [t[3:] for t in cols.tokens[lo:hi]]
        lists[f] = [UNK_CAT] + [values[i] for i in ranked(counts[lo:hi]) if values[i] != UNK_CAT]
    return CategoryMaps.from_value_lists(lists)


def category_positions(cols, maps: CategoryMaps) -> np.ndarray:
    """The (N, 4) active positions of each record's one-hot block, from the
    `categorical_tokens` of token columns: each value's index in its map
    (0 for a value not in it), then the time slot, each past the blocks
    before it."""
    ids = cols.base("cats")[1]
    uniq, inv = np.unique(ids, return_inverse=True)
    offsets = dict(zip((*_PREFIXES, _SLOT_PREFIX), np.cumsum((0, *maps.sizes)).tolist()))
    lookup = {p: getattr(maps, f) for p, f in zip(_PREFIXES, CATEGORICAL_FIELDS)}
    at = []
    for token in map(cols.tokens.__getitem__, uniq.tolist()):
        p, value = token.split("=", 1)
        at.append(offsets[p] + (int(value) if p == _SLOT_PREFIX else lookup[p].get(value, 0)))
    return np.array(at, dtype=np.int64)[inv].reshape(len(cols), 4)
