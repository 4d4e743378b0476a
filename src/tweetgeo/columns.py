"""The train and dev splits as token-id columns.

`prepare` tokenizes each train and dev record once, for the five stacking
bases, and writes the ids beside `<split>.jsonl`; `train` memory-maps them
instead of parsing and tokenizing the splits again. The files of a split
(`files(split)`), in a prepared directory:

* `<split>_columns.json`: the token dictionary (every distinct token of the
  split, in code-point order), the distinct values of each label field, the
  row count, the sha256 of the `<split>.jsonl` the columns come from and of
  each array's data, and the sha256 of everything else in the file;
* `<split>_indptr.npy`, int64 (5N + 1,): row b·N + i, bases in
  `bayes.BASE_FIELDS` order, holds base b of record i;
* `<split>_ids.npy`, int32: the rows' token ids, in token order;
* `<split>_country_code.npy` and `<split>_city_id.npy`, int32 (N,): each
  record's index into its label field's distinct values.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .bayes import BASE_FIELDS, base_tokens
from .errors import DataError
from .labels import LABEL_FIELDS

CHUNK = 1024   # records that `token_columns` tokenizes at a time


def files(split: str) -> tuple:
    """A split's column files: manifest, row pointers, ids, one per label field."""
    return (f"{split}_columns.json", f"{split}_indptr.npy", f"{split}_ids.npy",
            *(f"{split}_{field}.npy" for field in LABEL_FIELDS.values()))


@dataclass(frozen=True)
class TokenColumns:
    """N records as token ids: base b of record i is
    ids[indptr[b*N + i]:indptr[b*N + i + 1]], ids into `tokens`, which is in
    code-point order. labels[field] is (the field's distinct values, each
    record's int32 index into them)."""
    tokens: list
    indptr: np.ndarray   # (len(BASE_FIELDS) * N + 1,) int64
    ids: np.ndarray      # (nnz,) int32
    labels: dict

    def __len__(self) -> int:
        return (len(self.indptr) - 1) // len(BASE_FIELDS)

    def base(self, b: str) -> tuple[np.ndarray, np.ndarray]:
        """One base's row pointers, from 0, and its token ids."""
        n, k = len(self), BASE_FIELDS.index(b)
        ptr = np.asarray(self.indptr[k * n:(k + 1) * n + 1])
        return ptr - ptr[0], self.ids[ptr[0]:ptr[-1]]


def _first_seen_ids():
    """A dict that gives each new key the next id. Its factory holds no
    reference to the dict, so the dict is freed when dropped, not left
    in a cycle for the garbage collector."""
    return defaultdict(count().__next__)


def token_columns(records) -> TokenColumns:
    """The `bayes.base_tokens` of every base of a list of records, and their
    labels, as columns. Tokens become ids CHUNK records at a time, so one
    chunk's token strings and the split's int32s are held."""
    index, ids, lens = _first_seen_ids(), array("i"), array("q")
    for b in BASE_FIELDS:
        for start in range(0, len(records), CHUNK):
            lists = [base_tokens(r, b) for r in records[start:start + CHUNK]]
            lens.extend(map(len, lists))
            ids.extend(map(index.__getitem__, chain.from_iterable(lists)))
    tokens = sorted(index)
    rank = np.empty(len(tokens), dtype=np.int32)
    rank[np.array([index[t] for t in tokens], dtype=np.int64)] = np.arange(len(tokens))
    labels = {}
    for field in LABEL_FIELDS.values():
        codes = _first_seen_ids()
        column = np.array([codes[getattr(r, field)] for r in records], dtype=np.int32)
        labels[field] = (list(codes), column)
    return TokenColumns(tokens, np.concatenate(([0], np.cumsum(lens, dtype=np.int64))),
                        rank[np.asarray(ids)], labels)


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _canonical(body: dict) -> bytes:
    return json.dumps(body, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def save_columns(cols: TokenColumns, prep: Path, split: str) -> None:
    """Write the columns of a split into the prepared directory `prep`, bound to
    the bytes of its <split>.jsonl."""
    manifest, indptr, ids, *label_files = files(split)
    body = {"rows": len(cols), "source_sha256": _file_sha256(prep / f"{split}.jsonl"),
            "tokens": cols.tokens, "labels": {f: v for f, (v, _) in cols.labels.items()},
            "sha256": {}}
    arrays = {indptr: cols.indptr, ids: cols.ids,
              **{name: cols.labels[f][1] for name, f in zip(label_files, LABEL_FIELDS.values())}}
    for name, a in arrays.items():
        np.save(prep / name, a)
        body["sha256"][name] = _sha256(np.ascontiguousarray(a).data)
    check = _sha256(_canonical(body))
    (prep / manifest).write_bytes(_canonical({**body, "manifest_sha256": check}))


def _manifest(path: Path) -> dict:
    try:
        body = json.loads(path.read_bytes().decode("utf-8"))
        check = body.pop("manifest_sha256")
        ok = check == _sha256(_canonical(body))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: bad column manifest: {e!r}") from e
    if not ok:
        raise DataError(f"{path}: column manifest does not match its checksum")
    return body


def _array(path: Path, dtype, size, digest: str, manifest: str) -> np.ndarray:
    try:
        a = np.load(path, mmap_mode="r")
    except (EOFError, ValueError) as e:
        raise DataError(f"{path}: not a readable .npy array: {e}") from e
    if a.dtype != dtype or a.ndim != 1 or (size is not None and a.size != size):
        want = f"({size},)" if size is not None else "(n,)"
        raise DataError(f"{path}: expected {np.dtype(dtype)} {want}, found {a.dtype} {a.shape}")
    if _sha256(a.data) != digest:
        raise DataError(f"{path}: contents do not match their checksum in {manifest}")
    return a


def _check_range(path: Path, a: np.ndarray, size: int, what: str) -> None:
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, -1)
    if lo < 0 or hi >= size:
        raise DataError(f"{path}: {what} {lo if lo < 0 else hi} outside [0, {size})")


def load_columns(prep: Path, split: str) -> TokenColumns:
    """The columns of a split of the prepared directory `prep`, memory-mapped.
    A file that is malformed, fails its checksum or was written for another
    <split>.jsonl is a DataError naming it."""
    manifest, indptr_file, ids_file, *label_files = files(split)
    path, source = prep / manifest, prep / f"{split}.jsonl"
    body = _manifest(path)
    try:
        n, tokens, values = body["rows"], body["tokens"], body["labels"]
        if body["source_sha256"] != _file_sha256(source):
            raise DataError(f"{path}: written for another {source}; "
                            "run `tweetgeo prepare` again")
        sizes = {indptr_file: len(BASE_FIELDS) * n + 1, ids_file: None,
                 **dict.fromkeys(label_files, n)}
        a = {name: _array(prep / name, np.int64 if name == indptr_file else np.int32,
                          sizes[name], body["sha256"][name], manifest) for name in sizes}
        labels = {f: (values[f], a[name]) for f, name in zip(LABEL_FIELDS.values(), label_files)}
    except (KeyError, TypeError) as e:
        raise DataError(f"{path}: bad column manifest: {e!r}") from e
    indptr, ids = a[indptr_file], a[ids_file]
    if indptr[0] != 0 or indptr[-1] != ids.size or np.any(indptr[1:] < indptr[:-1]):
        raise DataError(f"{prep / indptr_file}: row pointers do not rise from 0 to {ids.size}")
    _check_range(prep / ids_file, ids, len(tokens), "token id")
    for name, (f, (vals, codes)) in zip(label_files, labels.items()):
        _check_range(prep / name, codes, len(vals), f"{f} index")
    return TokenColumns(tokens, indptr, ids, labels)
